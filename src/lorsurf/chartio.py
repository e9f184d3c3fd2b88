"""Chart, report and mesh files.

Charts, reports and meshes are text.  Reports are JSON, and meshes hold
floats in Python's shortest round-trip representation.  A chart file is
JSON (schema_version 2) whose fields F, H, L, M, N, K each hold one
string per file row: the standard padded base64 of the row's
little-endian float64 bytes, so write-then-read reproduces every number
bit-exactly.  The rows are stored with row index = v and column index = u
(the in-memory layout is the transpose).  A chart file holds exactly the
bytes of `json.dumps(doc, indent=1) + "\n"`.  Files of schema_version 1,
whose rows are lists of JSON numbers, are still read.

All writes are atomic and streamed: the text goes into a temporary file in
the target directory one grid row at a time, then the file is renamed onto
the target, so no writer holds a whole file in memory.  Files are UTF-8
whatever the locale.  The reader reads a chart file forward in chunks,
hashing and decoding each as it comes, and converts a field to float64 a
row at a time, gathered in blocks of rows: it holds a window of the text
and one block of rows, never the whole file.
"""

from __future__ import annotations

import binascii
import codecs
import hashlib
import itertools
import json
import math
import os
import re
import tempfile

import numpy as np

from .chart import Chart
from .errors import ChartError

__all__ = [
    "write_chart",
    "read_chart",
    "load_chart",
    "write_report",
    "report_json",
    "write_mesh_obj",
    "write_mesh_csv",
    "digest_bytes",
    "digest_text",
]

SCHEMA_VERSION = 2  # the version written; 1 is still read
_ROWS = {1: "a 2-D array", 2: "a list of base64 row strings"}  # a field, by version
_FIELDS = ("F", "H", "L", "M", "N", "K")


def _atomic_write(path, chunks):
    """Write the strings of `chunks` to `path`; on any error the target is untouched.

    No temporary file is left behind, and an OSError (a missing directory,
    a directory at `path`) becomes a ChartError that names `path`.  The file
    gets open()'s mode, 0o666 less the umask, not mkstemp's 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)  # the only way to read the umask; it is set back at once
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise ChartError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def digest_text(text):
    return digest_bytes(text.encode("utf-8"))


def write_chart(chart, path):
    """Serialize a chart to JSON, one base64 string per file row (row index = v)."""
    chart.validate()
    _atomic_write(path, _chart_chunks(chart))


def _chart_chunks(chart):
    """The text of `json.dumps(doc, indent=1) + "\n"`, one file row at a time."""
    head = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "u_grid": chart.u_grid.tolist(),
        "v_grid": chart.v_grid.tolist(),
        "u0_index": int(chart.u0_index),
        "v0_index": int(chart.v0_index),
        "eps1": int(chart.eps1),
        "eps2": int(chart.eps2),
    }, indent=1)
    yield head[:-2]  # without the closing "\n}"
    for name in _FIELDS:
        arr = getattr(chart, name)
        if arr is None:
            continue
        sep = f',\n "{name}": [\n  '
        for col in arr.T:
            row = binascii.b2a_base64(np.asarray(col, "<f8").tobytes(), newline=False)
            yield f'{sep}"{row.decode("ascii")}"'
            sep = ",\n  "
        yield "\n ]"
    metadata = json.dumps(chart.metadata, indent=1)
    yield ',\n "metadata": ' + metadata.replace("\n", "\n ") + "\n}\n"


def _integer(doc, key):
    """The integer stored under `key`; booleans, fractions and strings are refused."""
    value = doc[key]
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ChartError(f"{key} must be an integer, got {json.dumps(value)[:40]}")
    return int(value)


def _non_numbers(values):
    """The types in `values` other than int and float (JSON's numbers; bool is not one)."""
    return set(map(type, values)) - {int, float}


def _numbers(what, values):
    """Refuse anything but JSON numbers in `values`; numpy would read true and "1.5"."""
    others = _non_numbers(values)
    if others:
        raise ChartError(f"{what} must hold only numbers, found "
                         + ", ".join(sorted(t.__name__ for t in others)))


def _is_rows(value, version):
    """Whether `value` is a field member of `version`: a non-empty list of lists
    (1) or of strings (2)."""
    kind = list if version == 1 else str
    return isinstance(value, list) and bool(value) and all(isinstance(r, kind) for r in value)


def _row_floats(row):
    """The float64 values of a schema_version 2 row: `row` must be the standard
    padded base64 of a whole number of little-endian float64; ValueError if not."""
    data = binascii.a2b_base64(row, strict_mode=True)
    if not data or len(data) % 8:
        raise ValueError(f"{len(data)} bytes, not a positive multiple of 8")
    tail = len(data) % 3  # bytes of the last group, the padded one; strict_mode checked the rest
    if tail and binascii.b2a_base64(data[-tail:], newline=False) != row[-4:].encode("ascii"):
        raise ValueError("non-zero bits after the last byte")  # a second spelling of it
    return np.frombuffer(data, "<f8")


_CHUNK = 1 << 16   # bytes read at a time
_SLACK = 64        # a value ending this near the window's end may be cut: scan it again
_BLOCK = 1 << 13   # floats of a field converted to float64 at a time
_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL).match  # a string that closes


class _Unstreamable(ValueError):
    """The streamed walk cannot take this file; one json.loads of it decides."""


class _Window:
    """A forward window of a chart file's text.

    Each refill hashes and decodes the next chunk of bytes and drops the
    text before `pos`, so the window holds what the walk has not passed.
    """

    def __init__(self, fh):
        self.fh, self.hash = fh, hashlib.sha256()
        self.decoder = codecs.getincrementaldecoder("utf-8")()
        self.text, self.pos, self.eof = "", 0, False

    def refill(self):
        """Append the next chunk; False at end of file.  A value longer than the
        chunk doubles the read, so no value is scanned more than ~log times."""
        if self.eof:
            return False
        data = self.fh.read(max(_CHUNK, len(self.text) - self.pos))
        self.hash.update(data)
        self.eof = not data
        self.text = self.text[self.pos:] + self.decoder.decode(data, final=self.eof)
        self.pos = 0
        return True

    def skip(self):
        """Move past whitespace; the next character, or "" at end of file."""
        while True:
            self.pos = _SPACE(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.refill():
                return self.text[self.pos:self.pos + 1]

    def expect(self, char):
        """Move past whitespace and `char`, which must come next."""
        if self.skip() != char:
            raise _Unstreamable(f"no {char!r}")
        self.pos += 1

    def value(self):
        """The JSON value after whitespace, with `pos` moved past it.

        A value that ends within _SLACK characters of the window's end may
        be cut (a number cut to "1.5e" stops short without raising) and is
        scanned again after a refill, as is one that fails there or in a
        string that runs to the end.  Any other error is the file's.
        """
        self.skip()
        while True:
            try:
                value, end = _DECODER.scan_once(self.text, self.pos)
                if self.eof or end <= len(self.text) - _SLACK:
                    self.pos = end
                    return value
            except StopIteration as exc:
                self._cut_at(exc.value)
            except json.JSONDecodeError as exc:
                self._cut_at(exc.pos)
            self.refill()

    def _cut_at(self, pos):
        """Refuse the file unless the window's end may have cut the value that
        failed at `pos`: `pos` lies within _SLACK of the end, or a string
        starts there that does not close before it."""
        text = self.text
        if self.eof or not (pos >= len(text) - _SLACK
                            or text[pos] == '"' and not _STRING(text, pos)):
            raise _Unstreamable("syntax error")


def _block(rows, kind):
    """Rows of a field as a float64 array, if they are equally long: lists of
    numbers (kind 1) or decoded rows (kind 2)."""
    if kind == 1 and _non_numbers(itertools.chain.from_iterable(rows)):
        raise _Unstreamable("not numbers")
    try:
        return np.asarray(rows, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged, or an int beyond float range
        raise _Unstreamable("not a 2-D array of floats") from exc


def _field(win):
    """A field member read one file row at a time: (row kind, float64 array [i, j]).

    Its rows are all lists of numbers (kind 1, schema_version 1) or all
    base64 strings (kind 2), each decoded by _row_floats as it is read.  A
    list row is scanned once its "]" is in the window; a string row ends at
    its closing quote, and value() refills until it closes, so no more than
    one row's text need be in the window.
    """
    win.expect("[")
    kind = 2 if win.skip() == '"' else 1
    blocks, rows, count = [], [], 0
    while True:
        while kind == 1 and win.text.find("]", win.pos, len(win.text) - _SLACK) < 0 \
                and win.refill():
            pass  # the row's end is in the window, so its scan is not cut short
        row = win.value()
        if kind == 2 and isinstance(row, str):
            try:
                row = _row_floats(row)
            except ValueError as exc:
                raise _Unstreamable("not a row") from exc
        elif not (kind == 1 and isinstance(row, list) and row):
            raise _Unstreamable("not a row")
        rows.append(row)
        count += len(row)
        if count >= _BLOCK:
            blocks.append(_block(rows, kind))
            rows, count = [], 0
        sep = win.skip()
        win.pos += 1
        if sep == "]":
            break
        if sep != ",":
            raise _Unstreamable("no ','")
    if rows:
        blocks.append(_block(rows, kind))
    try:
        return kind, np.concatenate(blocks).T  # file stores row index = v
    except ValueError as exc:  # blocks of unequal row lengths
        raise _Unstreamable("rows of unequal length") from exc


def _stream(win):
    """The chart document of the file behind `win`, read forward to its end.

    The walk takes a non-empty top-level object, with json.loads's
    last-wins duplicate keys and NaN and Infinity tokens, whose fields
    are non-empty lists of equally long rows of one kind (see _field); a
    field's rows are gathered in float64 blocks of _BLOCK floats.
    Anything else raises _Unstreamable.
    """
    doc = {}
    win.expect("{")
    while True:
        if win.skip() != '"':
            raise _Unstreamable("no key")
        key = win.value()
        win.expect(":")
        doc[key] = _field(win) if key in _FIELDS else win.value()
        if win.skip() == "}":
            break
        win.expect(",")
    win.pos += 1
    if win.skip():
        raise _Unstreamable("extra data")
    return doc


def read_chart(path):
    """Read, parse and validate a chart file."""
    try:
        return load_chart(path)[0]
    except OSError as exc:
        raise ChartError(f"cannot read chart file {path!r}: {exc}") from exc


def load_chart(path):
    """(chart, digest) of a chart file: the parsed, validated chart and the
    sha256 of the file's bytes.

    The file is read forward in _CHUNK-byte chunks, each hashed and decoded
    as it comes, so the read holds a window of text and one block of a
    field's rows, never the whole file.  A file the walk cannot take (not
    UTF-8, a syntax error, trailing data, a field whose rows are not all
    number lists or all base64 strings of float64 of one length) is read
    again whole and decoded by one json.loads, which gives its chart or
    its error.  OSError from reading is left to the
    caller to name."""
    with open(path, "rb") as fh:
        win = _Window(fh)
        try:
            doc = _stream(win)
        except ValueError:  # _Unstreamable, or UnicodeDecodeError at a chunk's position
            doc = None
    if doc is not None:
        return _parse_chart(doc, path), win.hash.hexdigest()
    with open(path, "rb") as fh:
        data = fh.read()
    digest = digest_bytes(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ChartError(f"chart file {path!r} is not UTF-8 text: {exc}") from exc
    del data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChartError(f"chart file {path!r} is not valid JSON: {exc}") from exc
    return _parse_chart(doc, path), digest


def _parse_chart(doc, path):
    """Validate a decoded chart document; `path` names the file in errors.

    A field is a (row kind, array) pair from the streamed walk, or the rows
    json.loads made; either way its rows must be of the kind its
    schema_version stores, and a version 2 row must hold len(u_grid) floats.
    """
    if not isinstance(doc, dict):
        raise ChartError("chart file must contain a JSON object")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version not in (1, 2):
        raise ChartError(f"unsupported chart schema_version {version!r}")
    missing = [k for k in ("u_grid", "v_grid", "F", "H", "u0_index", "v0_index",
                           "eps1", "eps2") if k not in doc]
    if missing:
        raise ChartError(f"chart file misses required keys: {', '.join(missing)}")

    def grid(key):
        if not isinstance(doc[key], list):
            raise ChartError(f"{key} must be a 1-D array")
        _numbers(key, doc[key])
        return np.asarray(doc[key], dtype=float)

    def length(name, k, n):
        if n != u_grid.size:
            raise ChartError(f"field {name} row {k} holds {n} floats, u_grid {u_grid.size}")

    def decoded(name, k, row):
        try:
            values = _row_floats(row)
        except ValueError as exc:
            raise ChartError(f"field {name} row {k} is not base64 of float64: {exc}") from exc
        length(name, k, values.size)
        return values

    def field(name):
        if name not in doc:
            return None
        rows = doc[name]
        if isinstance(rows, tuple):  # (row kind, array [i, j]) from _field
            kind, arr = rows
        else:
            kind, arr = (version if _is_rows(rows, version) else None), None
        if kind != version:
            raise ChartError(f"field {name} must be {_ROWS[version]}")
        if arr is None and version == 1:
            _numbers(f"field {name}", itertools.chain.from_iterable(rows))
            arr = np.asarray(rows, dtype=float).T  # file stores row index = v
        elif arr is None:
            arr = np.array([decoded(name, k, row) for k, row in enumerate(rows)]).T
        elif version == 2:
            length(name, 0, arr.shape[0])  # _field's rows are equally long
        return arr

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ChartError("metadata must be a JSON object")
    try:
        u_grid = grid("u_grid")
        chart = Chart(
            u_grid=u_grid, v_grid=grid("v_grid"),
            F=field("F"), H=field("H"),
            L=field("L"), M=field("M"), N=field("N"), K=field("K"),
            u0_index=_integer(doc, "u0_index"), v0_index=_integer(doc, "v0_index"),
            eps1=_integer(doc, "eps1"), eps2=_integer(doc, "eps2"), metadata=metadata)
        return chart.validate()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChartError(f"malformed chart file {path!r}: {exc}") from exc


def _finite_or_name(x):
    """x with every non-finite float replaced by "Infinity", "-Infinity" or "NaN"."""
    if isinstance(x, dict):
        return {k: _finite_or_name(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_name(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    return x


def report_json(doc):
    """A report document as strict JSON text; non-finite floats become strings."""
    return json.dumps(_finite_or_name(doc), indent=1, allow_nan=False)


def write_report(doc, path):
    """Write a report document; content is fully deterministic for fixed inputs."""
    _atomic_write(path, (report_json(doc) + "\n",))


def write_mesh_obj(mesh, u_grid, v_grid, path, comments=()):
    """Wavefront OBJ export: grid quads split into two consistently wound
    triangles; vertex order is u-major (index = i * nv + j + 1)."""
    mesh = np.asarray(mesh, dtype=float)
    _atomic_write(path, _obj_chunks(mesh, comments))


def _obj_chunks(mesh, comments):
    nu, nv = mesh.shape[0], mesh.shape[1]
    yield ("# lorsurf mesh export\n"
           "# ambient coordinates (x1, x2, x3) in R^3_1 with <a,b> = -a1*b1 + a2*b2 + a3*b3\n"
           f"# grid nu={nu} nv={nv}, vertex index = i*nv + j + 1 (u-major)\n")
    yield "".join(f"# {c}\n" for c in comments)
    for row in mesh[:, :, :3]:
        yield "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in row.tolist())
    for i in range(nu - 1):
        # the quad at node (i, j) has corners a = i*nv + j + 1, a + nv, a + nv + 1, a + 1
        yield "".join(f"f {a} {a + nv} {a + nv + 1}\nf {a} {a + nv + 1} {a + 1}\n"
                      for a in range(i * nv + 1, (i + 1) * nv))


def write_mesh_csv(mesh, u_grid, v_grid, path):
    """Flat CSV export (u, v, x1, x2, x3), one row per node, u-major."""
    mesh = np.asarray(mesh, dtype=float)
    _atomic_write(path, _csv_chunks(mesh, u_grid, v_grid))


def _csv_chunks(mesh, u_grid, v_grid):
    yield "u,v,x1,x2,x3\n"
    vs = [f"{float(vv)!r}," for vv in v_grid]
    for uu, row in zip(u_grid, mesh[:, :, :3]):
        u = f"{float(uu)!r},"
        yield "".join(f"{u}{v}{x!r},{y!r},{z!r}\n" for v, (x, y, z) in zip(vs, row.tolist()))
