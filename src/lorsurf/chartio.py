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
whatever the locale.  The reader reads each byte of a chart file once,
forward in chunks, hashing and decoding each as it comes, and converts a
field to float64 a row at a time, gathered in blocks of rows: it holds a
window of the text and one block of rows, never the whole file, and it
refuses a malformed file with the message one json.loads would give.
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


class _Window:
    """A forward window of a chart file's text.

    Each refill hashes and decodes the next chunk of bytes and drops the
    text before `pos`, so the window holds what the walk has not passed; it
    counts what it drops, so that fail() names a place in the whole file.
    """

    def __init__(self, fh, path):
        self.fh, self.path, self.hash = fh, path, hashlib.sha256()
        self.decoder = codecs.getincrementaldecoder("utf-8")()
        self.text, self.pos, self.eof = "", 0, False
        # the characters and the newlines dropped, and the place of the last of those
        self.dropped, self.lines, self.newline = 0, 0, -1

    def refill(self):
        """Append the next chunk; False at end of file.  A value longer than the
        chunk doubles the read, so no value is scanned more than ~log times."""
        if self.eof:
            return False
        data = self.fh.read(max(_CHUNK, len(self.text) - self.pos))
        self.hash.update(data)
        self.eof = not data
        self.lines += self.text.count("\n", 0, self.pos)
        last = self.text.rfind("\n", 0, self.pos)
        self.newline = self.dropped + last if last >= 0 else self.newline
        self.dropped += self.pos
        try:
            self.text = self.text[self.pos:] + self.decoder.decode(data, final=self.eof)
        except UnicodeDecodeError as exc:  # in the decoder's buffered bytes + data
            start, end = (self.fh.tell() - len(exc.object) + i for i in (exc.start, exc.end))
            where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end - start == 1
                     else f"bytes in position {start}-{end - 1}")
            raise ChartError(f"chart file {self.path!r} is not UTF-8 text: '{exc.encoding}' "
                             f"codec can't decode {where}: {exc.reason}") from exc
        self.pos = 0
        return True

    def fail(self, msg, pos):
        """Refuse the file with json's `msg` at `pos`, placed in the whole file, once
        the rest is decoded: json.loads refuses bytes that are not UTF-8 first."""
        at, newline = self.dropped + pos, self.text.rfind("\n", 0, pos)
        line = self.lines + self.text.count("\n", 0, pos) + 1
        column = at - (self.dropped + newline if newline >= 0 else self.newline)
        while self.refill():
            self.pos = len(self.text)
        raise ChartError(f"chart file {self.path!r} is not valid JSON: "
                         f"{msg}: line {line} column {column} (char {at})")

    def skip(self):
        """Move past whitespace; the next character, or "" at end of file."""
        while True:
            self.pos = _SPACE(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.refill():
                return self.text[self.pos:self.pos + 1]

    def expect(self, char, msg):
        """Move past whitespace and `char`, which must come next; json's `msg` if not."""
        if self.skip() != char:
            self.fail(msg, self.pos)
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
            except StopIteration as exc:  # json.loads's "Expecting value"
                self._cut_at("Expecting value", exc.value)
            except json.JSONDecodeError as exc:
                self._cut_at(exc.msg, exc.pos)
            self.refill()

    def _cut_at(self, msg, pos):
        """Refuse the file with json's `msg` unless the window's end may have cut
        the value that failed at `pos`: `pos` lies within _SLACK of the end, or
        a string starts there that does not close before it."""
        text = self.text
        if self.eof or not (pos >= len(text) - _SLACK
                            or text[pos] == '"' and not _STRING(text, pos)):
            self.fail(msg, pos)


def _block(rows, kind):
    """Rows of a field as a float64 array: lists of numbers (kind 1) or base64 strings
    (kind 2); ValueError or OverflowError unless equally long rows of float64."""
    if kind == 2:
        rows = [_row_floats(row) for row in rows]
    elif _non_numbers(itertools.chain.from_iterable(rows)):
        raise ValueError("not numbers")
    return np.asarray(rows, dtype=float)  # ragged, or an int beyond float range: the errors


def _stand_ins(blocks, kind):
    """Rows of zeros for the rows of float64 `blocks`, one shared list (kind 1) or
    base64 string (kind 2) per block: _parse_chart refuses a field _field cannot
    take for its kind, row lengths or first bad row, never for the good rows' values."""
    return [row for block in blocks for row in len(block) * [
        [0.0] * block.shape[1] if kind == 1
        else binascii.b2a_base64(bytes(8 * block.shape[1]), newline=False).decode("ascii")]]


def _field(win):
    """A field member read one file row at a time.

    Equally long rows, all lists of numbers (kind 1, schema_version 1) or
    all base64 strings of float64 (kind 2), give (row kind, float64 array
    [i, j]), converted in blocks of _BLOCK floats.  Any other member gives
    json.loads's value, with _stand_ins for the rows converted, for
    _parse_chart to refuse.  A list row is scanned once its "]" is in the
    window; a string row ends at its closing quote, and value() refills
    until it closes, so no more than one row's text need be in the window.
    """
    if win.skip() != "[":
        return win.value()
    win.pos += 1
    kind = 2 if win.skip() == '"' else 1
    blocks, rows, count, end = [], [], 0, win.skip() == "]"
    while not end:
        while kind == 1 and win.text.find("]", win.pos, len(win.text) - _SLACK) < 0 \
                and win.refill():
            pass  # the row's end is in the window, so its scan is not cut short
        row = win.value()
        rows.append(row)
        end = win.skip() == "]"
        if blocks is not None:
            try:
                if not (isinstance(row, str) if kind == 2 else isinstance(row, list) and row):
                    raise ValueError("not a row of this field's kind")
                count += len(row) if kind == 1 else len(row) * 3 // 32  # floats, or about
                if count >= _BLOCK or end:
                    blocks.append(_block(rows, kind))
                    rows, count = [], 0
            except (ValueError, OverflowError):
                blocks, rows = None, _stand_ins(blocks, kind) + rows
        if not end:
            win.expect(",", "Expecting ',' delimiter")
    win.pos += 1
    if blocks is not None:
        try:
            return kind, np.concatenate(blocks).T  # file stores row index = v
        except ValueError:  # blocks of unequal row lengths, or none: the field is []
            rows = _stand_ins(blocks, kind)
    return rows


def _stream(win):
    """The chart document of the file behind `win`, read forward to its end.

    It is json.loads's document, last-wins duplicate keys and NaN and
    Infinity tokens included, but for its fields (see _field); a syntax
    error is refused with json.loads's message.  The one top level that is
    not walked is one that is not an object: it is no chart, and value()
    scans it whole, for _parse_chart to refuse.
    """
    first = win.skip()
    if first == "\ufeff" and not win.dropped + win.pos:
        win.fail("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    if first != "{":
        doc = win.value()
    else:
        doc = {}
        win.pos += 1
        end = win.skip() == "}"
        while not end:
            if win.skip() != '"':
                win.fail("Expecting property name enclosed in double quotes", win.pos)
            key = win.value()
            win.expect(":", "Expecting ':' delimiter")
            doc[key] = _field(win) if key in _FIELDS else win.value()
            end = win.skip() == "}"
            if not end:
                win.expect(",", "Expecting ',' delimiter")
        win.pos += 1
    if win.skip():
        win.fail("Extra data", win.pos)
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

    Every byte is read once, forward, in _CHUNK-byte chunks, each hashed and
    decoded as it comes: the read holds a window of text and one block of a
    field's rows, never the whole file, valid or not.  Every file gets the
    chart or the error of one json.loads of it followed by _parse_chart.
    OSError from reading is left to the caller to name."""
    with open(path, "rb") as fh:
        win = _Window(fh, path)
        doc = _stream(win)
    return _parse_chart(doc, path), win.hash.hexdigest()


def _parse_chart(doc, path):
    """Validate a decoded chart document; `path` names the file in errors.

    A field is a (row kind, array) pair from _field, or the value of a member
    it could not take; either way its rows must be of the kind its
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
