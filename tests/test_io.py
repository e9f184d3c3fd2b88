import ast
import io
import itertools
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lorsurf as ls
from lorsurf import chartio
from lorsurf.chartio import report_json, write_mesh_csv, write_mesh_obj

from conftest import ROW_REFUSALS, chart_doc, chart_text, row_refusal_text, v2_floats, v2_row

# floats whose shortest repr takes each form: signed zero, the least subnormal,
# exponent notation both ways, an inexact decimal and the largest double
AWKWARD = (-0.0, 5e-324, 1e16, 1e-5, 0.1, 1.7976931348623157e308)


def awkward_chart(note="awkward floats"):
    u = np.array([0.1, np.pi / 3, 1.7, np.e, 3.9])
    v = np.array([-2.0, -1.0 / 3.0, 0.77, 2.0])
    U, V = np.meshgrid(u, v, indexing="ij")
    F = 1.0 + np.sin(U) ** 2 + np.exp(-V**2)
    H = np.cos(U * V) / 7.0
    return ls.Chart(u_grid=u, v_grid=v, F=F, H=H, L=F * 0.5, M=F * H, N=np.cos(V) + 2.0,
                    K=np.sin(U + V), u0_index=2, v0_index=1, eps1=1, eps2=-1,
                    metadata={"origin": "test", "note": note}).validate()


def test_chart_round_trip_bit_exact(tmp_path):
    chart = awkward_chart()
    path = tmp_path / "chart.json"
    ls.write_chart(chart, str(path))
    back = ls.read_chart(str(path))
    for name in ("u_grid", "v_grid", "F", "H", "L", "M", "N", "K"):
        np.testing.assert_array_equal(getattr(back, name), getattr(chart, name))
    assert back.u0_index == 2 and back.v0_index == 1
    assert back.eps1 == 1 and back.eps2 == -1
    assert back.metadata["origin"] == "test"
    # writing the same chart again produces identical bytes
    path2 = tmp_path / "chart2.json"
    ls.write_chart(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()
    # so does a file whose metadata ends with the "canonical" flag that write_chart
    # once added, after the "canonical_check" block of resample_to_canonical
    doc = json.loads(path.read_text())
    doc["metadata"].update(resampled=True, canonical_check={
        "max_dev_L": 2.220446049250313e-16, "max_dev_N": 0.0, "tol": 1e-06, "passed": True},
        canonical=True)
    old = json.dumps(doc, indent=1) + "\n"
    path.write_text(old)
    back = ls.read_chart(str(path))
    assert back.metadata["canonical"] is True and back.metadata["canonical_check"]["passed"]
    ls.write_chart(back, str(path2))
    assert path2.read_text() == old


def test_chart_file_is_row_major_by_v(tmp_path):
    chart = awkward_chart()
    path = tmp_path / "chart.json"
    ls.write_chart(chart, str(path))
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2
    F = np.array([v2_floats(row) for row in doc["F"]])
    assert F.shape == (chart.v_grid.size, chart.u_grid.size)
    np.testing.assert_array_equal(F.T, chart.F)


def test_chart_file_optional_fields_absent(tmp_path):
    u = np.linspace(0.0, 1.0, 4)
    chart = ls.Chart(u_grid=u, v_grid=u, F=np.ones((4, 4)), H=np.zeros((4, 4)),
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / "c.json"
    ls.write_chart(chart, str(path))
    doc = json.loads(path.read_text())
    assert "L" not in doc
    back = ls.read_chart(str(path))
    assert back.L is None and back.K is None


@pytest.mark.parametrize("corrupt", [
    lambda d: d.pop("F"),
    lambda d: d.update(schema_version=99),
    lambda d: d.update(eps1=3),
    lambda d: d.update(u_grid=sorted(d["u_grid"], reverse=True)),
    lambda d: d["F"][0].__setitem__(0, -1.0),
    lambda d: d["F"][0].__setitem__(0, None),
    lambda d: d.update(u0_index=10_000),
    lambda d: d.update(u0_index=1.7),     # int() truncated it to node 1
    lambda d: d.update(v0_index=True),    # int() read it as node 1
    lambda d: d.update(eps1=True),        # int() read it as +1, a valid sign
    lambda d: d.update(eps2="-1"),        # int() parsed the string
    lambda d: d["F"][0].__setitem__(0, True),   # numpy read it as 1.0
    lambda d: d["H"][1].__setitem__(2, "1.5"),  # numpy parsed the string
    lambda d: d["u_grid"].__setitem__(slice(2), ["0.1", True]),  # an increasing grid
    lambda d: d["v_grid"].__setitem__(0, "-2"),         # numpy parsed the string
    lambda d: d.update(schema_version=True),            # True == 1 passed the check
    lambda d: d["F"][0].__setitem__(0, 10**400),        # OverflowError, a traceback
    lambda d: json.dumps(d).encode()[:-1] + b" \xff}",   # UnicodeDecodeError, a traceback
])
def test_malformed_chart_rejected(tmp_path, corrupt):
    doc = chart_doc(awkward_chart(), 1)  # a schema_version 1 file, as users hold them
    raw = corrupt(doc)  # the file's bytes, or None where doc was corrupted in place
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw if isinstance(raw, bytes) else json.dumps(doc).encode())
    with pytest.raises((ls.ChartError, ls.StencilError)):
        ls.read_chart(str(bad))


@pytest.mark.parametrize("name", sorted(ROW_REFUSALS))
def test_malformed_rows_are_refused_in_one_line(tmp_path, name):
    # through the streamed walk at every chunk size, so with the rows already
    # converted to float64 in blocks before the bad one, when there are any
    text, reason = row_refusal_text(name)
    path = tmp_path / "c.json"
    path.write_text(text)
    for sizes in SIZES:
        with pytest.raises(ls.ChartError) as exc:
            streamed_read(str(path), sizes)
        assert reason in str(exc.value) and "\n" not in str(exc.value)


def test_version_1_files_read_to_the_same_bits(tmp_path):
    chart = awkward_chart()
    path = tmp_path / "c.json"
    path.write_text(chart_text(chart, 1))
    back = ls.read_chart(str(path))
    for name in ("u_grid", "v_grid", "F", "H", "L", "M", "N", "K"):
        assert getattr(back, name).tobytes() == getattr(chart, name).tobytes()


def awkward_or(elements):
    return st.one_of(st.sampled_from(AWKWARD), elements)


json_metadata = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8)


@st.composite
def charts(draw):
    """Charts with non-uniform grids, optional L/M/N/K, any base node, floats of
    every repr form and nested, non-ASCII metadata."""
    nu, nv = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    finite = awkward_or(st.floats(allow_nan=False, allow_infinity=False))

    def grid(n):
        elements = awkward_or(st.floats(-1e6, 1e6))
        return np.sort(draw(hnp.arrays(float, n, elements=elements, unique=True)))

    def field(elements=finite):
        return draw(hnp.arrays(float, (nu, nv), elements=elements))

    optional = {name: field() for name in "LMNK" if draw(st.booleans())}
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    return ls.Chart(
        u_grid=grid(nu), v_grid=grid(nv),
        F=field(awkward_or(positive).filter(lambda x: x > 0.0)), H=field(),
        u0_index=draw(st.integers(0, nu - 1)), v0_index=draw(st.integers(0, nv - 1)),
        eps1=draw(st.sampled_from((-1, 1))), eps2=draw(st.sampled_from((-1, 1))),
        metadata=draw(st.dictionaries(st.text(max_size=3), json_metadata, max_size=3)),
        **optional).validate()


@settings(max_examples=80, deadline=None)
@given(chart=charts())
@example(chart=awkward_chart())
def test_streamed_chart_equals_one_json_dumps(tmp_path_factory, chart):
    path = tmp_path_factory.mktemp("chart") / "c.json"
    ls.write_chart(chart, str(path))
    assert path.read_bytes() == chart_text(chart).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(chart=charts())
def test_chart_write_read_write_is_byte_identical(tmp_path_factory, chart):
    # charts() draws -0.0 and the least subnormal among its floats
    d = tmp_path_factory.mktemp("round_trip")
    ls.write_chart(chart, str(d / "a.json"))
    back = ls.read_chart(str(d / "a.json"))
    for name in ("u_grid", "v_grid", "F", "H", "L", "M", "N", "K"):
        a, b = getattr(chart, name), getattr(back, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
    ls.write_chart(back, str(d / "b.json"))
    assert (d / "a.json").read_bytes() == (d / "b.json").read_bytes()


def reference_read_chart(path):
    """The chart reader as one json.loads of the whole file.

    This is the oracle of chartio's reader, which streams the file through a
    window of text: on any file both give the same chart or the same error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ls.ChartError(f"chart file {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ls.ChartError(f"chart file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ls.ChartError("chart file must contain a JSON object")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version not in (1, 2):
        raise ls.ChartError(f"unsupported chart schema_version {version!r}")
    missing = [k for k in ("u_grid", "v_grid", "F", "H", "u0_index", "v0_index",
                           "eps1", "eps2") if k not in doc]
    if missing:
        raise ls.ChartError(f"chart file misses required keys: {', '.join(missing)}")

    def grid(key):
        if not isinstance(doc[key], list):
            raise ls.ChartError(f"{key} must be a 1-D array")
        chartio._numbers(key, doc[key])
        return np.asarray(doc[key], dtype=float)

    def field(name):
        if name not in doc:
            return None
        rows = doc[name]
        row_type = list if version == 1 else str
        if not (isinstance(rows, list) and rows and all(isinstance(r, row_type) for r in rows)):
            raise ls.ChartError(f"field {name} must be " + (
                "a 2-D array" if version == 1 else "a list of base64 row strings"))
        if version == 1:
            chartio._numbers(f"field {name}", itertools.chain.from_iterable(rows))
            return np.asarray(rows, dtype=float).T
        decoded = []
        for k, row in enumerate(rows):
            try:
                values = chartio._row_floats(row)
            except ValueError as exc:
                raise ls.ChartError(f"field {name} row {k} is not base64 of float64: {exc}")
            if values.size != u_grid.size:
                raise ls.ChartError(f"field {name} row {k} holds {values.size} floats, "
                                    f"u_grid {u_grid.size}")
            decoded.append(values)
        return np.array(decoded).T

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ls.ChartError("metadata must be a JSON object")
    try:
        u_grid = grid("u_grid")
        chart = ls.Chart(
            u_grid=u_grid, v_grid=grid("v_grid"),
            F=field("F"), H=field("H"),
            L=field("L"), M=field("M"), N=field("N"), K=field("K"),
            u0_index=chartio._integer(doc, "u0_index"),
            v0_index=chartio._integer(doc, "v0_index"),
            eps1=chartio._integer(doc, "eps1"), eps2=chartio._integer(doc, "eps2"),
            metadata=metadata)
        return chart.validate()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ls.ChartError(f"malformed chart file {path!r}: {exc}") from exc


MUTATIONS = ("none", "truncate", "delete", "insert", "trailing", "duplicate", "shuffle",
             "non_finite", "bad_row", "bom", "top_level", "utf8")

# bytes that are not UTF-8 text, and characters of two to four bytes, whole or cut
UTF8_PIECES = (b"\xff", b"\xc3", "é".encode(), "€".encode(), "€".encode()[:2],
               "😀".encode(), "😀".encode()[:3])


def bad_rows(row, version):
    """Rows that no chart file of `version` may hold in place of `row`."""
    if version == 1:
        return [v2_row(row), row[:-1], row + [1.0], [], row + ["1.5"]]
    values = v2_floats(row).tolist()
    return [values, v2_row(values[:-1]), v2_row(values + [1.0]), "", "*" + row[1:],
            row.rstrip("="), row + "AAAA", row[:4] + " " + row[4:], 1.0]


@st.composite
def chart_files(draw):
    """The bytes of a file of charts() in either schema_version, changed in one of
    the ways a chart file can differ from what write_chart makes."""
    version = draw(st.sampled_from((1, 2)))
    doc = chart_doc(draw(charts()), version)
    kind = draw(st.sampled_from(MUTATIONS))
    members = list(doc.items())
    fields = [k for k in "FHLMNK" if k in doc]
    if kind == "duplicate":  # last wins, also for a field given twice in two shapes
        F = np.array([v2_floats(r) for r in doc["F"]] if version == 2 else doc["F"])
        transposed = [v2_row(r) for r in F.T] if version == 2 else F.T.tolist()
        values = [v for _, v in members] + [transposed, doc["F"][:1]]
        members.insert(draw(st.integers(0, len(members))),
                       (draw(st.sampled_from(list(doc))), draw(st.sampled_from(values))))
    elif kind == "shuffle":
        members = draw(st.permutations(members))
    elif kind in ("non_finite", "bad_row"):
        rows = doc[draw(st.sampled_from(fields))]
        k = draw(st.integers(0, len(rows) - 1))
        if kind == "bad_row":
            rows[k] = draw(st.sampled_from(bad_rows(rows[k], version)))
        else:  # json writes NaN, Infinity and -Infinity as bare tokens
            values = v2_floats(rows[k]).copy() if version == 2 else rows[k]
            values[draw(st.integers(0, len(values) - 1))] = draw(
                st.sampled_from((np.nan, np.inf, -np.inf)))
            rows[k] = v2_row(values) if version == 2 else values
    if kind in ("duplicate", "shuffle", "non_finite"):
        space = draw(st.sampled_from(("", " ", "\n ", " \t\r\n")))
        text = ("{" + space + ("," + space).join(f"{json.dumps(k)}:{space}{json.dumps(v)}"
                                                  for k, v in members) + space + "}")
    else:
        text = json.dumps(doc, indent=1) + "\n"
    data = text.encode()
    if kind == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif kind == "delete":
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + data[i + 1:]
    elif kind == "insert":
        i = draw(st.integers(0, len(data)))
        data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i:]
    elif kind == "trailing":
        data += draw(st.sampled_from((b" x", b"{}", b",", b"]", b" 1", b"\x00", b" \n\t")))
    elif kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "top_level":
        data = draw(st.sampled_from((b"[" + data + b"]", b"[]", b"{}", b" { \n} ", b"",
                                     b" \n\t", b"null")))
    elif kind == "utf8":  # anywhere, a reader's chunk edges included, and maybe after an "x"
        edge = TINY[0] * draw(st.integers(0, len(data) // TINY[0]))
        near_edge = st.integers(max(edge - 3, 0), min(edge + 3, len(data)))
        i = draw(st.integers(0, len(data)) | near_edge)
        data = data[:i] + draw(st.sampled_from(UTF8_PIECES)) + data[i:]
        if draw(st.booleans()):
            k = draw(st.integers(0, i))
            data = data[:k] + b"x" + data[k:]
    return data


def read_outcome(read, path):
    """The chart `read` returns, as the dtype, shape and bytes of each array and
    the repr of every other attribute, or the class and message of its error."""
    try:
        chart = read(path)
    except ls.LorsurfError as exc:
        return type(exc).__name__, str(exc)
    return {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
            for k, v in vars(chart).items()}


AWKWARD_TEXT = chart_text(awkward_chart(), 1)
AWKWARD_OPEN = AWKWARD_TEXT[:-len("\n}\n")]
DOUBLED_F = json.dumps((2.0 * awkward_chart().F).T.tolist())
AWKWARD_V2 = chart_text(awkward_chart())
AWKWARD_V2_OPEN = AWKWARD_V2[:-len("\n}\n")]
FIRST_F_ROW = chart_doc(awkward_chart())["F"][0]
LAST_F_ROW = chart_doc(awkward_chart())["F"][-1]
V1_F_ROW_1 = json.dumps(chart_doc(awkward_chart(), 1)["F"][1])


# the reader's (chunk bytes, block floats) under test: tiny chunks put the
# window's edges inside keys, numbers, NaN and Infinity tokens, rows and
# trailing whitespace, and tiny blocks split every field into many
TINY = (16, 1)
SIZES = (TINY, (256, 7), (chartio._CHUNK, chartio._BLOCK))


def streamed_read(path, sizes):
    """load_chart of `path` with the reader's chunk and block sizes set to `sizes`."""
    chunk, block = sizes
    with mock.patch.object(chartio, "_CHUNK", chunk), \
            mock.patch.object(chartio, "_BLOCK", block):
        return chartio.load_chart(path)


@settings(max_examples=50, deadline=None)
@given(data=chart_files(), sizes=st.sampled_from(SIZES))
@example(data=(AWKWARD_OPEN + ',\n "F": [[1.0, 2.0]]\n}\n').encode(), sizes=TINY)  # F again, 1x2
@example(data=(AWKWARD_OPEN + f',\n "F": {DOUBLED_F}\n}}\n').encode(), sizes=TINY)  # F again
@example(data=('{"F": "no field", ' + AWKWARD_TEXT[1:]).encode(), sizes=TINY)  # bad F overwritten
@example(data=(AWKWARD_OPEN + ',\n "eps1": -1, "eps1": 3}').encode(), sizes=TINY)
@example(data=(AWKWARD_OPEN + ",\n}\n").encode(), sizes=TINY)  # a trailing comma
@example(data=(AWKWARD_TEXT + "x").encode(), sizes=TINY)
@example(data=(AWKWARD_TEXT + "{}").encode(), sizes=TINY)
@example(data=(AWKWARD_TEXT + " \r\n").encode(), sizes=TINY)
@example(data=AWKWARD_V2.encode(), sizes=TINY)  # every base64 row split at chunk edges
@example(data=AWKWARD_V2.replace(FIRST_F_ROW, FIRST_F_ROW[:30] + "*" + FIRST_F_ROW[31:])
         .encode(), sizes=TINY)  # a bad character past the first chunk edge of a row
@example(data=AWKWARD_V2.replace(FIRST_F_ROW, FIRST_F_ROW[:-1]).encode(), sizes=TINY)
@example(data=(AWKWARD_V2_OPEN + f',\n "F": {DOUBLED_F}\n}}\n').encode(), sizes=TINY)
@example(data=(AWKWARD_V2_OPEN + ',\n "schema_version": 1\n}\n').encode(), sizes=TINY)
@example(data=b"\xef\xbb\xbf" + AWKWARD_V2.encode(), sizes=TINY)  # a BOM
@example(data=b"{}", sizes=TINY)
@example(data=b"[1.5, []]", sizes=TINY)  # a top-level list
@example(data=b"null", sizes=TINY)
@example(data=(AWKWARD_V2_OPEN + ',\n "F": []\n}\n').encode(), sizes=TINY)
@example(data=AWKWARD_V2.replace(f'"{LAST_F_ROW}"\n ]', f'"{LAST_F_ROW}",\n ]').encode(),
         sizes=TINY)  # a trailing comma inside a field
@example(data=AWKWARD_TEXT.replace(V1_F_ROW_1, V1_F_ROW_1.split(",")[0] + "]", 1).encode(),
         sizes=TINY)  # one float per block: the field turns ragged in its second block
@example(data=AWKWARD_V2.replace(LAST_F_ROW, "*" + LAST_F_ROW[1:]).encode(),
         sizes=(256, 7))  # a clean first block of two rows, then a bad row
@example(data=(AWKWARD_TEXT[:100] + "x" + AWKWARD_TEXT[100:]).encode() + b" \xff",
         sizes=TINY)  # a syntax error, then a byte that is not UTF-8 chunks later
def test_streamed_reader_equals_one_json_loads(tmp_path_factory, data, sizes):
    path = str(tmp_path_factory.mktemp("read") / "c.json")
    with open(path, "wb") as fh:
        fh.write(data)
    digests = []

    def read(path):
        chart, digest = streamed_read(path, sizes)
        digests.append(digest)
        return chart

    assert read_outcome(read, path) == read_outcome(reference_read_chart, path)
    # the digest covers every byte, the whitespace after the closing brace included
    assert digests in ([], [chartio.digest_bytes(data)])


@settings(max_examples=40, deadline=None)
@given(data=chart_files(), sizes=st.sampled_from(SIZES))
@example(data=chart_text(awkward_chart(note="a string that runs past the window's end " * 4))
         .encode(), sizes=TINY)
@example(data=(AWKWARD_TEXT + " x").encode(), sizes=TINY)
def test_every_chart_file_is_read_once_and_never_whole(tmp_path_factory, data, sizes):
    # valid or not, load_chart reads each byte of the file once and decodes
    # no whole file with json.loads; only bytes that are not UTF-8 end the
    # read early, since the first of them decides the error
    path = str(tmp_path_factory.mktemp("once") / "c.json")
    with open(path, "wb") as fh:
        fh.write(data)
    reads, refusal = [], ""

    class CountingReader(io.BufferedReader):
        def read(self, size=-1):
            reads.append(len(chunk := super().read(size)))
            return chunk

    with mock.patch.object(chartio, "open", create=True,
                           new=lambda file, mode: CountingReader(io.FileIO(file, mode))), \
            mock.patch.object(chartio.json, "loads", side_effect=AssertionError("json.loads")):
        try:
            streamed_read(path, sizes)
        except ls.LorsurfError as exc:
            refusal = str(exc)
    assert sum(reads) == len(data) or "not UTF-8" in refusal and sum(reads) < len(data)


def test_chart_integral_float_index_is_accepted(tmp_path):
    path = tmp_path / "chart.json"
    ls.write_chart(awkward_chart(), str(path))
    doc = json.loads(path.read_text())
    doc["u0_index"] = 2.0
    path.write_text(json.dumps(doc))
    assert ls.read_chart(str(path)).u0_index == 2


def test_chart_not_json(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("not json {")
    with pytest.raises(ls.ChartError):
        ls.read_chart(str(bad))


def test_mesh_exports(tmp_path):
    g = np.linspace(0.0, 1.0, 5)
    U, V = np.meshgrid(g, g, indexing="ij")
    mesh = ls.get("cylinder").position(U, V)
    obj = tmp_path / "m.obj"
    csv = tmp_path / "m.csv"
    write_mesh_obj(mesh, g, g, str(obj), comments=["test export"])
    write_mesh_csv(mesh, g, g, str(csv))

    lines = obj.read_text().splitlines()
    vlines = [ln for ln in lines if ln.startswith("v ")]
    flines = [ln for ln in lines if ln.startswith("f ")]
    assert len(vlines) == 25
    assert len(flines) == 2 * 16
    assert any("-a1*b1 + a2*b2 + a3*b3" in ln for ln in lines if ln.startswith("#"))
    # vertices parse back bit-exactly (shortest round-trip reprs)
    verts = np.array([[float(t) for t in ln.split()[1:]] for ln in vlines])
    np.testing.assert_array_equal(verts, mesh.reshape(-1, 3))
    # face indices stay in range and wind consistently
    idx = np.array([[int(t) for t in ln.split()[1:]] for ln in flines])
    assert idx.min() == 1 and idx.max() == 25

    rows = csv.read_text().splitlines()
    assert rows[0] == "u,v,x1,x2,x3"
    assert len(rows) == 1 + 25
    parsed = np.array([[float(t) for t in r.split(",")] for r in rows[1:]])
    np.testing.assert_array_equal(parsed[:, 2:], mesh.reshape(-1, 3))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    chart = awkward_chart()
    ls.write_chart(chart, str(tmp_path / "c.json"))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")]
    assert leftovers == []


def test_report_json_is_strict_and_keeps_finite_reports_byte_identical():
    doc = {"values": {"max_abs": float("inf"), "low": -float("inf"), "l2": float("nan"),
                      "order": None, "pair": (1.5, 2)}, "pass": False}
    text = report_json(doc)
    back = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in report"))
    assert back["values"] == {"max_abs": "Infinity", "low": "-Infinity", "l2": "NaN",
                              "order": None, "pair": [1.5, 2]}
    finite = {"checks": [{"values": {"x": 0.1, "n": [1, 2.5e-300]}, "pass": True}]}
    assert report_json(finite) == json.dumps(finite, indent=1)


def reference_obj_text(mesh, comments):
    """The OBJ file from one f-string per node and per face."""
    nu, nv = mesh.shape[0], mesh.shape[1]
    lines = [
        "# lorsurf mesh export",
        "# ambient coordinates (x1, x2, x3) in R^3_1 with <a,b> = -a1*b1 + a2*b2 + a3*b3",
        f"# grid nu={nu} nv={nv}, vertex index = i*nv + j + 1 (u-major)",
    ]
    lines.extend(f"# {c}" for c in comments)
    for i in range(nu):
        for j in range(nv):
            p = mesh[i, j]
            lines.append(f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            c = (i + 1) * nv + j + 2
            d = i * nv + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


def reference_csv_text(mesh, u_grid, v_grid):
    """The CSV file from one f-string per node."""
    lines = ["u,v,x1,x2,x3"]
    for i, uu in enumerate(u_grid):
        for j, vv in enumerate(v_grid):
            p = mesh[i, j]
            lines.append(f"{float(uu)!r},{float(vv)!r},"
                         f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    return "\n".join(lines) + "\n"


@st.composite
def meshes(draw):
    """Meshes with nu != nv allowed, non-finite coordinates and any grid values."""
    nu, nv = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    anything = awkward_or(st.floats())
    mesh = draw(hnp.arrays(float, (nu, nv, 3), elements=anything))
    u_grid = draw(hnp.arrays(float, nu, elements=anything))
    v_grid = draw(hnp.arrays(float, nv, elements=anything))
    return mesh, u_grid, v_grid


NON_FINITE_2X2 = np.array([[[np.nan, -np.inf, 0.1], [np.inf, -0.0, 5e-324]],
                           [[1e16, 1e-5, 1.7976931348623157e308], [1.0, 2.0, 3.0]]])


@settings(max_examples=80, deadline=None)
@given(data=meshes(), comments=st.lists(st.text(max_size=5), max_size=3))
@example(data=(NON_FINITE_2X2, np.array([0.0, 1.0]), np.array([-0.0, 0.1])), comments=["grüße"])
def test_streamed_meshes_equal_per_node_formatting(tmp_path_factory, data, comments):
    mesh, u_grid, v_grid = data
    d = tmp_path_factory.mktemp("mesh")
    write_mesh_obj(mesh, u_grid, v_grid, str(d / "m.obj"), comments=comments)
    write_mesh_csv(mesh, u_grid, v_grid, str(d / "m.csv"))
    assert (d / "m.obj").read_bytes() == reference_obj_text(mesh, comments).encode("utf-8")
    assert (d / "m.csv").read_bytes() == reference_csv_text(mesh, u_grid, v_grid).encode()


def _peak_bytes(call, *args, **kwargs):
    """The tracemalloc peak of call(*args, **kwargs) above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def grid_201():
    """A six-field chart and a mesh on one 201^2 grid; their files are 2.7-5.3 MB."""
    g = np.linspace(0.5, 1.5, 201)
    U, V = np.meshgrid(g, g, indexing="ij")
    F = np.exp(U - V)
    chart = ls.Chart(u_grid=g, v_grid=g, F=F, H=np.sin(U * V), L=F / 3.0, M=np.cos(U),
                     N=V / 7.0, K=U * V, u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    mesh = np.stack([np.sinh(U), np.cosh(V) / 3.0, U * V], axis=-1)
    return g, chart, mesh


@pytest.fixture(scope="module")
def v1_text_201(grid_201):
    """grid_201's chart as a schema_version 1 file (5.3 MB), as earlier versions wrote it."""
    return chart_text(grid_201[1], 1)


def test_writers_hold_no_whole_file_in_memory(tmp_path, grid_201):
    # one streamed grid row is ~20 kB
    g, chart, mesh = grid_201
    for path, write, args in (("c.json", ls.write_chart, (chart,)),
                              ("m.obj", write_mesh_obj, (mesh, g, g)),
                              ("m.csv", write_mesh_csv, (mesh, g, g))):
        target = str(tmp_path / path)
        peak = _peak_bytes(write, *args, target)
        assert peak < os.path.getsize(target) / 4, (path, peak, os.path.getsize(target))


def test_reader_holds_a_window_and_one_block_of_rows(tmp_path, v1_text_201):
    # A schema_version 1 file, as earlier versions wrote it.  The six float64
    # arrays are 0.36x this file; the streamed read adds a window of a few
    # 64 KiB chunks and one block of ~8k boxed floats, and peaks at ~0.48x.  A
    # reader holding the file's bytes or its decoded text whole peaks at >= 2x;
    # 1 MiB chunks give ~1.1x.
    path = str(tmp_path / "c.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(v1_text_201)
    peak = _peak_bytes(ls.read_chart, path)
    assert peak <= 0.75 * os.path.getsize(path), (peak, os.path.getsize(path))


def test_reader_of_base64_rows_holds_little_beyond_its_arrays(tmp_path, grid_201):
    # A schema_version 2 file is ~0.75x the bytes of its six float64 arrays,
    # so its bound is stated against the arrays (6 nu nv 8 bytes), not the
    # file.  The streamed read peaks at ~1.21x of them: the arrays, the last
    # field's blocks beside the array they are joined into (1/6) and the
    # window.  A reader that held the file's bytes whole would add >= 0.75x.
    _, chart, _ = grid_201
    path = str(tmp_path / "c.json")
    ls.write_chart(chart, path)
    arrays = 6 * chart.u_grid.size * chart.v_grid.size * 8
    peak = _peak_bytes(ls.read_chart, path)
    assert peak <= 1.5 * arrays, (peak, arrays)


def test_a_malformed_chart_is_refused_within_the_peak_of_reading_a_valid_one(
        tmp_path, grid_201, v1_text_201):
    # Each malformed file is set against a valid one of the same version that
    # shares its bytes up to the fault (two spaces for the two appended bytes,
    # so that both windows are as long): the refusal holds the fields read
    # before it and stand-in rows, never the file.  Measured, refusal peak over
    # valid peak: 1.000 appended, 0.944 "*" (version 2); 1.000 "x" (version 1).
    # The reader that decoded a malformed file whole peaked at 2.2, 3.1 and 6.0.
    # One KiB allows for the drift of peaks between identical calls (~16 bytes).
    _, chart, _ = grid_201
    v2, v1 = chart_text(chart).encode() + b"  ", v1_text_201.encode()
    quote = v2.rindex(b'"', 0, v2.rindex(b"]"))  # the end of the last row of K
    row_end = v1.rindex(b"]", 0, v1.rindex(b"]"))
    last = v1.rindex(b",", 0, row_end) + 1  # the last number of that row
    files = {"v2": v2, "v1": v1, "v2 x": v2[:-2] + b" x",
             "v2 *": v2[:quote - 20] + b"*" + v2[quote - 19:],
             "v1 x": v1[:last] + b' "x"' + v1[row_end:]}
    outcomes = []

    def read(path):
        try:
            ls.read_chart(path)
            outcomes.append("read")
        except ls.ChartError:
            outcomes.append("refused")

    peaks = {}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        peaks[name] = _peak_bytes(read, str(path))
    assert outcomes == ["read"] * 2 + ["refused"] * 3
    for name in ("v2 x", "v2 *", "v1 x"):
        assert peaks[name] <= peaks[name[:2]] + 1024, (name, peaks[name] / peaks[name[:2]])


def test_a_write_failing_mid_stream_leaves_the_target_untouched(tmp_path):
    target = tmp_path / "c.json"
    ls.write_chart(awkward_chart(), str(target))
    before = target.read_bytes()

    def chunks():
        yield "partial text\n" * 1000
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        chartio._atomic_write(str(target), chunks())
    assert target.read_bytes() == before
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")] == []


WRITING_CALLS = {"mkstemp", "NamedTemporaryFile", "TemporaryFile", "write_text", "write_bytes"}


def _opens_for_writing(call):
    """Whether an ast.Call creates a file or opens one with a writing mode."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in WRITING_CALLS or (name == "open" and isinstance(func, ast.Attribute)
                                 and getattr(func.value, "id", None) == "os"):
        return True
    if name not in ("open", "fdopen"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_only_atomic_write_opens_files_for_writing():
    with open(chartio.__file__) as fh:
        tree = ast.parse(fh.read())
    writers = sorted({f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                      for node in ast.walk(f)
                      if isinstance(node, ast.Call) and _opens_for_writing(node)})
    assert writers == ["_atomic_write"]
