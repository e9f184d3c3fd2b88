import json
import os

import numpy as np
import pytest

import lorsurf as ls
from lorsurf.chartio import write_mesh_csv, write_mesh_obj


def awkward_chart():
    u = np.array([0.1, np.pi / 3, 1.7, np.e, 3.9])
    v = np.array([-2.0, -1.0 / 3.0, 0.77, 2.0])
    U, V = np.meshgrid(u, v, indexing="ij")
    F = 1.0 + np.sin(U) ** 2 + np.exp(-V**2)
    H = np.cos(U * V) / 7.0
    return ls.Chart(u_grid=u, v_grid=v, F=F, H=H, L=F * 0.5, M=F * H, N=np.cos(V) + 2.0,
                    K=np.sin(U + V), u0_index=2, v0_index=1, eps1=1, eps2=-1,
                    metadata={"origin": "test", "note": "awkward floats"}).validate()


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


def test_chart_file_is_row_major_by_v(tmp_path):
    chart = awkward_chart()
    path = tmp_path / "chart.json"
    ls.write_chart(chart, str(path))
    doc = json.loads(path.read_text())
    F = np.asarray(doc["F"])
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
])
def test_malformed_chart_rejected(tmp_path, corrupt):
    chart = awkward_chart()
    path = tmp_path / "chart.json"
    ls.write_chart(chart, str(path))
    doc = json.loads(path.read_text())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises((ls.ChartError, ls.StencilError)):
        ls.read_chart(str(bad))


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
