import contextlib
import inspect
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorsurf as ls
from lorsurf import errors
from lorsurf.cli import main

from conftest import CONE_TU0


def run(*argv):
    return main(list(argv))


def load(path):
    with open(path) as fh:
        return json.load(fh)


def status(doc, name):
    return next(s for s in doc["statuses"] if s["name"] == name)


def check(doc, name):
    return next(c for c in doc["checks"] if c["name"] == name)


# -- corpus ----------------------------------------------------------------------

def test_corpus_list(capsys):
    assert run("corpus", "list") == 0
    out = capsys.readouterr().out.split()
    assert "enneper1" in out and "hyperbolic_cone" in out


def test_corpus_show(capsys):
    assert run("corpus", "show", "cylinder") == 0
    out = capsys.readouterr().out
    assert "F = 2.0" in out and "H = 0.5" in out


def test_corpus_show_unknown():
    assert run("corpus", "show", "klein_bottle") == 2


# -- exit codes ------------------------------------------------------------------

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.LorsurfError)]
CHECK_FAILURES = {errors.NotGeneralTypeError: "not of general type",
                  errors.ReconstructionAbort: "reconstruction aborted"}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_contract(monkeypatch, capsys, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr("lorsurf.cli.cmd_corpus", fail)
    code = run("corpus", "list")
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == (1 if cls in CHECK_FAILURES else 2)
    assert len(lines) == 1
    assert lines[0].startswith(f"lorsurf: {CHECK_FAILURES.get(cls, 'error')}: ")


# -- analyze ---------------------------------------------------------------------

def test_analyze_enneper1(tmp_path):
    rep = tmp_path / "r.json"
    assert run("analyze", "enneper1", "--grid", "41x41", "--report", str(rep)) == 0
    doc = load(str(rep))
    assert doc["summary"]["passed"] is True
    cls = status(doc, "classification")["values"]
    assert cls["kind_at_base"] == "general_first_kind"
    assert cls["H_at_base"] == 0.0
    assert status(doc, "canonical")["values"]["status"] == "pass"


def test_analyze_sphere_reports_not_general_type(tmp_path):
    rep = tmp_path / "r.json"
    assert run("analyze", "lorentz_sphere", "--grid", "31x31", "--report", str(rep)) == 0
    doc = load(str(rep))
    cls = status(doc, "classification")["values"]
    assert cls["count_not_general_type"] == 31 * 31
    assert status(doc, "canonical")["values"]["status"] == "unavailable"


def test_analyze_chart_with_nonpositive_F_exits_2(tmp_path):
    g = np.linspace(0.0, 1.0, 5)
    chart = ls.Chart(u_grid=g, v_grid=g, F=np.ones((5, 5)), H=np.zeros((5, 5)),
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / "c.json"
    ls.write_chart(chart, str(path))
    doc = json.loads(path.read_text())
    doc["F"][2][3] = -0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("analyze", str(bad)) == 2


def test_analyze_rejects_grid_flags_for_chart_files(tmp_path):
    g = np.linspace(0.0, 1.0, 5)
    chart = ls.Chart(u_grid=g, v_grid=g, F=np.ones((5, 5)), H=np.zeros((5, 5)),
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / "c.json"
    ls.write_chart(chart, str(path))
    assert run("analyze", str(path), "--grid", "11x11") == 2


def test_analyze_unknown_source():
    assert run("analyze", "/no/such/file.json") == 2


# -- canonicalize -----------------------------------------------------------------

def test_canonicalize_cone(tmp_path):
    out = tmp_path / "cone.json"
    rep = tmp_path / "rep.json"
    code = run("canonicalize", "hyperbolic_cone", "--grid", "101x101",
               "--u0", "0", "--v0", "0",
               "--tilde-u0", repr(float(CONE_TU0)), "--tilde-v0", repr(float(CONE_TU0)),
               "--output", str(out), "--report", str(rep))
    assert code == 0
    doc = load(str(rep))
    assert check(doc, "canonical")["pass"] is True
    chart = ls.read_chart(str(out))
    assert chart.canonical
    TU, TV = np.meshgrid(chart.u_grid, chart.v_grid, indexing="ij")
    np.testing.assert_allclose(chart.F, TU**3 * TV**3 / 1152.0, rtol=1e-6)


def test_canonicalize_enneper_identity(tmp_path):
    out = tmp_path / "e.json"
    code = run("canonicalize", "enneper1", "--grid", "41x41",
               "--tilde-u0", "1.5", "--tilde-v0", "-0.5",
               "--output", str(out))
    assert code == 0
    chart = ls.read_chart(str(out))
    U, V = np.meshgrid(chart.u_grid, chart.v_grid, indexing="ij")
    np.testing.assert_allclose(chart.F, 0.5 * (U - V) ** 2, atol=1e-9)


def test_canonicalize_sphere_fails(tmp_path):
    assert run("canonicalize", "lorentz_sphere", "--grid", "21x21",
               "--output", str(tmp_path / "s.json")) == 1


# -- residual ---------------------------------------------------------------------

def test_residual_cylinder_general(tmp_path):
    rep = tmp_path / "r.json"
    assert run("residual", "cylinder", "--mode", "general", "--grid", "31x31",
               "--tol", "1e-12", "--report", str(rep)) == 0
    doc = load(str(rep))
    assert check(doc, "residual")["values"]["max_abs"] <= 1e-12


def test_residual_minimal_enneper_with_order(tmp_path):
    rep = tmp_path / "r.json"
    code = run("residual", "enneper1", "--mode", "minimal", "--grid", "101x101",
               "--refine", "2", "--tol", "1e-3", "--report", str(rep))
    assert code == 0
    doc = load(str(rep))
    assert check(doc, "residual")["values"]["max_abs"] <= 1e-3
    assert check(doc, "order")["values"]["order_estimate"] >= 1.9


def test_residual_cmc_degenerate_exits_2(tmp_path):
    # K = 1 with H = 1 has H^2 - K = 0 everywhere
    g = np.linspace(0.0, 1.0, 9)
    chart = ls.Chart(u_grid=g, v_grid=g, F=2.0 / np.cosh(g[:, None] + g[None, :]) ** 2,
                     H=np.ones((9, 9)), K=np.ones((9, 9)),
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / "sphere_like.json"
    ls.write_chart(chart, str(path))
    assert run("residual", str(path), "--mode", "cmc") == 2


def test_residual_minimal_requires_zero_H(tmp_path):
    assert run("residual", "cylinder", "--mode", "minimal", "--grid", "11x11") == 2


def small_chart(H_center=0.0):
    """A 3x3 chart with F = 1 and H zero except at the center node."""
    g = np.linspace(0.0, 1.0, 3)
    H = np.zeros((3, 3))
    H[1, 1] = H_center
    return ls.Chart(u_grid=g, v_grid=g, F=np.ones((3, 3)), H=H,
                    u0_index=0, v0_index=0, eps1=1, eps2=1).validate()


def test_residual_overflow_fails_instead_of_passing(tmp_path):
    # the huge H node overflows the residual and its scale to inf
    path = tmp_path / "huge.json"
    ls.write_chart(small_chart(1e200), str(path))
    rep = tmp_path / "r.json"
    assert run("residual", str(path), "--mode", "general", "--report", str(rep)) == 1
    doc = load(str(rep))
    res = check(doc, "residual")
    assert res["values"]["max_abs"] == float("inf") and res["tolerance"] == float("inf")
    assert res["pass"] is False and doc["summary"]["passed"] is False


def test_analyze_overflow_fails_instead_of_passing(tmp_path):
    # the huge H node overflows the natural residual recorded as a status
    path = tmp_path / "huge.json"
    ls.write_chart(small_chart(1e200), str(path))
    rep = tmp_path / "r.json"
    assert run("analyze", str(path), "--report", str(rep)) == 1
    doc = load(str(rep))
    assert status(doc, "natural_residual")["values"]["max_abs"] == float("inf")
    assert doc["summary"]["passed"] is False


def test_residual_undefined_order_is_null_and_passes_on_exact_data(tmp_path):
    # the cylinder's cmc residual is exactly zero on both grids
    rep = tmp_path / "r.json"
    assert run("residual", "cylinder", "--mode", "cmc", "--grid", "21x21",
               "--refine", "2", "--report", str(rep)) == 0
    order = check(load(str(rep)), "order")
    assert order["values"]["order_estimate"] is None and order["pass"] is True


not_an_integer = st.one_of(
    st.booleans(),
    st.floats().filter(lambda x: not x.is_integer()),
    st.text(max_size=5),
    st.none(),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["u0_index", "v0_index", "eps1", "eps2"]), value=not_an_integer)
def test_cli_refuses_coerced_chart_integers(tmp_path_factory, key, value):
    path = tmp_path_factory.mktemp("coerce") / "c.json"
    ls.write_chart(small_chart(), str(path))
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["residual", str(path), "--mode", "general"])
    lines = [ln for ln in err.getvalue().splitlines() if "wall time" not in ln]
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("lorsurf: error:")
    assert "Traceback" not in err.getvalue()


# -- reconstruct -------------------------------------------------------------------

def test_reconstruct_cylinder(tmp_path):
    rep = tmp_path / "r.json"
    mesh = tmp_path / "cyl"
    code = run("reconstruct", "cylinder", "--grid", "41x41", "--domain", "0:1,0:1",
               "--mesh", str(mesh), "--report", str(rep))
    assert code == 0
    doc = load(str(rep))
    vals = status(doc, "reconstruction")["values"]
    assert vals["natural_warning"] is False
    assert vals["form_mismatch_F_max"] <= 5e-3
    assert (tmp_path / "cyl.obj").exists() and (tmp_path / "cyl.csv").exists()


def test_reconstruct_pair(tmp_path):
    rep = tmp_path / "r.json"
    code = run("reconstruct", "cylinder", "--grid", "41x41", "--domain", "0:1,0:1",
               "--pair", "--mesh", str(tmp_path / "cyl"), "--report", str(rep))
    assert code == 0
    doc = load(str(rep))
    assert status(doc, "reconstruction_p")["values"]["eps1"] == 1
    assert status(doc, "reconstruction_m")["values"]["eps1"] == -1
    assert status(doc, "pair_congruence")["values"]["verdict"] == "not_congruent"
    for suffix in ("_p.obj", "_p.csv", "_m.obj", "_m.csv"):
        assert (tmp_path / ("cyl" + suffix)).exists()


def test_reconstruct_pair_refuses_zero_H(capsys, tmp_path):
    # a minimal surface has no pair: cmc_pair's ValueError must not escape
    code = run("reconstruct", "enneper1", "--grid", "21x21", "--pair",
               "--mesh", str(tmp_path / "p"))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("lorsurf: error:")
    assert "fixed by K" in lines[0]


def test_reconstruct_defective_chart_warns_but_succeeds(tmp_path):
    g = np.linspace(0.0, 1.0, 31)
    chart = ls.Chart(u_grid=g, v_grid=g, F=np.full((31, 31), 2.1),
                     H=np.full((31, 31), 0.5),
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / "defect.json"
    ls.write_chart(chart, str(path))
    rep = tmp_path / "r.json"
    with pytest.warns(UserWarning, match="natural equation"):
        code = run("reconstruct", str(path), "--mesh", str(tmp_path / "d"),
                   "--report", str(rep))
    assert code == 0
    doc = load(str(rep))
    assert doc["summary"]["warning"] is True
    vals = status(doc, "reconstruction")["values"]
    assert np.isclose(vals["natural_residual_max_abs"], 0.1025, atol=1e-12)
    assert vals["max_compat_residual"] >= 1e-3


def test_reconstruct_seed_file(tmp_path):
    seed_doc = {"X": [1.0, 1.0, 0.0], "Y": [-1.0, 1.0, 0.0], "l": [0.0, 0.0, 1.0],
                "x": [0.0, 0.0, 0.0]}
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(seed_doc))
    code = run("reconstruct", "cylinder", "--grid", "21x21", "--domain", "0:1,0:1",
               "--seed", str(seed_path), "--mesh", str(tmp_path / "m"))
    assert code == 0
    bad_seed = tmp_path / "bad_seed.json"
    bad_seed.write_text(json.dumps({"X": [1.0, 0.0, 0.0], "Y": [-1.0, 1.0, 0.0],
                                    "l": [0.0, 0.0, 1.0]}))
    assert run("reconstruct", "cylinder", "--grid", "21x21", "--domain", "0:1,0:1",
               "--seed", str(bad_seed), "--mesh", str(tmp_path / "m2")) == 2


def test_reconstruct_eps_override_selects_pair_member(tmp_path):
    # cylinder data with eps = (-1, -1) rebuilds the hyperbolic member
    code = run("reconstruct", "cylinder", "--grid", "41x41", "--domain", "0:1,0:1",
               "--eps1", "-1", "--eps2", "-1",
               "--mesh", str(tmp_path / "m"), "--report", str(tmp_path / "r.json"))
    assert code == 0
    doc = load(str(tmp_path / "r.json"))
    vals = status(doc, "reconstruction")["values"]
    assert vals["eps1"] == -1 and vals["eps2"] == -1
    mesh = np.array([[float(t) for t in ln.split()[1:]]
                     for ln in (tmp_path / "m.obj").read_text().splitlines()
                     if ln.startswith("v ")]).reshape(41, 41, 3)
    g = np.linspace(0.0, 1.0, 41)
    U, V = np.meshgrid(g, g, indexing="ij")
    rep = ls.congruence_check(mesh, ls.get("hyperbolic_cylinder").position(U, V),
                              g, g, tol=1e-3)
    assert rep.verdict is ls.CongruenceVerdict.CONGRUENT


def test_report_verdicts_recomputable(tmp_path):
    rep = tmp_path / "r.json"
    run("residual", "enneper1", "--mode", "minimal", "--grid", "81x81",
        "--tol", "1e-2", "--report", str(rep))
    doc = load(str(rep))
    for c in doc["checks"]:
        if c["name"] == "residual":
            assert c["pass"] == (c["values"]["max_abs"] <= c["tolerance"])
        if c["name"] == "order":
            assert c["pass"] == (c["values"]["order_estimate"] >= c["tolerance"])
