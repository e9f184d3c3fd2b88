import builtins
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lorsurf as ls
from lorsurf import cli, errors
from lorsurf.cli import main

from conftest import (CONE_TU0, ROW_REFUSALS, chart_doc, cone_canonical_chart, enneper1_chart,
                      random_grid, row_refusal_text)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(*argv):
    return main(list(argv))


def refused(capsys, *argv):
    """The exit code and stderr lines of a run, argparse's refusals included, less the
    wall time."""
    try:
        code = run(*argv)
    except SystemExit as exc:
        code = exc.code
    return code, [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]


def load(path):
    with open(path) as fh:
        return json.load(fh)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def load_strict(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_refuse_constant)


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


def test_corpus_show_unknown(capsys):
    assert run("corpus", "show", "klein_bottle") == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert lines == [f"lorsurf: error: unknown surface 'klein_bottle'; "
                     f"available: {', '.join(ls.names())}"]


# -- exit codes ------------------------------------------------------------------

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.LorsurfError)]
CHECK_FAILURES = {errors.NotGeneralTypeError: "not of general type",
                  errors.NaturalEquationError: "natural equation violated",
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
    doc = chart_doc(chart, 1)
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


def test_analyze_beside_the_singular_set_passes_without_warnings(capsys):
    # K reaches ~4e4 next to the singular line u = v, and the base node lies on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("analyze", "enneper1", "--domain", "0:1,0:1", "--grid", "11x11")
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    ref = check(doc, "reference_match")
    assert code == 0 and ref["pass"] is True
    assert max(ref["values"].values()) <= ref["tolerance"]
    cls = status(doc, "classification")["values"]
    assert cls["kind_at_base"] == "unavailable" and cls["K_at_base"] is None
    assert cls["excluded_singular_nodes"] == 11


def test_analyze_evaluates_the_corpus_jets_once(monkeypatch, tmp_path):
    provider = ls.get("enneper1").provider
    jet, sizes = provider.jet, []

    def counting_jet(u, v):
        sizes.append(np.size(u))
        return jet(u, v)

    monkeypatch.setattr(provider, "jet", counting_jet)
    assert run("analyze", "enneper1", "--grid", "21x21", "--report", str(tmp_path / "r.json")) == 0
    assert sizes == [21 * 21]


def test_analyze_fails_a_wrong_reference_field(monkeypatch, tmp_path):
    entry = ls.get("enneper1")
    K = entry.reference.K
    monkeypatch.setattr(entry, "reference",
                        dataclasses.replace(entry.reference, K=lambda u, v: K(u, v) * (1 + 1e-6)))
    rep = tmp_path / "r.json"
    assert run("analyze", "enneper1", "--grid", "21x21", "--report", str(rep)) == 1
    ref = check(load_strict(str(rep)), "reference_match")
    assert ref["pass"] is False and ref["values"]["K"] > ref["tolerance"]
    assert max(v for name, v in ref["values"].items() if name != "K") <= ref["tolerance"]


def test_analyze_names_a_forms_error_at_its_full_grid_node(monkeypatch, capsys):
    # the forms run on the regular nodes only: with the singular diagonal u = v
    # masked, regular node (5, 7) is not the flat index 5 * 11 + 7 among them
    provider = ls.get("enneper1").provider
    jet, g = provider.jet, np.linspace(0.0, 1.0, 11)

    def degenerate_jet(u, v):
        j = jet(u, v)
        k = np.flatnonzero((u == g[5]) & (v == g[7]))
        j.x_v[k] = j.x_u[k]  # parallel tangents: EG - F^2 = 0 exactly
        return j

    monkeypatch.setattr(provider, "jet", degenerate_jet)
    code = run("analyze", "enneper1", "--domain", "0:1,0:1", "--grid", "11x11")
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert lines == ["lorsurf: error: EG - F^2 vanishes at grid node "
                     f"{errors.node_at(g, g, 5, 7)}"]


def test_analyze_unknown_source():
    assert run("analyze", "/no/such/file.json") == 2


def test_analyze_corpus_mesh_export_is_the_surface_position(tmp_path):
    assert run("analyze", "cylinder", "--grid", "7x5", "--mesh", str(tmp_path / "P"),
               "--report", str(tmp_path / "r.json")) == 0
    entry = ls.get("cylinder")
    dom = entry.default_domain
    u, v = np.linspace(dom[0], dom[1], 7), np.linspace(dom[2], dom[3], 5)
    mesh = entry.position(*np.meshgrid(u, v, indexing="ij"))
    ls.write_mesh_obj(mesh, u, v, str(tmp_path / "Q.obj"), comments=["source corpus:cylinder"])
    ls.write_mesh_csv(mesh, u, v, str(tmp_path / "Q.csv"))
    for ext in ("obj", "csv"):
        assert (tmp_path / f"P.{ext}").read_bytes() == (tmp_path / f"Q.{ext}").read_bytes()


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
    assert ls.verify_canonical(chart).passed
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


def test_canonicalize_reads_a_corpus_surface_as_its_reference_chart(tmp_path):
    # one path: the corpus source and its reference chart written to a file give
    # the same canonical chart, byte for byte, and it names its source; so does
    # that chart in an older file format, whose stale claim it does not inherit
    u, v = np.linspace(-1.0, 1.0, 21), np.linspace(-0.5, 1.0, 31)
    raw = ls.reference_chart("hyperbolic_cone", u, v, u[7], v[20])
    ls.write_chart(raw, str(tmp_path / "src.json"))
    raw.metadata["canonical"] = False  # the flag that older chart files end with
    ls.write_chart(raw, str(tmp_path / "old.json"))
    assert run("canonicalize", "hyperbolic_cone", "--grid", "21x31", "--domain=-1:1,-0.5:1",
               "--u0", repr(float(u[7])), "--v0", repr(float(v[20])),
               "--output", str(tmp_path / "a.json"), "--report", str(tmp_path / "ra.json")) == 0
    for source in ("src", "old"):
        assert run("canonicalize", str(tmp_path / f"{source}.json"),
                   "--output", str(tmp_path / "b.json"),
                   "--report", str(tmp_path / "rb.json")) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert check(load(str(tmp_path / "rb.json")), "canonical")["pass"] is True
    meta = ls.read_chart(str(tmp_path / "b.json")).metadata
    assert meta["source"] == "hyperbolic_cone"
    assert "canonical" not in meta and "canonical_check" not in meta


@pytest.mark.parametrize("argv", [["canonicalize", "--output", "{tmp}/c.json"],
                                  ["residual", "--mode", "general"],
                                  ["reconstruct", "--mesh", "{tmp}/m"],
                                  ["analyze"]],
                         ids=lambda argv: argv[0])
def test_a_corpus_grid_outside_the_surface_domain_exits_2(capsys, tmp_path, argv):
    # the reference chart keeps the provider's domain, as the provider chart did;
    # analyze checks the domain box on every node before it evaluates the jets
    command, *flags = (a.format(tmp=tmp_path) for a in argv)
    code = run(command, "hyperbolic_cone", "--grid", "21x21", "--domain", "0:60,0:1", *flags)
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert lines == ["lorsurf: error: evaluation outside domain (-50.0, 50.0, -50.0, 50.0) "
                     "at node (17, 0), (u, v) = (51.0, 0.0)"]
    assert list(tmp_path.iterdir()) == []


def test_canonicalize_sphere_fails(tmp_path):
    assert run("canonicalize", "lorentz_sphere", "--grid", "21x21",
               "--output", str(tmp_path / "s.json")) == 1


# -- residual ---------------------------------------------------------------------

def test_residual_cylinder_general(tmp_path):
    rep = tmp_path / "r.json"
    assert run("residual", "cylinder", "--mode", "general", "--grid", "31x31",
               "--report", str(rep)) == 0
    doc = load(str(rep))
    assert check(doc, "residual")["values"]["max_abs"] <= 1e-12


def test_residual_minimal_enneper_with_order(tmp_path):
    rep = tmp_path / "r.json"
    code = run("residual", "enneper1", "--mode", "minimal", "--grid", "101x101",
               "--refine", "2", "--report", str(rep))
    assert code == 0
    doc = load(str(rep))
    assert check(doc, "residual")["values"]["max_abs"] <= 1e-3
    assert check(doc, "order")["values"]["order_estimate"] >= 1.9


def test_residual_sign_override_holds_on_the_refined_grid(tmp_path):
    # with eps1 = -1 enneper1 violates the natural equation on both grids by ~2,
    # so the two-grid order is ~0; an unsigned fine grid gave a passing ~41.7
    rep = tmp_path / "r.json"
    assert run("residual", "enneper1", "--grid", "21x21", "--mode", "general", "--eps1", "-1",
               "--refine", "2", "--report", str(rep)) == 1
    doc = load(str(rep))
    assert check(doc, "residual")["values"]["max_abs"] == pytest.approx(2.0)
    order = check(doc, "order")
    assert order["pass"] is False and abs(order["values"]["order_estimate"]) < 0.1


def _enneper1_file(tmp_path, name, nu, nv, domain=(1.0, 2.0, -1.0, 0.0), **fields):
    u, v = np.linspace(*domain[:2], nu), np.linspace(*domain[2:], nv)
    path = str(tmp_path / name)
    ls.write_chart(ls.reference_chart("enneper1", u, v).with_fields(**fields), path)
    return path


def test_residual_refined_true_refinement_keeps_its_order(tmp_path):
    coarse = _enneper1_file(tmp_path, "c.json", 21, 21)
    fine = _enneper1_file(tmp_path, "f.json", 41, 41)
    rep = tmp_path / "r.json"
    assert run("residual", coarse, "--mode", "minimal", "--refined", fine,
               "--report", str(rep)) == 1
    # factor 2; 21^2 is still pre-asymptotic for the >= 1.9 gate
    c, f = (ls.minimal_residual(ch.K, ch.u_grid, ch.v_grid).max_abs
            for ch in map(ls.read_chart, (coarse, fine)))
    order = check(load(str(rep)), "order")
    assert order["values"]["order_estimate"] == ls.convergence_order(c, f, 2.0)
    assert order["values"]["order_estimate"] == pytest.approx(1.603, abs=1e-3)
    assert order["pass"] is False


@pytest.mark.parametrize("fine, what", [
    (dict(nu=41, nv=41, domain=(1.1, 2.1, -1.0, 0.0)), "domain ends [1.1, 2.1, -1.0, 0.0]"),
    (dict(nu=41, nv=81), "41x81 nodes"),
    (dict(nu=41, nv=41, u0_index=22), "base point (u0, v0) [1.55, -0.5]"),
    (dict(nu=41, nv=41, eps1=-1), "signs (eps1, eps2) [-1, 1]"),
], ids=["shifted_domain", "two_factors", "moved_base", "other_signs"])
def test_residual_refined_must_refine_the_source_chart(capsys, tmp_path, fine, what):
    coarse = _enneper1_file(tmp_path, "c.json", 21, 21)
    refined = _enneper1_file(tmp_path, "f.json", **fine)
    code = run("residual", coarse, "--mode", "minimal", "--refined", refined,
               "--report", str(tmp_path / "r.json"))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith(f"lorsurf: error: --refined chart has {what}")
    assert not (tmp_path / "r.json").exists()


def test_residual_refined_base_point_is_a_node_of_its_own_span(capsys, tmp_path):
    # on a u span of 0.01 a base point 3e-10 off is 3e-8 of the span: another node
    domain = (1.0, 1.01, -1.0, -0.99)
    coarse = _enneper1_file(tmp_path, "c.json", 21, 21, domain)
    u, v = np.linspace(*domain[:2], 41), np.linspace(*domain[2:], 41)
    u[20] += 3e-10
    refined = str(tmp_path / "f.json")
    ls.write_chart(ls.reference_chart("enneper1", u, v), refined)
    code = run("residual", coarse, "--mode", "minimal", "--refined", refined)
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith("lorsurf: error: --refined chart has base point (u0, v0) "
                               "[1.0050000003, -0.995]")


def test_residual_refined_signs_are_compared_after_the_override(tmp_path):
    coarse = _enneper1_file(tmp_path, "c.json", 21, 21)
    refined = _enneper1_file(tmp_path, "f.json", 41, 41, eps1=-1)
    rep = tmp_path / "r.json"
    assert run("residual", coarse, "--mode", "minimal", "--refined", refined, "--eps1", "-1",
               "--report", str(rep)) == 1
    assert check(load(str(rep)), "order")["values"]["order_estimate"] == pytest.approx(
        1.603, abs=1e-3)


def test_residual_inputs_name_the_refinement(tmp_path):
    # --refine 2 and 3 estimate different orders, so their reports differ in their inputs
    inputs = {}
    for refine in (None, 2, 3):
        rep = tmp_path / f"r{refine}.json"
        flags = ["--refine", str(refine)] if refine else []
        run("residual", "enneper1", "--grid", "21x21", "--mode", "minimal", *flags,
            "--report", str(rep))
        inputs[refine] = load(str(rep))["inputs"]
    assert "refine" not in inputs[None]
    assert inputs[2] == dict(inputs[None], refine=2) and inputs[3] == dict(inputs[None], refine=3)


def test_residual_inputs_record_the_refined_file_read_once(monkeypatch, tmp_path):
    coarse = _enneper1_file(tmp_path, "c.json", 21, 21)
    fine = _enneper1_file(tmp_path, "f.json", 41, 41)
    with open(fine, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == fine:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    rep = tmp_path / "r.json"
    assert run("residual", coarse, "--mode", "minimal", "--refined", fine,
               "--report", str(rep)) == 1
    inputs = load(str(rep))["inputs"]
    assert inputs["refined"] == fine and inputs["refined_digest"] == digest
    assert "refine" not in inputs and len(opened) == 1


@pytest.mark.parametrize("argv", [["residual", "--mode", "cmc"],
                                  ["reconstruct", "--pair", "--mesh", "{tmp}/p"]],
                         ids=["residual_cmc", "reconstruct_pair"])
def test_a_vanishing_H2_minus_K_is_not_of_general_type(capsys, tmp_path, argv):
    # F = H = K = 1 has H^2 - K = 0 everywhere, as the Lorentz sphere has
    g = np.linspace(0.0, 1.0, 9)
    ones = np.ones((9, 9))
    chart = ls.Chart(u_grid=g, v_grid=g, F=ones, H=ones, K=ones,
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / "sphere_like.json"
    ls.write_chart(chart, str(path))
    command, *flags = (a.format(tmp=tmp_path) for a in argv)
    code = run(command, str(path), *flags)
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 1
    assert lines == ["lorsurf: not of general type: |H^2 - K| vanishes at node (0, 0), "
                     "(u, v) = (0.0, 0.0)"]
    assert list(tmp_path.iterdir()) == [path]


def test_residual_minimal_requires_zero_H(tmp_path):
    assert run("residual", "cylinder", "--mode", "minimal", "--grid", "11x11") == 2


@settings(max_examples=10, deadline=None)
@given(cone=st.booleans(), i=st.integers(0, 39), j=st.integers(0, 39),
       amplitude=st.floats(10.0, 100.0), sign=st.sampled_from([1.0, -1.0]),
       width=st.floats(2.0, 4.0))
def test_a_bump_in_H_fails_residual_and_turns_the_warning_on(tmp_path_factory, cone, i, j,
                                                             amplitude, sign, width):
    # the natural-equation gate is sound: a canonical chart passes it, and a smooth
    # bump in H of amplitude >= 10 REL_TOL * scale at any node makes residual fail
    # and reconstruct warn; on both charts the CLI's reconstruct and analyze exit 1
    # exactly when residual --mode general does
    chart = cone_canonical_chart(41) if cone else enneper1_chart(41)
    out = tmp_path_factory.mktemp("bump")
    path = out / "c.json"
    ls.write_chart(chart, str(path))

    def same_verdicts():
        code = run("residual", str(path), "--mode", "general")
        assert run("reconstruct", str(path), "--mesh", str(out / "m")) == code
        assert run("analyze", str(path)) == code
        return code

    assert same_verdicts() == 0
    u, v = chart.u_grid, chart.v_grid
    U, V = np.meshgrid(u - u[i], v - v[j], indexing="ij")
    w = width * (u[1] - u[0])
    bump = sign * amplitude * ls.REL_TOL * ls.natural_residual(chart).scale \
        * np.exp(-(U**2 + V**2) / (2.0 * w * w))
    bumped = chart.with_fields(H=chart.H + bump).validate()
    ls.write_chart(bumped, str(path))
    assert same_verdicts() == 1
    with pytest.warns(UserWarning, match="violates the natural equation"):
        assert ls.reconstruct(bumped).natural_warning


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
    doc = load_strict(str(rep))
    res = check(doc, "residual")
    assert res["values"]["max_abs"] == "Infinity" and res["tolerance"] == "Infinity"
    assert res["pass"] is False and doc["summary"]["passed"] is False


def test_analyze_overflow_fails_instead_of_passing(tmp_path):
    # the huge H node overflows the natural residual, recorded as a check and a status
    path = tmp_path / "huge.json"
    ls.write_chart(small_chart(1e200), str(path))
    rep = tmp_path / "r.json"
    assert run("analyze", str(path), "--report", str(rep)) == 1
    doc = load_strict(str(rep))
    assert status(doc, "natural_residual")["values"]["max_abs"] == "Infinity"
    assert doc["summary"]["passed"] is False


# -- one pass rule, one report writer ---------------------------------------------

def test_canonicalize_infinite_tolerance_fails(monkeypatch, tmp_path):
    # no verdict passes on a non-finite tolerance, and the summary follows the check
    monkeypatch.setattr("lorsurf.canonical.CANONICAL_TOL", math.inf)
    rep = tmp_path / "r.json"
    assert run("canonicalize", "hyperbolic_cone", "--grid", "11x11",
               "--output", str(tmp_path / "c.json"), "--report", str(rep)) == 1
    doc = load_strict(str(rep))
    assert doc["effective_tolerances"] == {"tol_canonical": "Infinity"}
    assert check(doc, "canonical")["pass"] is False and doc["summary"]["passed"] is False
    for tol in (math.inf, -math.inf, math.nan):  # whatever the verdict given to _check
        assert cli._check("c", {"x": 0.0}, tol, True)["pass"] is False


def huge_F_chart():
    """A finite 9x9 chart, F = 1e300 (1 + u)(1 + v) / 4 and H = 0, whose
    reconstruction diagnostics overflow."""
    g = np.linspace(0.0, 1.0, 9)
    U, V = np.meshgrid(g, g, indexing="ij")
    return ls.Chart(u_grid=g, v_grid=g, F=1e300 * (1 + U) * (1 + V) / 4, H=np.zeros((9, 9)),
                    u0_index=4, v0_index=4, eps1=1, eps2=1).validate()


def test_reconstruct_non_finite_diagnostics_fail_without_runtime_warnings(capsys, tmp_path):
    path = tmp_path / "huge.json"
    ls.write_chart(huge_F_chart(), str(path))
    rep = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("reconstruct", str(path), "--mesh", str(tmp_path / "m"),
                   "--report", str(rep))
    assert code == 1 and caught == []
    assert [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln] == [
        "lorsurf: warning: chart violates the natural equation (max residual nan, scale 1); "
        "reconstruction diagnostics will reflect this"]
    doc = load_strict(str(rep))
    assert doc["checks"] == [{"name": "natural_equation", "values": {"max_abs": "NaN"},
                              "tolerance": 0.001, "pass": False}]
    vals = status(doc, "reconstruction")["values"]
    assert vals["natural_warning"] is True
    assert vals["natural_residual_max_abs"] == "NaN" and vals["max_invariant_drift"] == "NaN"
    assert vals["max_compat_residual"] == "Infinity"
    assert vals["max_compat_residual_l"] == 0.003910127797582918
    assert doc["summary"]["passed"] is False and doc["summary"]["warning"] is True


@pytest.mark.parametrize("flag", [["--u0", "nan"], ["--v0", "inf"]], ids=["u0_nan", "v0_inf"])
def test_non_finite_base_value_exits_2(capsys, flag):
    code = run("residual", "hyperbolic_cone", "--grid", "11x11", "--mode", "general", *flag)
    out, err = capsys.readouterr()
    lines = [ln for ln in err.splitlines() if "wall time" not in ln]
    assert code == 2 and out == ""
    assert len(lines) == 1 and lines[0].startswith("lorsurf: error: ")
    assert "is not a grid node" in lines[0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_canonicalize_non_finite_tilde_base_exits_2(capsys, tmp_path, value):
    code = run("canonicalize", "hyperbolic_cone", "--grid", "11x11", "--tilde-u0", value,
               "--output", str(tmp_path / "c.json"))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert lines == ["lorsurf: error: map value is non-finite at index (0,)"]
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "enneper1", "--grid", "11x11"],
    ["canonicalize", "hyperbolic_cone", "--grid", "11x11", "--output", "{tmp}/c.json"],
    ["residual", "cylinder", "--grid", "11x11", "--mode", "cmc"],
    ["reconstruct", "cylinder", "--grid", "11x11", "--domain", "0:1,0:1", "--mesh", "{tmp}/m"],
], ids=lambda argv: argv[0])
def test_report_commands_print_the_report_without_a_report_path(capsys, tmp_path, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = run(*argv)
    printed = capsys.readouterr().out
    assert run(*argv, "--report", str(tmp_path / "r.json")) == code
    assert capsys.readouterr().out == ""
    assert printed == (tmp_path / "r.json").read_text()
    assert json.loads(printed)["summary"]["passed"] is (code == 0)


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


def assert_residual_refuses(path):
    """`residual --mode general` exits 2 with one error line and no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["residual", str(path), "--mode", "general"])
    lines = [ln for ln in err.getvalue().splitlines() if "wall time" not in ln]
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("lorsurf: error:")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["u0_index", "v0_index", "eps1", "eps2"]), value=not_an_integer)
def test_cli_refuses_coerced_chart_integers(tmp_path_factory, key, value):
    path = tmp_path_factory.mktemp("coerce") / "c.json"
    doc = chart_doc(small_chart(), 1)
    doc[key] = value
    path.write_text(json.dumps(doc))
    assert_residual_refuses(path)


@settings(max_examples=40, deadline=None)
@given(nu=st.integers(3, 7), nv=st.integers(3, 7), data=st.data(),
       bad=st.sampled_from([("F", "NaN"), ("H", "NaN"), ("F", "Infinity"), ("H", "-Infinity"),
                            ("F", "0.0"), ("F", "-0.0"), ("F", "-2.5")]))
def test_cli_names_the_node_of_a_planted_bad_value(tmp_path_factory, nu, nv, data, bad):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u, v = random_grid(rng, -1.0, 1.0, nu), random_grid(rng, 0.0, 2.0, nv)
    i, j = data.draw(st.integers(0, nu - 1), label="i"), data.draw(st.integers(0, nv - 1),
                                                                   label="j")
    chart = ls.Chart(u_grid=u, v_grid=v, F=rng.uniform(0.5, 2.0, (nu, nv)),
                     H=rng.uniform(-1.0, 1.0, (nu, nv)), u0_index=0, v0_index=0,
                     eps1=1, eps2=1).validate()
    path = tmp_path_factory.mktemp("planted") / "c.json"
    doc = chart_doc(chart, 1)
    name, literal = bad
    doc[name][j][i] = "PLANTED"  # the file stores row index = v
    path.write_text(json.dumps(doc).replace('"PLANTED"', literal))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["residual", str(path), "--mode", "general"])
    lines = [ln for ln in err.getvalue().splitlines() if "wall time" not in ln]
    assert code == 2 and len(lines) == 1 and lines[0].startswith("lorsurf: error: ")
    assert lines[0].endswith(f" at node ({i}, {j}), (u, v) = "
                             f"({float(u[i])!r}, {float(v[j])!r})")


def json_type(x):
    """The JSON type of x, with arrays of numbers and arrays of such arrays apart."""
    if isinstance(x, bool):
        return "boolean"
    if isinstance(x, (int, float)):
        return "number"
    inner = {json_type(e) for e in x} if isinstance(x, list) else None
    if inner == {"number"}:
        return "numbers"
    if inner == {"numbers"}:
        return "matrix"
    return type(x).__name__


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
DROP = "<drop the key>"
OPTIONAL_KEYS = ("L", "M", "N", "K", "metadata")


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(["schema_version", "u_grid", "v_grid", "u0_index", "v0_index",
                            "eps1", "eps2", "F", "H", *OPTIONAL_KEYS]),
       value=st.just(DROP) | json_values)
@example(key="u_grid", value=["0", True, 2]).via("numpy read it as the grid [0, 1, 2]")
@example(key="schema_version", value=True).via("True == 1")
def test_cli_refuses_a_dropped_or_mistyped_chart_key(tmp_path_factory, key, value):
    g = np.linspace(0.0, 2.0, 3)
    ones, zeros = np.ones((3, 3)), np.zeros((3, 3))
    chart = small_chart().with_fields(u_grid=g, v_grid=g, L=ones, M=zeros, N=ones, K=zeros,
                                      metadata={"source": "test"})
    path = tmp_path_factory.mktemp("keys") / "c.json"
    doc = chart_doc(chart, 1)
    if value == DROP:
        assume(key not in OPTIONAL_KEYS)  # a chart without them is valid
        del doc[key]
    else:
        assume(json_type(value) != json_type(doc[key]))
        doc[key] = value
    path.write_text(json.dumps(doc))
    assert_residual_refuses(path)


@pytest.mark.parametrize("name", sorted(ROW_REFUSALS))
def test_cli_refuses_a_malformed_row_in_one_line(capsys, tmp_path, name):
    text, reason = row_refusal_text(name)
    path = tmp_path / "c.json"
    path.write_text(text)
    code, lines = refused(capsys, "residual", str(path), "--mode", "general")
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith("lorsurf: error: ") and reason in lines[0]


def test_cli_refuses_a_chart_that_is_not_utf8(tmp_path):
    path = tmp_path / "c.json"
    ls.write_chart(small_chart(), str(path))
    path.write_bytes(path.read_bytes().replace(b'"metadata"', b'"metadata\xff"'))
    assert_residual_refuses(path)


@pytest.mark.parametrize("argv", [
    ["residual", "--mode", "general"],
    ["analyze"],
    ["reconstruct", "--mesh", "{tmp}/m"],
], ids=lambda argv: argv[0])
def test_a_chart_file_source_is_opened_once(monkeypatch, capsys, tmp_path, argv):
    path = tmp_path / "c.json"
    ls.write_chart(enneper1_chart(11), str(path))
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    command, *flags = (a.format(tmp=tmp_path) for a in argv)
    assert run(command, str(path), *flags) == 0
    assert len(opened) == 1


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


def test_reconstruct_hands_the_library_only_the_fields_it_reads(monkeypatch, tmp_path):
    # a single reconstruction reads F and H alone, so a chart file's L, M, N and
    # K are not held through its march; --pair reads K
    g = np.linspace(0.0, 1.0, 21)
    path = str(tmp_path / "c.json")
    stored = ls.reference_chart("cylinder", g, g)
    ls.write_chart(stored, path)
    calls = {}
    for name in ("reconstruct", "cmc_pair"):
        def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] = args
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    assert run("reconstruct", path, "--mesh", str(tmp_path / "m")) == 0
    chart = calls["reconstruct"][0]
    assert (chart.L, chart.M, chart.N, chart.K) == (None, None, None, None)
    assert np.array_equal(chart.F, stored.F) and np.array_equal(chart.H, stored.H)
    assert run("reconstruct", path, "--pair", "--mesh", str(tmp_path / "p")) == 0
    assert np.array_equal(calls["cmc_pair"][0], stored.K)


def test_reconstruct_pair_refuses_zero_H(capsys, tmp_path):
    # a minimal surface has no pair: cmc_pair's ValueError must not escape
    code = run("reconstruct", "enneper1", "--grid", "21x21", "--pair",
               "--mesh", str(tmp_path / "p"))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("lorsurf: error:")
    assert "fixed by K" in lines[0]


def test_reconstruct_pair_refuses_sign_overrides(capsys, tmp_path):
    # cmc_pair fixes the members' signs itself, so --eps1/--eps2 would be ignored
    for flags in (["--eps1", "-1", "--eps2", "1"], ["--eps2", "-1"]):
        code = run("reconstruct", "cylinder", "--grid", "11x11", "--pair", *flags,
                   "--mesh", str(tmp_path / "pp"))
        lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
        assert code == 2
        assert lines == ["lorsurf: error: --pair fixes the signs of both pair members "
                         "itself; drop --eps1/--eps2"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("H", [0.0, 1e-12])
def test_reconstruct_pair_refuses_the_H_fields_that_mode_minimal_accepts(capsys, tmp_path, H):
    g = np.linspace(1.0, 2.0, 41)
    chart = ls.reference_chart("enneper1", g, g - 2.0)
    path = tmp_path / "minimal.json"
    ls.write_chart(chart.with_fields(H=np.full(chart.shape, H)), str(path))
    assert run("residual", str(path), "--mode", "minimal") == 0
    capsys.readouterr()
    code = run("reconstruct", str(path), "--pair", "--mesh", str(tmp_path / "p"))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("lorsurf: error: --pair requires a non-zero H")
    assert list(tmp_path.iterdir()) == [path]


# Each verdict has one standard, a named constant that a report records, so a
# tolerance flag would do nothing but move it: argparse refuses each one as an
# unrecognized argument, even where a check reads that standard, before any
# file is written.

@pytest.mark.parametrize("source, flags, message", [
    ("enneper1", ["--force"], "unrecognized arguments: --force"),
    ("cylinder", ["--pair", "--force"], "unrecognized arguments: --force"),
    ("enneper1", ["--tol-congruence", "5"], "unrecognized arguments: --tol-congruence 5"),
    ("cylinder", ["--pair", "--tol-congruence", "5"], "unrecognized arguments: --tol-congruence 5"),
], ids=["force_without_pair", "force_with_pair", "tol_congruence_without_pair",
        "tol_congruence_with_pair"])
def test_reconstruct_refuses_flags_that_would_do_nothing(capsys, tmp_path, source, flags, message):
    code, lines = refused(capsys, "reconstruct", source, "--grid", "11x11", *flags,
                          "--mesh", str(tmp_path / "m"))
    assert code == 2
    assert lines == [f"lorsurf: error: {message}"]
    assert list(tmp_path.iterdir()) == []


def test_residual_refuses_flags_that_would_do_nothing(capsys, tmp_path):
    for flag in ("--tol", "--min-order"):
        code, lines = refused(capsys, "residual", "enneper1", "--grid", "11x11", "--mode",
                              "minimal", "--refine", "2", flag, "7",
                              "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert lines == [f"lorsurf: error: unrecognized arguments: {flag} 7"]
        assert list(tmp_path.iterdir()) == []
    # a refined file and a refinement factor: one of the two would be ignored
    inputs = tmp_path / "in"
    inputs.mkdir()
    coarse, fine = (_enneper1_file(inputs, f"c{n}.json", n, n) for n in (21, 41))
    code, lines = refused(capsys, "residual", coarse, "--mode", "minimal", "--refined", fine,
                          "--refine", "5", "--report", str(tmp_path / "r.json"))
    assert code == 2
    assert lines == ["lorsurf residual: error: argument --refine: not allowed with argument "
                     "--refined"]
    assert list(tmp_path.iterdir()) == [inputs]


@pytest.mark.parametrize("flag", ["--tol-iso", "--tol-normal", "--tol-ref", "--tol-canonical"])
def test_analyze_refuses_flags_that_would_do_nothing(capsys, tmp_path, flag):
    code, lines = refused(capsys, "analyze", "enneper1", "--grid", "11x11", flag, "1e-3",
                          "--mesh", str(tmp_path / "m"), "--report", str(tmp_path / "r.json"))
    assert code == 2
    assert lines == [f"lorsurf: error: unrecognized arguments: {flag} 1e-3"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, recorded", [
    (["analyze", "enneper1"], ["tol_iso", "tol_normal", "tol_ref", "tol_canonical"]),
    (["analyze", "lorentz_sphere"], ["tol_iso", "tol_normal", "tol_ref"]),
    (["analyze", "{plain}"], ["tol_natural"]),
    (["analyze", "{forms}"], ["tol_canonical", "tol_natural"]),
    (["canonicalize", "hyperbolic_cone", "--output", "{tmp}/c.json"], ["tol_canonical"]),
    (["residual", "enneper1", "--mode", "minimal"], ["tol"]),
    (["residual", "enneper1", "--mode", "minimal", "--refine", "2"], ["tol", "min_order"]),
    (["reconstruct", "enneper1", "--mesh", "{tmp}/m"], ["tol_natural"]),
    (["reconstruct", "cylinder", "--pair", "--mesh", "{tmp}/m"],
     ["tol_natural", "tol_congruence"]),
], ids=["analyze_corpus", "analyze_no_canonical", "analyze_chart", "analyze_chart_LN",
        "canonicalize", "residual", "residual_order", "reconstruct", "reconstruct_pair"])
def test_reports_record_the_tolerances_that_were_read(tmp_path, argv, recorded):
    g = np.linspace(1.0, 2.0, 11)
    paths = {"plain": tmp_path / "plain.json", "forms": tmp_path / "forms.json"}
    ls.write_chart(enneper1_chart(11), str(paths["plain"]))  # F and H only
    ls.write_chart(ls.reference_chart("enneper1", g, g - 2.0), str(paths["forms"]))
    argv = [a.format(tmp=tmp_path, **paths) for a in argv]
    grid = ["--grid", "11x11"] if argv[1] in ls.names() else []
    rep = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert run(*argv, *grid, "--report", str(rep)) in (0, 1)
    assert list(load(str(rep))["effective_tolerances"]) == recorded


def test_reconstruct_defective_chart_fails_its_check_and_writes_the_mesh(capsys, tmp_path):
    g = np.linspace(0.0, 1.0, 31)
    chart = ls.Chart(u_grid=g, v_grid=g, F=np.full((31, 31), 2.1),
                     H=np.full((31, 31), 0.5),
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / "defect.json"
    ls.write_chart(chart, str(path))
    rep = tmp_path / "r.json"
    code = run("reconstruct", str(path), "--mesh", str(tmp_path / "d"), "--report", str(rep))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("lorsurf: warning: chart violates the natural equation")
    doc = load(str(rep))
    assert doc["summary"]["warning"] is True and doc["summary"]["passed"] is False
    vals = status(doc, "reconstruction")["values"]
    assert np.isclose(vals["natural_residual_max_abs"], 0.1025, atol=1e-12)
    assert vals["max_compat_residual"] >= 1e-3
    nat = check(doc, "natural_equation")
    assert nat["values"] == {"max_abs": vals["natural_residual_max_abs"]}
    assert nat["pass"] is False and nat["tolerance"] == doc["effective_tolerances"]["tol_natural"]
    assert (tmp_path / "d.obj").exists() and (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("kind", ["corpus", "chart_file"])
def test_reconstruct_of_the_raw_cone_fails_its_natural_equation_check(capsys, tmp_path, kind):
    # the cone's raw coordinates are not canonical: its (F, H) violate the natural
    # equation, so the rebuilt mesh is not the cone; reconstruct fails as residual does
    # and still writes the mesh
    source, grid = "hyperbolic_cone", ["--grid", "41x41"]
    if kind == "chart_file":
        source, grid, g = str(tmp_path / "cone.json"), [], np.linspace(-1.0, 1.0, 41)
        ls.write_chart(ls.reference_chart("hyperbolic_cone", g, g), source)
    rep = tmp_path / "r.json"
    code = run("reconstruct", source, *grid, "--mesh", str(tmp_path / "m"), "--report", str(rep))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 1
    assert lines == ["lorsurf: warning: chart violates the natural equation (max residual 1.6, "
                     "scale 9.25); reconstruction diagnostics will reflect this"]
    doc = load_strict(str(rep))
    nat = check(doc, "natural_equation")
    assert nat["pass"] is False and doc["checks"] == [nat]
    assert nat["values"]["max_abs"] == pytest.approx(1.6036, abs=1e-4)
    assert nat["tolerance"] == pytest.approx(0.0092517, abs=1e-7)
    assert doc["effective_tolerances"] == {"tol_natural": nat["tolerance"]}
    assert doc["summary"]["passed"] is False and doc["summary"]["warning"] is True
    assert (tmp_path / "m.obj").exists() and (tmp_path / "m.csv").exists()
    assert run("residual", source, *grid, "--mode", "general") == 1


def test_analyze_of_the_raw_cone_chart_fails_its_natural_equation_check(capsys, tmp_path):
    # analyze of a chart file judges the natural equation as residual and reconstruct
    # do; the canonical and natural_residual statuses stay beside the check
    source, g = str(tmp_path / "cone.json"), np.linspace(-1.0, 1.0, 41)
    ls.write_chart(ls.reference_chart("hyperbolic_cone", g, g), source)
    rep = tmp_path / "r.json"
    assert run("analyze", source, "--report", str(rep)) == 1
    assert [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln] == []
    doc = load_strict(str(rep))
    nat = check(doc, "natural_equation")
    assert nat["pass"] is False and doc["checks"] == [nat]
    assert nat["values"]["max_abs"] == pytest.approx(1.6036, abs=1e-4)
    assert nat["values"]["max_abs"] == status(doc, "natural_residual")["values"]["max_abs"]
    assert nat["tolerance"] == doc["effective_tolerances"]["tol_natural"]
    assert nat["tolerance"] == pytest.approx(0.0092517, abs=1e-7)
    assert status(doc, "canonical")["values"]["status"] == "fail"
    assert doc["summary"]["passed"] is False
    assert run("residual", source, "--mode", "general") == 1


def test_a_perturbed_K_fails_residual_and_reconstruct_pair_alike(capsys, tmp_path):
    # K + 0.01 sin 3u cos 2v is the curvature of no constant-H surface: residual --mode
    # cmc fails on it, and reconstruct --pair refuses it before its march, exit 1 as well
    g = np.linspace(0.0, 2.0 * np.pi, 21)
    chart = ls.reference_chart("cylinder", g, g)
    U, V = np.meshgrid(g, g, indexing="ij")
    path = tmp_path / "perturbed.json"
    ls.write_chart(chart.with_fields(K=chart.K + 0.01 * np.sin(3 * U) * np.cos(2 * V)),
                   str(path))
    rep = tmp_path / "r.json"
    assert run("residual", str(path), "--mode", "cmc", "--report", str(rep)) == 1
    res = check(load_strict(str(rep)), "residual")
    assert res["pass"] is False
    out = tmp_path / "out"
    out.mkdir()
    code, lines = refused(capsys, "reconstruct", str(path), "--pair", "--mesh", str(out / "p"),
                          "--report", str(out / "r.json"))
    assert code == 1
    assert lines == ["lorsurf: natural equation violated: K violates the constant-H natural "
                     f"equation (max residual {res['values']['max_abs']:.3g}, "
                     f"tol {res['tolerance']:.3g})"]
    assert list(out.iterdir()) == []


def test_reconstruct_refuses_a_bad_seed_file_before_reading_the_chart(monkeypatch, capsys,
                                                                     tmp_path):
    path = tmp_path / "c.json"
    ls.write_chart(enneper1_chart(11), str(path))
    seed = tmp_path / "seed.json"
    seed.write_text("[1, 2]")
    calls = []

    def spy(*args, _load=cli.load_chart):
        calls.append(args)
        return _load(*args)

    monkeypatch.setattr(cli, "load_chart", spy)
    code, lines = refused(capsys, "reconstruct", str(path), "--seed", str(seed),
                          "--mesh", str(tmp_path / "m"))
    assert code == 2 and calls == []
    assert lines == [f"lorsurf: error: seed file {str(seed)!r} must contain a JSON object"]


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


def test_reconstruct_inputs_record_the_seed_file_digest(tmp_path):
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"X": [1.0, 1.0, 0.0], "Y": [-1.0, 1.0, 0.0],
                                "l": [0.0, 0.0, 1.0]}))
    digest = hashlib.sha256(seed.read_bytes()).hexdigest()
    for flags, recorded in ((["--seed", str(seed)], {"seed": str(seed), "seed_digest": digest}),
                            (["--seed", "standard"], {"seed": "standard"}),
                            ([], {"seed": "standard"})):
        rep = tmp_path / "r.json"
        assert run("reconstruct", "cylinder", "--grid", "11x11", "--domain", "0:1,0:1", *flags,
                   "--mesh", str(tmp_path / "m"), "--report", str(rep)) == 0
        inputs = load(str(rep))["inputs"]
        assert {k: inputs[k] for k in inputs if k.startswith("seed")} == recorded


def test_reconstruct_refuses_seed_file_without_a_frame(capsys, tmp_path):
    # all-null X, Y, l once marched the standard seed while the report named the file
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"X": None, "Y": None, "l": None, "x": [5, 0, 0]}))
    code = run("reconstruct", "cylinder", "--grid", "11x11", "--seed", str(seed),
               "--mesh", str(tmp_path / "m"), "--report", str(tmp_path / "r.json"))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("lorsurf: error: ")
    assert "null" in lines[0]
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.obj").exists()


def test_huge_finite_chart_fails_without_runtime_warnings(capsys, tmp_path):
    # F = 1 and H = 1e100 on columns 4-6: residual**2 and the march overflow
    g = np.linspace(0.0, 1.0, 7)
    H = np.zeros((7, 7))
    H[:, 4:] = 1e100
    chart = ls.Chart(u_grid=g, v_grid=g, F=np.ones((7, 7)), H=H,
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / "huge.json"
    ls.write_chart(chart, str(path))
    rep = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("residual", str(path), "--mode", "general", "--report", str(rep)) == 1
        assert run("reconstruct", str(path), "--mesh", str(tmp_path / "m")) == 1
    assert caught == []
    assert check(load_strict(str(rep)), "residual")["values"]["l2"] == "Infinity"
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if "wall time" not in ln] == [
        "lorsurf: warning: chart violates the natural equation (max residual 1e+200, "
        "scale 1e+200); reconstruction diagnostics will reflect this",
        "lorsurf: reconstruction aborted: non-finite frame state in the columns march "
        "at node (0, 2), (u, v) = (0.0, 0.3333333333333333)"]


def _overflow_chart(which):
    """Finite 7x7 charts with F = 1 whose stencils give non-finite L (and residuals)."""
    if which == "overflow":  # H_u overflows between u-indices 4 and 6
        g = np.linspace(0.0, 1.0, 7)
        H = np.zeros((7, 7))
        H[5], H[6] = 1.5e308, -1.5e308
    else:  # steps of 1e-156: H_u = 2e155 / 1e-156 overflows
        g = np.arange(7) * 1e-156
        H = np.zeros((7, 7))
        H[5], H[6] = 1e155, -1e155
    return ls.Chart(u_grid=g, v_grid=g, F=np.ones((7, 7)), H=H,
                    u0_index=0, v0_index=0, eps1=1, eps2=1).validate()


@pytest.mark.parametrize("argv", [["residual", "--mode", "general"], ["analyze"],
                                  ["reconstruct", "--mesh", "{tmp}/m"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("which", ["overflow", "tiny_steps"])
def test_non_finite_stencils_fail_in_one_line_without_warnings(tmp_path, which, argv):
    path = tmp_path / "c.json"
    ls.write_chart(_overflow_chart(which), str(path))
    command, *flags = (a.format(tmp=tmp_path) for a in argv)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([command, str(path), *flags])
    assert code == 1 and caught == []
    lines = [ln for ln in err.getvalue().splitlines() if "wall time" not in ln]
    if command == "reconstruct":
        assert len(lines) == 1 and lines[0].startswith(
            "lorsurf: reconstruction aborted: non-finite accumulated L at node (")
        assert not (tmp_path / "m.obj").exists()
    else:
        assert lines == []


@pytest.mark.parametrize("data, reason", [
    (b"\xff\xfe{}", "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
    (b"[1, 2]", "must contain a JSON object"),
], ids=["not_utf8", "not_an_object"])
def test_reconstruct_refuses_an_unreadable_seed_file(capsys, tmp_path, data, reason):
    seed = tmp_path / "seed.json"
    seed.write_bytes(data)
    code = run("reconstruct", "cylinder", "--grid", "11x11", "--seed", str(seed),
               "--mesh", str(tmp_path / "m"))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert lines == [f"lorsurf: error: seed file {str(seed)!r} {reason}"]


@pytest.mark.parametrize("argv, target, reason", [
    (["reconstruct", "--mesh", "{tmp}/m", "--report", "{tmp}/dir"], "{tmp}/dir", "Is a directory"),
    (["reconstruct", "--mesh", "{tmp}/no/m"], "{tmp}/no/m.obj", "No such file or directory"),
    (["canonicalize", "--output", "{tmp}/no/c.json"], "{tmp}/no/c.json",
     "No such file or directory"),
], ids=["report_is_a_directory", "mesh_in_a_missing_directory",
        "output_in_a_missing_directory"])
def test_an_unwritable_output_path_exits_2_and_leaves_no_file(capsys, tmp_path, argv, target,
                                                              reason):
    (tmp_path / "dir").mkdir()  # the target of --report; the other targets' directory is missing
    command, *flags = (a.format(tmp=tmp_path) for a in argv)
    code = run(command, "enneper1", "--grid", "21x21", *flags)
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert lines == [f"lorsurf: error: cannot write {target.format(tmp=tmp_path)!r}: {reason}"]
    assert (tmp_path / "dir").is_dir() and not any((tmp_path / "dir").iterdir())
    assert not list(tmp_path.rglob(".tmp_*"))


@pytest.mark.parametrize("flag, argv", [
    ("report", ["residual", "enneper1", "--grid", "11x11", "--mode", "minimal"]),
    ("mesh", ["reconstruct", "enneper1", "--grid", "11x11"]),
    ("output", ["canonicalize", "enneper1", "--grid", "11x11"]),
], ids=["report", "mesh", "output"])
def test_an_empty_output_path_exits_2_and_writes_nothing(monkeypatch, capsys, tmp_path, flag,
                                                         argv):
    monkeypatch.chdir(tmp_path)
    code = run(*argv, f"--{flag}", "")
    out, err = capsys.readouterr()
    lines = [ln for ln in err.splitlines() if "wall time" not in ln]
    assert code == 2 and out == ""
    assert lines == [f"lorsurf: error: --{flag} needs a non-empty path"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        run("canonicalize", "enneper1", "--grid", "11x11", "--output", str(tmp_path / "c.json"),
            "--report", str(tmp_path / "canon.json"))
        run("reconstruct", "enneper1", "--grid", "11x11", "--mesh", str(tmp_path / "m"),
            "--report", str(tmp_path / "rec.json"))
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["c.json", "canon.json", "m.obj", "m.csv", "rec.json"], mode)


@pytest.mark.parametrize("argv", [["corpus", "list"], ["corpus", "show", "cylinder"],
                                  ["residual", "enneper1", "--grid", "11x11", "--mode", "minimal"]],
                         ids=["corpus_list", "corpus_show", "report"])
def test_a_closed_stdout_exits_2_in_one_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "lorsurf.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    lines = [ln for ln in proc.stderr.splitlines() if "wall time" not in ln]
    assert proc.returncode == 2
    assert lines == ["lorsurf: error: cannot write to stdout: Broken pipe"]


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
@pytest.mark.parametrize("X", [["a", 1, 0], [1.0, 1.0]], ids=["non_numeric", "two_components"])
def test_reconstruct_refuses_malformed_seed_vectors(capsys, tmp_path, X, pair):
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"X": X, "Y": [-1.0, 1.0, 0.0], "l": [0.0, 0.0, 1.0]}))
    code = run("reconstruct", "cylinder", "--grid", "21x21", "--domain", "0:1,0:1",
               "--seed", str(seed), "--mesh", str(tmp_path / "m"),
               *(["--pair"] if pair else []))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wall time" not in ln]
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("lorsurf: error: seed X")


@pytest.mark.parametrize("argv, least", [
    (["canonicalize", "--canon-nodes", "1", "--output", "{tmp}/c.json"], 3),  # ZeroDivisionError
    (["canonicalize", "--canon-nodes", "0", "--output", "{tmp}/c.json"], 3),  # meant the default
    (["residual", "--mode", "minimal", "--refine", "-1"], 2),  # ValueError from linspace
    (["residual", "--mode", "minimal", "--refine", "1"], 2),   # division by log(1)
], ids=["canon_nodes_1", "canon_nodes_0", "refine_-1", "refine_1"])
def test_integer_flags_below_2_are_refused(capsys, tmp_path, argv, least):
    command, *flags = (a.format(tmp=tmp_path) for a in argv)
    with pytest.raises(SystemExit) as exc:
        run(command, "enneper1", "--grid", "21x21", *flags)
    assert exc.value.code == 2
    assert f"expected an integer >= {least}" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_canon_nodes_2_is_refused_before_any_work(monkeypatch, capsys, tmp_path):
    # 2 nodes would give a one-node canonical axis unless the base image is a range end
    monkeypatch.setattr("lorsurf.cli._Source.chart",
                        lambda *a, **k: pytest.fail("the source chart was built"))
    with pytest.raises(SystemExit) as exc:
        run("canonicalize", "hyperbolic_cone", "--grid", "21x21", "--canon-nodes", "2",
            "--output", str(tmp_path / "c.json"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == ("lorsurf canonicalize: error: argument --canon-nodes: "
                                    "expected an integer >= 3, got 2")
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "enneper1", "--bogus"], "lorsurf: error: unrecognized arguments: --bogus"),
    (["analyze", "enneper1", "--grid", "1x1"],
     "lorsurf analyze: error: argument --grid: expected an integer >= 2, got 1"),
    (["residual", "enneper1"],
     "lorsurf residual: error: the following arguments are required: --mode"),
    (["corpus", "show"], "lorsurf: error: corpus show requires a surface name"),
    (["corpus", "list", "enneper1"], "lorsurf: error: corpus list takes no surface name"),
], ids=["unknown_flag", "grid_1x1", "missing_mode", "corpus_show_without_name",
        "corpus_list_with_name"])
def test_argparse_refusals_are_one_line(capsys, argv, message):
    # one line, as lorsurf's own refusals are, and no usage: that is --help's
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("argv, message", [
    (["residual", "{chart}", "--mode", "general", "--refine", "2"],
     "--refine needs a corpus source; use --refined FILE for charts"),
    (["reconstruct", "{chart}", "--pair", "--mesh", "{out}/m"], "--pair requires a K field"),
    (["residual", "{chart}", "--mode", "cmc"], "mode cmc requires a K field"),
    (["residual", "{chart}", "--mode", "minimal"], "mode minimal requires a K field"),
    (["canonicalize", "{chart}", "--output", "{out}/c.json"],
     "canonicalize needs a chart carrying L and N fields"),
    (["analyze", "enneper1", "--domain", "1:1.0000001,1:1.0000001", "--grid", "2x2"],
     "every grid node lies on the singular set"),
], ids=["refine_chart_file", "pair_without_K", "cmc_without_K", "minimal_without_K",
        "canonicalize_without_LN", "analyze_all_singular"])
def test_what_a_command_needs_is_refused_in_one_line(capsys, tmp_path, argv, message):
    chart = tmp_path / "plain.json"  # F and H only
    ls.write_chart(enneper1_chart(11), str(chart))
    out = tmp_path / "out"
    out.mkdir()
    code, lines = refused(capsys, *(a.format(chart=chart, out=out) for a in argv),
                          "--report", str(out / "r.json"))
    assert code == 2 and lines == [f"lorsurf: error: {message}"]
    assert list(out.iterdir()) == []


def test_help_still_prints_the_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run("residual", "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lorsurf residual [-h]")


def test_canon_nodes_3_gives_a_two_node_canonical_chart(tmp_path):
    out = tmp_path / "c.json"
    code = run("canonicalize", "hyperbolic_cone", "--grid", "21x21", "--canon-nodes", "3",
               "--output", str(out), "--report", str(tmp_path / "r.json"))
    assert code == 0
    assert ls.read_chart(str(out)).shape == (2, 2)


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3), at=st.floats(0.0, 1.0),
       n=st.integers(3, 400))
def test_grid_through_keeps_two_nodes_from_three(lo, width, at, n):
    hi = lo + width
    assume(hi > lo)
    base = min(lo + at * (hi - lo), hi)
    grid = ls.grid_through(base, lo, hi, n)
    assert n - 1 <= grid.size <= n
    assert base in grid


@pytest.mark.parametrize("argv", [["residual", "--mode", "cmc"],
                                  ["reconstruct", "--mesh", "{tmp}/m"],
                                  ["canonicalize", "--output", "{tmp}/c.json"]],
                         ids=lambda argv: argv[0])
def test_tol_canonical_is_refused_where_nothing_reads_it(capsys, tmp_path, argv):
    # canonicalize reads CANONICAL_TOL, which no flag moves, and the others read none
    command, *flags = (a.format(tmp=tmp_path) for a in argv)
    with pytest.raises(SystemExit) as exc:
        run(command, "cylinder", "--grid", "21x21", *flags, "--tol-canonical", "1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-canonical 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
        "--refine", "2", "--report", str(rep))
    doc = load(str(rep))
    for c in doc["checks"]:
        if c["name"] == "residual":
            assert c["pass"] == (c["values"]["max_abs"] <= c["tolerance"])
        if c["name"] == "order":
            assert c["pass"] == (c["values"]["order_estimate"] >= c["tolerance"])


def _constant_chart_file(tmp_path, F, scale):
    g = np.arange(7) * scale
    chart = ls.Chart(u_grid=g, v_grid=g, F=np.full((7, 7), F), H=np.full((7, 7), 0.5),
                     u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
    path = tmp_path / f"c{F}_{scale}.json"
    ls.write_chart(chart, str(path))
    return str(path)


def _general_residual(tmp_path, path):
    rep = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("residual", path, "--mode", "general", "--report", str(rep))
    assert caught == []
    return code, check(load_strict(str(rep)), "residual")["values"]


def test_residual_l2_on_huge_steps_is_exact(tmp_path):
    # the cylinder's F = 2, H = 0.5 solve the natural equation exactly; steps of 1e160
    # overflowed the area weights to an l2 of NaN
    code, values = _general_residual(tmp_path, _constant_chart_file(tmp_path, 2.0, 1e160))
    assert code == 0 and values["max_abs"] == 0.0 and values["l2"] == 0.0


def test_residual_l2_on_tiny_steps_matches_the_unit_grid(tmp_path):
    # F = 1, H = 0.5 leave the constant residual 0.75; steps of 1e-160 made subnormal
    # area weights and an l2 of 0.749876.  The weights scaled to the unit range have
    # mantissas that are not powers of two, so their sums may round by one ulp
    _, unit = _general_residual(tmp_path, _constant_chart_file(tmp_path, 1.0, 1.0))
    _, tiny = _general_residual(tmp_path, _constant_chart_file(tmp_path, 1.0, 1e-160))
    assert unit["l2"] == 0.75 and tiny["max_abs"] == 0.75
    assert abs(tiny["l2"] - 0.75) <= np.spacing(0.75)
