"""Acceptance suite.

Each test realizes one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with `pytest -s` or `-rP`).
"""

import json
import os
import time

import numpy as np
import pytest

import lorsurf as ls
from lorsurf.cli import main as cli_main
from lorsurf.errors import within

from conftest import CONE_TU0, cone_canonical_chart, enneper1_chart, interior_points


def criterion(num, name, passed, details):
    line = f"[criterion {num}] {name}: {'PASS' if passed else 'FAIL'} ({details})"
    print(line)
    assert passed, line


# -- 1. closed-form regression ----------------------------------------------------

def test_criterion_1_closed_form_regression(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for name in ls.names():
        entry = ls.get(name)
        u, v = interior_points(entry, rng, 100)
        fd = ls.fundamental_forms(entry.provider(u, v))
        ref = entry.reference
        for computed, expected in [
            (fd.E, np.zeros_like(u)), (fd.G, np.zeros_like(u)),
            (fd.F, ref.F(u, v)), (fd.L, ref.L(u, v)), (fd.M, ref.M(u, v)),
            (fd.N, ref.N(u, v)), (fd.K, ref.K(u, v)), (fd.H, ref.H(u, v)),
        ]:
            dev = np.max(np.abs(computed - expected) / (1.0 + np.abs(expected)))
            worst = max(worst, float(dev))
    dt = time.perf_counter() - t0
    criterion(1, "closed-form regression",
              worst <= 1e-9 and dt < 1.0,
              f"worst abs-rel deviation {worst:.2e} <= 1e-9 over 6 surfaces x 100 points, "
              f"{dt:.2f}s < 1s")


# -- 2. canonicalization of the cone ------------------------------------------------

def _canonicalize_cone(tmp_path, n, tag):
    out = str(tmp_path / f"cone_{tag}.json")
    rep = str(tmp_path / f"cone_rep_{tag}.json")
    code = cli_main(["canonicalize", "hyperbolic_cone", "--grid", f"{n}x{n}",
                     "--u0", "0", "--v0", "0",
                     "--tilde-u0", repr(float(CONE_TU0)),
                     "--tilde-v0", repr(float(CONE_TU0)),
                     "--output", out, "--report", rep])
    assert code == 0
    chart = ls.read_chart(out)
    TU, TV = np.meshgrid(chart.u_grid, chart.v_grid, indexing="ij")
    F_exact = TU**3 * TV**3 / 1152.0
    H_exact = -48.0 * np.sqrt(3.0) / (TU**2 * TV**2)
    return max(float(np.max(np.abs(chart.F / F_exact - 1.0))),
               float(np.max(np.abs(chart.H / H_exact - 1.0))))


def test_criterion_2_cone_canonicalization(tmp_path):
    t0 = time.perf_counter()
    err_201 = _canonicalize_cone(tmp_path, 201, "201")
    err_401 = _canonicalize_cone(tmp_path, 401, "401")
    dt = time.perf_counter() - t0
    shrink = err_201 / err_401
    criterion(2, "cone canonicalization",
              err_201 <= 1e-6 and shrink >= 8.0 and dt < 5.0,
              f"max rel error {err_201:.2e} <= 1e-6 at 201x201, refinement x2 shrinks "
              f"x{shrink:.1f} >= 8, {dt:.2f}s < 5s")


# -- 3. natural-equation residual convergence ----------------------------------------

def test_criterion_3_residual_convergence():
    t0 = time.perf_counter()
    details = []
    ok = True

    coarse = ls.natural_residual(cone_canonical_chart(201))
    fine = ls.natural_residual(cone_canonical_chart(401))
    order = ls.convergence_order(coarse.max_abs, fine.max_abs)
    ok &= order >= 1.9
    details.append(f"cone general order {order:.2f}")

    for name, dom in (("enneper1", (1.0, 2.0, -1.0, 0.0)),
                      ("enneper2", (0.5, 1.5, 0.5, 1.5))):
        maxima = []
        for n in (201, 401):
            u = np.linspace(dom[0], dom[1], n)
            v = np.linspace(dom[2], dom[3], n)
            chart = ls.reference_chart(name, u, v)
            maxima.append(ls.minimal_residual(chart.K, u, v).max_abs)
        order = ls.convergence_order(maxima[0], maxima[1])
        ok &= order >= 1.9
        details.append(f"{name} minimal order {order:.2f}")

    cyl_max = 0.0
    for n in (51, 101):
        g = np.linspace(0.0, 2.0 * np.pi, n)
        chart = ls.reference_chart("cylinder", g, g)
        cyl_max = max(cyl_max, ls.cmc_residual(chart.K, 0.5, g, g).max_abs)
    ok &= cyl_max <= 1e-12
    details.append(f"cylinder cmc max {cyl_max:.1e} <= 1e-12")

    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    criterion(3, "natural-equation residual convergence", ok,
              "; ".join(details) + f"; {dt:.2f}s < 10s")


# -- 4. Bonnet round trip --------------------------------------------------------------

def test_criterion_4_bonnet_round_trip():
    t0 = time.perf_counter()
    n = 101
    h = 1.0 / (n - 1)
    res = ls.reconstruct(enneper1_chart(n))
    tol = max(1e-6, 5.0 * h * h)
    forms_ok = res.form_mismatch.f_max <= tol and res.form_mismatch.h_max <= tol
    res_fine = ls.reconstruct(enneper1_chart(2 * n - 1))
    ratio = res.max_invariant_drift / res_fine.max_invariant_drift
    dt = time.perf_counter() - t0
    criterion(4, "Bonnet round trip",
              forms_ok and ratio >= 12.0 and dt < 10.0,
              f"F recovered to {res.form_mismatch.f_max:.2e}, H to "
              f"{res.form_mismatch.h_max:.2e} (tol {tol:.1e}); drift ratio h->h/2 "
              f"{ratio:.1f} >= 12; {dt:.2f}s < 10s")


# -- 5. CMC two-surface phenomenon -------------------------------------------------------

def test_criterion_5_cmc_pair():
    t0 = time.perf_counter()
    n = 101
    g = np.linspace(0.0, 1.0, n)
    res_p, res_m = ls.cmc_pair(np.zeros((n, n)), 0.5, g, g)

    def triple_dev(res, want):
        jets = ls.jets_from_mesh(res.mesh, g, g)
        inner = ls.SurfaceJet2(**{k: getattr(jets, k)[1:-1, 1:-1] for k in
                                  ("x", "x_u", "x_v", "x_uu", "x_uv", "x_vv")})
        fd = ls.fundamental_forms(inner)
        return max(float(np.max(np.abs(fd.L - want[0]))),
                   float(np.max(np.abs(fd.M - want[1]))),
                   float(np.max(np.abs(fd.N - want[2]))))

    dev_p = triple_dev(res_p, (1.0, 1.0, 1.0))
    dev_m = triple_dev(res_m, (-1.0, 1.0, -1.0))
    pair_rep = ls.congruence_check(res_p.mesh, res_m.mesh, g, g, tol=1e-4)
    U, V = np.meshgrid(g, g, indexing="ij")
    rep_p = ls.congruence_check(res_p.mesh, ls.get("cylinder").position(U, V),
                                g, g, tol=1e-4)
    rep_m = ls.congruence_check(res_m.mesh,
                                ls.get("hyperbolic_cylinder").position(U, V),
                                g, g, tol=1e-4)
    dt = time.perf_counter() - t0
    ok = (dev_p <= 1e-4 and dev_m <= 1e-4
          and pair_rep.verdict is ls.CongruenceVerdict.DISTINCT
          and rep_p.verdict is ls.CongruenceVerdict.CONGRUENT
          and rep_m.verdict is ls.CongruenceVerdict.CONGRUENT
          and dt < 10.0)
    criterion(5, "CMC two-surface phenomenon", ok,
              f"triples (1,1,1)/( -1,1,-1) within {max(dev_p, dev_m):.1e} <= 1e-4; pair "
              f"{pair_rep.verdict.value}; corpus matches {rep_p.verdict.value}/"
              f"{rep_m.verdict.value}; {dt:.2f}s < 10s")


# -- 6. gauge invariance of canonicity ----------------------------------------------------

def test_criterion_6_gauge_invariance(rng):
    t0 = time.perf_counter()
    chart = ls.reference_chart("enneper1", np.linspace(1.0, 2.0, 41),
                               np.linspace(-1.0, 0.0, 41))
    gauges_ok = 0
    for _ in range(20):
        delta = int(rng.choice([-1, 1]))
        c1, c2 = rng.uniform(-2.0, 2.0, 2)
        swap = bool(rng.integers(0, 2))
        out = ls.canonical_gauge_transform(chart, delta, float(c1), float(c2), swap=swap)
        rep = ls.verify_canonical(out)
        gauges_ok += within([rep.max_dev_L, rep.max_dev_N], 1e-9)

    def identity_map(grid):
        return ls.MonotoneMap(knots=grid, values=grid.copy(),
                              derivative=np.ones_like(grid))

    def quadratic_map(grid, a):
        # t = s + a s^2 inverted on the grid's range (monotone there for a > 0
        # on [1, 2] and for the v-range [-1, 0])
        t = (np.sqrt(1.0 + 4.0 * a * grid) - 1.0) / (2.0 * a)
        return ls.MonotoneMap(knots=grid, values=t,
                              derivative=1.0 / (1.0 + 2.0 * a * t))

    nonaffine_failed = 0
    for _ in range(20):
        a = float(rng.uniform(0.05, 0.15))
        axis = rng.integers(0, 2)
        umap = quadratic_map(chart.u_grid, a) if axis == 0 else identity_map(chart.u_grid)
        vmap = identity_map(chart.v_grid) if axis == 0 else quadratic_map(chart.v_grid, a)
        grids = []
        for m, grid in ((umap, chart.u_grid), (vmap, chart.v_grid)):
            g = np.linspace(*m.range, grid.size)
            base = float(m(grid[(grid.size - 1) // 2]))
            g[np.argmin(np.abs(g - base))] = base
            grids.append(g)
        out = ls.resample_to_canonical(chart, (umap, vmap), grids[0], grids[1])
        nonaffine_failed += not ls.verify_canonical(out).passed  # CANONICAL_TOL = 1e-6
    dt = time.perf_counter() - t0
    criterion(6, "gauge invariance",
              gauges_ok == 20 and nonaffine_failed == 20 and dt < 2.0,
              f"{gauges_ok}/20 random gauges stay canonical, {nonaffine_failed}/20 "
              f"non-affine reparametrizations fail; {dt:.2f}s < 2s")


# -- 7. integrability probe ---------------------------------------------------------------

def test_criterion_7_integrability_probe():
    import warnings
    t0 = time.perf_counter()
    defect_min = np.inf
    clean = []
    for n in (41, 81, 161):
        g = np.linspace(0.0, 1.0, n)
        shape = (n, n)
        good = ls.Chart(u_grid=g, v_grid=g, F=np.full(shape, 2.0),
                        H=np.full(shape, 0.5), u0_index=0, v0_index=0,
                        eps1=1, eps2=1).validate()
        bad = ls.Chart(u_grid=g, v_grid=g, F=np.full(shape, 2.1),
                       H=np.full(shape, 0.5), u0_index=0, v0_index=0,
                       eps1=1, eps2=1).validate()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            defect_min = min(defect_min, ls.reconstruct(bad).max_compat)
        clean.append(ls.reconstruct(good).max_compat)
    # the clean cylinder sits at the rounding floor (its truncation terms
    # cancel identically), which satisfies "residual -> 0" trivially
    floor = 1e-10
    clean_ok = all(c <= floor for c in clean) or \
        ls.convergence_order(clean[0], clean[-1], refinement=4.0) >= 1.9
    dt = time.perf_counter() - t0
    criterion(7, "integrability probe",
              defect_min >= 1e-3 and clean_ok and dt < 10.0,
              f"planted 1.05*F defect keeps compat residual >= {defect_min:.2e} "
              f"(>= 1e-3) at 41/81/161; clean chart residual max {max(clean):.1e} "
              f"at the rounding floor; {dt:.2f}s < 10s")


# -- 8. determinism of repeated runs ---------------------------------------------------------

def _pipeline(workdir):
    """Criteria 2-5 command pipelines with fixed relative paths."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert cli_main(["canonicalize", "hyperbolic_cone", "--grid", "201x201",
                         "--u0", "0", "--v0", "0",
                         "--tilde-u0", repr(float(CONE_TU0)),
                         "--tilde-v0", repr(float(CONE_TU0)),
                         "--output", "cone.json", "--report", "cone_rep.json"]) == 0
        assert cli_main(["residual", "enneper1", "--mode", "minimal",
                         "--grid", "101x101", "--refine", "2",
                         "--report", "residual_rep.json"]) == 0
        with open("residual_rep.json") as fh:  # within REL_TOL * scale, and 1e-3 absolute
            residual, = (c for c in json.load(fh)["checks"] if c["name"] == "residual")
        assert residual["values"]["max_abs"] <= 1e-3
        ls.write_chart(enneper1_chart(101), "enneper_chart.json")
        assert cli_main(["reconstruct", "enneper_chart.json",
                         "--mesh", "enneper", "--report", "bonnet_rep.json"]) == 0
        assert cli_main(["reconstruct", "cylinder", "--grid", "101x101",
                         "--domain", "0:1,0:1", "--pair",
                         "--mesh", "pair", "--report", "pair_rep.json"]) == 0
    finally:
        os.chdir(cwd)


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    dirs = []
    for run in ("run_1", "run_2"):
        d = tmp_path / run
        d.mkdir()
        _pipeline(str(d))
        dirs.append(d)
    compared = ["cone_rep.json", "residual_rep.json", "bonnet_rep.json",
                "pair_rep.json", "cone.json", "enneper.obj", "enneper.csv",
                "pair_p.obj", "pair_m.obj", "pair_p.csv", "pair_m.csv"]
    mismatched = [f for f in compared
                  if (dirs[0] / f).read_bytes() != (dirs[1] / f).read_bytes()]
    dt = time.perf_counter() - t0
    criterion(8, "determinism of repeated runs",
              not mismatched,
              f"{len(compared)} output files byte-identical across two runs"
              + (f"; MISMATCHED: {mismatched}" if mismatched else "")
              + f"; {dt:.2f}s")


def test_acceptance_reports_are_valid_json(tmp_path):
    # sanity: the pipeline reports parse and their verdicts recompute
    d = tmp_path / "probe"
    d.mkdir()
    _pipeline(str(d))
    doc = json.loads((d / "residual_rep.json").read_text())
    for c in doc["checks"]:
        if c["tolerance"] is not None and "max_abs" in c["values"]:
            assert c["pass"] == (c["values"]["max_abs"] <= c["tolerance"])
