"""The zero rule: every "vanishes", "is constant", "is zero" and "is isotropic"
test compares a quantity with a scale in its own units (lorsurf.errors.negligible),
so no verdict changes under a homothety x -> lam x or the gauge u -> a u, v -> b v.
"""

import contextlib
import dataclasses
import functools
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lorsurf as ls
from lorsurf import cli, corpus, errors
from lorsurf.chart import base_signs
from lorsurf.cli import main


def run(*argv):
    """Exit code, report and stderr lines (wall time dropped) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = [ln for ln in err.getvalue().splitlines() if "wall time" not in ln]
    return code, json.loads(out.getvalue()) if out.getvalue() else None, lines


def analyze_verdicts(*argv):
    """The check verdicts and the kind counts of an analyze report."""
    code, doc, _ = run("analyze", *argv)
    counts = next(s for s in doc["statuses"] if s["name"] == "classification")["values"]
    return code, {c["name"]: c["pass"] for c in doc["checks"]}, \
        {k: v for k, v in counts.items() if k.startswith("count_")}


# -- the cases that depended on the size of the surface ---------------------------

@pytest.mark.parametrize("domain", ["9:11,9:11", "-11:-9,-11:-9"])
def test_scaled_cone_is_analyzed_as_at_unit_scale(domain):
    # the cone's reference chart on [s - 1, s + 1]^2 is the cone scaled by e^s
    unit = analyze_verdicts("hyperbolic_cone", "--grid", "21x21", "--domain=-1:1,-1:1")
    assert unit == (0, dict.fromkeys(("isotropic", "normal_contract", "reference_match"), True),
                    {"count_first_kind": 441, "count_second_kind": 0,
                     "count_not_general_type": 0})
    assert analyze_verdicts("hyperbolic_cone", "--grid", "21x21", f"--domain={domain}") == unit


@pytest.mark.parametrize("mode, message", [("cmc", "mode cmc requires a constant H field"),
                                           ("minimal", "mode minimal requires H = 0")])
def test_cone_scaled_by_e30_is_refused_as_at_unit_scale(mode, message):
    for domain in ("-1:1,-1:1", "29:31,29:31"):
        code, _, lines = run("residual", "hyperbolic_cone", "--grid", "21x21",
                             f"--domain={domain}", "--mode", mode)
        assert (code, lines) == (2, [f"lorsurf: error: {message}"])


def test_base_lines_spanning_orders_of_magnitude_are_of_general_type(tmp_path):
    # L on the base line runs from sqrt(3)/2 to ~4e10: each node is judged against
    # the base value, not against the largest one
    u, v = np.linspace(0.0, 49.0, 21), np.linspace(0.0, 1.0, 21)
    chart = ls.reference_chart("hyperbolic_cone", u, v)
    ls.canonical_maps_from_lines(u, chart.L[:, chart.v0_index], v, chart.N[chart.u0_index, :],
                                 chart.u0, chart.v0)
    code, _, lines = run("canonicalize", "hyperbolic_cone", "--grid", "21x21",
                         "--domain", "0:49,0:1", "--output", str(tmp_path / "c.json"))
    # F = 2 e^(u + v) grows ~11-fold per source step: the bicubic pull overshoots
    assert (code, lines) == (2, [
        "lorsurf: error: pulled-back F = -367758456192.6661 is not positive at canonical "
        "node (2, 0), (u, v) = (88214.97305747538, -217.49472502559976), source (u, v) = "
        "(39.88444504147698, 0.02129129968154475): the source grid is too coarse for the "
        "canonical maps"])


def test_cylinder_of_radius_1e4_has_a_cmc_pair():
    # the unit cylinder's pair (F = 2, H = 1/2) scaled by 1e4: canonical coordinates
    # stretch by 100, F = 2e4 and H = 0.5e-4, while K = 0
    g = np.linspace(0.0, 1.0, 21)
    for lam in (1.0, 1e4):
        res_p, res_m = ls.cmc_pair(np.zeros((21, 21)), 0.5 / lam, np.sqrt(lam) * g,
                                   np.sqrt(lam) * g)
        assert [(r.eps1, r.eps2) for r in (res_p, res_m)] == [(1, 1), (-1, -1)]
        assert not (res_p.natural_warning or res_m.natural_warning)


def test_perturbed_enneper_K_fails_the_minimal_equation_at_every_scale():
    # Enneper's K perturbed by 10%, scaled by lam: K / lam^2 on grids stretched by
    # sqrt(lam); the residual and its scale max|K| both scale as K
    u, v = np.linspace(1.0, 2.0, 41), np.linspace(-1.0, 0.0, 41)
    U, V = np.meshgrid(u, v, indexing="ij")
    K = -4.0 / (U - V) ** 4 * (1.0 + 0.1 * np.sin(3.0 * U) * np.cos(2.0 * V))
    unit = ls.minimal_residual(K, u, v)
    for lam in (1.0, 1e3, 1e6):
        rep = ls.minimal_residual(K / lam**2, np.sqrt(lam) * u, np.sqrt(lam) * v)
        assert not errors.within([rep.max_abs], ls.REL_TOL * rep.scale)
        assert rep.max_abs / rep.scale == pytest.approx(unit.max_abs / unit.scale, rel=1e-9)


def test_cylinder_pair_is_not_congruent_at_any_scale():
    # the members of the cylinder's cmc pair differ by more than a scale in L and N
    g = np.linspace(0.0, 1.0, 21)
    a, b = ls.cmc_pair(np.zeros((21, 21)), 0.5, g, g)
    unit = ls.congruence_check(a.mesh, b.mesh, g, g)
    for lam in (1.0, 1e-7, 1e7):
        rep = ls.congruence_check(lam * a.mesh, lam * b.mesh, g, g)
        assert rep.verdict is ls.CongruenceVerdict.DISTINCT
        for name in "LN":
            assert rep.mismatch[name] == pytest.approx(unit.mismatch[name], rel=1e-9)
        assert rep.mismatch_flipped["M"] == pytest.approx(unit.mismatch_flipped["M"], rel=1e-9)
        assert rep.mismatch["L"] > 1.0


def test_a_boosted_cylinder_pair_differs_in_L_alone():
    # a radius-1e-7 pair in a strongly boosted frame: the u tangents are ~4800 times
    # longer than the v tangents, and L is still judged against its own x_uu
    g = np.sqrt(1e-7) * np.linspace(0.0, 1.0, 21)
    a, b = ls.cmc_pair(np.zeros((21, 21)), 0.5e7, g, g)
    rep = ls.congruence_check(a.mesh, b.mesh, g, g)
    assert rep.verdict is ls.CongruenceVerdict.DISTINCT
    assert rep.mismatch["L"] > 1e-4 and rep.mismatch_flipped["M"] > 0.1


@pytest.mark.parametrize("lam", [1.0, 1e-7, 1e7])
def test_a_plane_is_congruent_to_its_moved_copy(lam):
    # every second derivative of a plane is rounding noise: its L, M, N keep a
    # scale through the extent of the mesh
    u, v = np.linspace(1.0, 2.0, 31), np.linspace(-1.0, 0.0, 31)
    U, V = np.meshgrid(u, v, indexing="ij")
    plane = lam * np.stack([2.0 * U, U, V], axis=-1)
    for rapidity in (0.3, 2.0):
        A = ls.boost(rapidity) @ ls.spatial_rotation(1.0)
        moved = plane @ A.T + lam * np.array([5.0, -3.0, 2.0])
        rep = ls.congruence_check(plane, moved, u, v)
        assert rep.verdict is ls.CongruenceVerdict.CONGRUENT, rep.mismatch


def test_a_base_value_3_percent_of_a_step_off_is_not_a_node():
    # on a span of 2e-7 the nodes are 1e-8 apart: u0 = 3e-10 is not the node u = 0
    code, _, lines = run("analyze", "hyperbolic_cone", "--grid", "21x21",
                         "--domain=-1e-7:1e-7,-1e-7:1e-7", "--u0", "3e-10")
    assert (code, lines) == (2, ["lorsurf: error: u_grid: base value 3e-10 is not a grid node"])
    assert ls.grid_index(np.linspace(-1e-7, 1e-7, 21), 1e-17) == 10


def test_seed_conditions_are_judged_against_their_own_scales():
    # two timelike vectors of length ~1e-6 are no null frame, however small F0 is
    with pytest.raises(ls.InvalidFrameError, match="X\\^2"):
        ls.initial_frame(1e-12, X=[1e-6, 0.0, 0.0], Y=[-1e-6, 1e-7, 0.0], l=[0.0, 0.0, 1.0])
    # while a valid seed stays valid at any size of X and Y
    st0 = ls.initial_frame(2e-12)
    for c in (1e-6, 1.0, 1e6):
        ls.initial_frame(2e-12, X=c * st0.X, Y=st0.Y / c, l=st0.l)


# -- every verdict at every scale and gauge -----------------------------------------

def scaled_entry(name, lam, a, b):
    """The corpus entry x -> lam * x(a u, b v), on its domains divided by (a, b)."""
    entry = ls.get(name)
    p = entry.provider

    def jet(u, v):
        j = p.jet(a * u, b * v)
        return ls.SurfaceJet2(x=lam * j.x, x_u=lam * a * j.x_u, x_v=lam * b * j.x_v,
                              x_uu=lam * a * a * j.x_uu, x_uv=lam * a * b * j.x_uv,
                              x_vv=lam * b * b * j.x_vv)

    def field(f, c):
        return lambda u, v: c * f(a * u, b * v)

    factors = {"F": lam * lam * a * b, "L": lam * a * a, "M": lam * a * b, "N": lam * b * b,
               "K": 1.0 / lam**2, "H": 1.0 / lam}
    reference = dataclasses.replace(entry.reference, **{
        k: field(getattr(entry.reference, k), c) for k, c in factors.items()})
    singular = None if p.singular_set is None else (lambda u, v: p.singular_set(a * u, b * v))
    u0, u1, v0, v1 = p.domain
    d0, d1, d2, d3 = entry.default_domain
    return dataclasses.replace(
        entry, name="scaled", reference=reference, default_domain=(d0 / a, d1 / a, d2 / b, d3 / b),
        provider=ls.SurfaceProvider(jet=jet, domain=(u0 / a, u1 / a, v0 / b, v1 / b),
                                    singular_set=singular))


def field_verdicts(fields, u, v):
    """The zero-rule verdicts of sampled fields F, L, M, N, K, H in null coordinates."""
    i0, j0 = (u.size - 1) // 2, (v.size - 1) // 2
    kinds = ls.kind_field(fields.H, fields.K)
    chart = SimpleNamespace(H=fields.H, K=fields.K, u0_index=i0, v0_index=j0)
    try:
        cli._constant_H(chart, "test")
        constant = True
    except ls.ChartError:
        constant = False
    try:
        ls.canonical_maps_from_lines(u, fields.L[:, j0], v, fields.N[i0, :], u[i0], v[j0])
        lines = True
    except ls.NotGeneralTypeError:
        lines = False
    return {"kinds": [int(np.sum(kinds == k)) for k in (1, -1, 0)],
            "minimal": ls.is_minimal(fields.H, fields.K), "constant_H": constant,
            "base_signs": base_signs(fields.L[i0, j0], fields.M[i0, j0], fields.N[i0, j0]),
            "lines": lines}


@functools.lru_cache(maxsize=None)
def verdicts(name, lam=1.0, a=1.0, b=1.0, n=21):
    """Every zero-rule verdict of a scaled corpus entry on its n^2 default grid."""
    entry = scaled_entry(name, lam, a, b)
    d = entry.default_domain
    u, v = np.linspace(d[0], d[1], n), np.linspace(d[2], d[3], n)
    U, V = np.meshgrid(u, v, indexing="ij")
    reference = SimpleNamespace(**{k: getattr(entry.reference, k)(U, V) for k in "FLMNKH"})
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(corpus._REGISTRY, "scaled", entry)
        code, checks, counts = analyze_verdicts("scaled", "--grid", f"{n}x{n}")
    return {"reference": field_verdicts(reference, u, v),
            "provider": field_verdicts(ls.fundamental_forms(entry.provider(U, V)), u, v),
            "analyze": (code, checks, counts)}


def test_unit_scale_verdicts_of_the_sphere_and_the_cone():
    sphere, cone = verdicts("lorentz_sphere"), verdicts("hyperbolic_cone")
    for fields in ("reference", "provider"):
        assert sphere[fields]["kinds"] == [0, 0, 441]
        assert sphere[fields]["base_signs"] is None
        assert cone[fields]["kinds"] == [441, 0, 0]  # the provider's K carries ~1e-15 noise
    assert sphere["reference"]["lines"] is False


def motion_verdict(name, lam, a, b, rapidity, angle, reflect, n=21):
    """congruence_check's verdict on a scaled corpus mesh and its image under a motion:
    a boost after a rotation, after the reflection x3 -> -x3 if `reflect`, then a
    translation of size lam."""
    entry = scaled_entry(name, lam, a, b)
    d = entry.default_domain
    u, v = np.linspace(d[0], d[1], n), np.linspace(d[2], d[3], n)
    mesh = entry.provider(*np.meshgrid(u, v, indexing="ij")).x
    A = ls.boost(rapidity) @ ls.spatial_rotation(angle)
    if reflect:
        A = A @ np.diag([1.0, 1.0, -1.0])
    moved = mesh @ A.T + lam * np.array([1.0, -2.0, 0.5])
    return ls.congruence_check(mesh, moved, u, v).verdict


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(ls.names()), log_lam=st.floats(-6.0, 6.0),
       log_a=st.floats(-3.0, 3.0), log_b=st.floats(-3.0, 3.0),
       rapidity=st.floats(-2.0, 2.0), angle=st.floats(0.0, 2.0 * np.pi), reflect=st.booleans())
@example(name="lorentz_sphere", log_lam=6.0, log_a=-3.0, log_b=3.0,
         rapidity=2.0, angle=1.0, reflect=False)
@example(name="hyperbolic_cone", log_lam=-6.0, log_a=3.0, log_b=-3.0,
         rapidity=-2.0, angle=4.0, reflect=True)
@example(name="cylinder", log_lam=6.0, log_a=3.0, log_b=3.0,
         rapidity=0.5, angle=2.0, reflect=False)
def test_verdicts_do_not_depend_on_scale_or_gauge(name, log_lam, log_a, log_b,
                                                  rapidity, angle, reflect):
    assert verdicts(name, 10.0**log_lam, 10.0**log_a, 10.0**log_b) == verdicts(name)
    motion = (rapidity, angle, reflect)
    expected = ls.CongruenceVerdict.NON_PROPER if reflect else ls.CongruenceVerdict.CONGRUENT
    assert motion_verdict(name, 10.0**log_lam, 10.0**log_a, 10.0**log_b, *motion) == \
        motion_verdict(name, 1.0, 1.0, 1.0, *motion) == expected


def test_relative_reads_zero_over_zero_as_zero():
    x = np.array([0.0, 0.0, 1.0, -2.0, np.nan])
    scale = np.array([0.0, 1.0, 0.0, 4.0, 1.0])
    np.testing.assert_array_equal(errors.relative(x, scale), [0.0, 0.0, np.inf, 0.5, np.nan])
    np.testing.assert_array_equal(errors.negligible(x, scale, 0.5),
                                  [True, True, False, True, False])
