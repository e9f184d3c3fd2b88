import contextlib
import functools
import inspect
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lorsurf as ls
import lorsurf.minkowski as mk
from lorsurf.errors import node_at, refuse, relative
from lorsurf.stencils import _BLOCK
from lorsurf.reconstruct import (_SWAP_XY, FormMismatch, _interior_form_blocks, _march,
                                  _midpoints, _Place)
from lorsurf.splines import hermite_midpoints, notaknot_slopes
from lorsurf.surfaces import FundamentalData, SurfaceJet2

from conftest import enneper1_chart, random_grid


# -- the mesh forms as whole-grid component-last formulas ----------------------------------
# A frozen copy of the stencils, jets and forms that the library computes
# component-major from shared node differences: the oracle of its bits.

def _reference_diffs(f, t, axis):
    fm = np.moveaxis(np.asarray(f, dtype=float), axis, 0)
    if fm.shape[0] < 3:
        raise ls.StencilError("derivative stencils need at least 3 nodes along the axis")
    h = np.diff(np.asarray(t, dtype=float).reshape((-1,) + (1,) * (fm.ndim - 1)), axis=0)
    e = int(np.frexp(np.max(h))[1])
    return fm, np.diff(fm, axis=0), np.ldexp(h, -e), e


def reference_gradient(f, t, axis):
    fm, d, h, e = _reference_diffs(f, t, axis)
    out = np.empty_like(fm)
    hm, hp = h[:-1], h[1:]
    dm, dp = d[:-1], d[1:]
    out[1:-1] = (hm * hm * dp + hp * hp * dm) / (hm * hp * (hm + hp))
    curv_l = 2.0 * (h[0] * d[1] - h[1] * d[0]) / (h[0] * h[1] * (h[0] + h[1]))
    out[0] = d[0] / h[0] - 0.5 * h[0] * curv_l
    curv_r = 2.0 * (h[-2] * d[-1] - h[-1] * d[-2]) / (h[-2] * h[-1] * (h[-2] + h[-1]))
    out[-1] = d[-1] / h[-1] + 0.5 * h[-1] * curv_r
    return np.moveaxis(np.ldexp(out, -e, out=out), 0, axis)


def reference_second_derivative(f, t, axis):
    fm, d, h, e = _reference_diffs(f, t, axis)
    out = np.empty_like(fm)
    hm, hp = h[:-1], h[1:]
    dm, dp = d[:-1], d[1:]
    out[1:-1] = 2.0 * (hm * dp - hp * dm) / (hm * hp * (hm + hp))
    out[0] = out[1]
    out[-1] = out[-2]
    return np.moveaxis(np.ldexp(out, -2 * e, out=out), 0, axis)


def reference_jets(mesh, u, v):
    x_u = reference_gradient(mesh, u, axis=0)
    return SurfaceJet2(x=mesh, x_u=x_u, x_v=reference_gradient(mesh, v, axis=1),
                       x_uu=reference_second_derivative(mesh, u, axis=0),
                       x_uv=reference_gradient(x_u, v, axis=1),
                       x_vv=reference_second_derivative(mesh, v, axis=1))


def _inner(a, b):
    return a[..., 0] * b[..., 0] * -1.0 + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def reference_forms(jet, tol=1e-12):  # tol is fundamental_forms' METRIC_TOL
    for name in ("x", "x_u", "x_v", "x_uu", "x_uv", "x_vv"):
        if not np.all(np.isfinite(getattr(jet, name))):
            raise ValueError(f"non-finite values in jet field {name}")
    E, F, G = _inner(jet.x_u, jet.x_u), _inner(jet.x_u, jet.x_v), _inner(jet.x_v, jet.x_v)
    w = np.cross(jet.x_u, jet.x_v)
    w[..., 0] = -w[..., 0]
    ww = _inner(w, w)
    scale = np.maximum(np.abs(E), np.maximum(np.abs(F), np.abs(G)))
    disc = E * G - F * F
    refuse(ls.DegenerateMetricError, np.abs(disc) <= tol * scale**2, "EG - F^2 vanishes")
    refuse(ls.NotLorentzSurfaceError, ww <= tol * scale**2, "normal direction not spacelike")
    l = w / np.sqrt(ww)[..., None]
    L, M, N = _inner(jet.x_uu, l), _inner(jet.x_uv, l), _inner(jet.x_vv, l)
    K = (L * N - M * M) / disc
    H = (E * N - 2.0 * F * M + G * L) / (2.0 * disc)
    return FundamentalData(E=E, F=F, G=G, L=L, M=M, N=N, K=K, H=H, l=l)


JET_FIELDS = ("x", "x_u", "x_v", "x_uu", "x_uv", "x_vv")


def interior(jets):
    return SurfaceJet2(**{k: getattr(jets, k)[1:-1, 1:-1] for k in JET_FIELDS})


def interior_forms(mesh, u, v):
    return reference_forms(interior(reference_jets(mesh, u, v)))


def constant_chart(F0, H0, n=61, eps=(1, 1), base=(0, 0)):
    g = np.linspace(0.0, 1.0, n)
    return ls.Chart(u_grid=g, v_grid=g, F=np.full((n, n), F0), H=np.full((n, n), H0),
                    u0_index=base[0], v0_index=base[1],
                    eps1=eps[0], eps2=eps[1]).validate()


# -- initial frames -------------------------------------------------------------

def test_standard_frame_F0_2():
    st = ls.initial_frame(2.0)
    np.testing.assert_allclose(st.Y, [-1.0, 1.0, 0.0])
    assert mk.inner(st.X, st.Y) == 2.0
    assert mk.inner(st.X, st.X) == 0.0 and mk.inner(st.Y, st.Y) == 0.0
    assert mk.det3(st.X, st.Y, st.l) == 2.0


def test_standard_frame_F0_half():
    st = ls.initial_frame(0.5)
    np.testing.assert_allclose(st.Y, [-0.25, 0.25, 0.0])
    assert np.isclose(mk.inner(st.X, st.Y), 0.5)


def test_custom_frame_validation():
    with pytest.raises(ls.InvalidFrameError):
        ls.initial_frame(2.0, X=[1.0, 0.0, 0.0], Y=[-1.0, 1.0, 0.0], l=[0.0, 0.0, 1.0])
    with pytest.raises(ls.InvalidFrameError):
        ls.initial_frame(-1.0)
    with pytest.raises(ls.InvalidFrameError):
        ls.initial_frame(2.0, X=[1.0, 1.0, 0.0])  # partial custom seed
    # a proper motion of the standard seed is a valid seed
    B = ls.boost(0.3)
    st = ls.initial_frame(2.0)
    ok = ls.initial_frame(2.0, X=B @ st.X, Y=B @ st.Y, l=B @ st.l, x=[1.0, 2.0, 3.0])
    np.testing.assert_allclose(ok.x, [1.0, 2.0, 3.0])
    # negatively oriented frame rejected
    with pytest.raises(ls.InvalidFrameError):
        ls.initial_frame(2.0, X=st.Y, Y=st.X, l=st.l)
    # every vector must be 3 finite numbers
    for bad in (["a", 1.0, 0.0], [1.0, 1.0], [[1.0, 1.0], 0.0, 0.0], [True, True, False],
                [1.0, np.inf, 0.0], "abc", {"x": 1.0}):
        with pytest.raises(ls.InvalidFrameError):
            ls.initial_frame(2.0, X=bad, Y=st.Y, l=st.l)
        with pytest.raises(ls.InvalidFrameError):
            ls.initial_frame(2.0, X=st.X, Y=st.Y, l=st.l, x=bad)


def test_standard_frame_on_a_huge_F0_and_a_custom_seed_that_overflows():
    # the standard seed is exact by construction; a custom seed whose frame
    # conditions overflow cannot be checked, so it is refused
    st = ls.initial_frame(1e300)
    assert st.Y[1] == 5e299 and mk.det3(st.X, st.Y, st.l) == 1e300
    with pytest.raises(ls.InvalidFrameError, match="nan"):
        ls.initial_frame(1e300, X=st.X, Y=st.Y, l=st.l)


# -- reconstruction of the corpus surfaces ----------------------------------------

def test_cylinder_reconstruction_matches_corpus():
    n = 81
    g = np.linspace(0.0, 1.0, n)
    chart = ls.reference_chart("cylinder", g, g)
    res = ls.reconstruct(chart)
    assert not res.natural_warning
    fd = interior_forms(res.mesh, g, g)
    h = g[1] - g[0]
    assert np.max(np.abs(fd.F - 2.0)) <= 2 * h**2
    for coeff, want in ((fd.L, 1.0), (fd.M, 1.0), (fd.N, 1.0)):
        assert np.max(np.abs(coeff - want)) <= 2 * h**2
    U, V = np.meshgrid(g, g, indexing="ij")
    corpus_mesh = ls.get("cylinder").position(U, V)
    rep = ls.congruence_check(res.mesh, corpus_mesh, g, g, tol=1e-4)
    assert rep.verdict is ls.CongruenceVerdict.CONGRUENT


def test_hyperbolic_cylinder_reconstruction():
    n = 81
    g = np.linspace(0.0, 1.0, n)
    chart = ls.reference_chart("hyperbolic_cylinder", g, g)
    res = ls.reconstruct(chart)
    fd = interior_forms(res.mesh, g, g)
    h = g[1] - g[0]
    assert np.max(np.abs(fd.L + 1.0)) <= 2 * h**2
    assert np.max(np.abs(fd.M - 1.0)) <= 2 * h**2
    assert np.max(np.abs(fd.N + 1.0)) <= 2 * h**2


def test_enneper_round_trip():
    n = 61
    chart = enneper1_chart(n)
    res = ls.reconstruct(chart)
    h = 1.0 / (n - 1)
    assert res.form_mismatch.f_max <= 5 * h**2
    assert res.form_mismatch.h_max <= 5 * h**2
    assert res.form_mismatch.e_max <= 5 * h**2
    assert res.form_mismatch.g_max <= 5 * h**2


def test_invariant_drift_is_rk4_order():
    drifts = []
    for n in (61, 121):
        res = ls.reconstruct(enneper1_chart(n))
        drifts.append(res.max_invariant_drift)
    assert drifts[0] / drifts[1] >= 12.0


def test_seed_equivariance():
    n = 61
    g = np.linspace(0.0, 1.0, n)
    chart = ls.reference_chart("cylinder", g, g)
    res1 = ls.reconstruct(chart)
    st = ls.initial_frame(2.0)
    A = ls.boost(0.8) @ ls.spatial_rotation(0.5)
    seed2 = ls.FrameState(X=A @ st.X, Y=A @ st.Y, l=A @ st.l,
                          x=np.array([2.0, -1.0, 0.5]))
    res2 = ls.reconstruct(chart, seed=seed2)
    rep = ls.congruence_check(res1.mesh, res2.mesh, g, g, tol=1e-8)
    assert rep.verdict is ls.CongruenceVerdict.CONGRUENT


RECONSTRUCTIBLE = [name for name in ls.names() if name != "lorentz_sphere"]  # not of general type


@functools.lru_cache(maxsize=None)
def standard_reconstruction(name):
    """The chart of a corpus entry at 41^2 on its default domain, and its mesh from the standard seed."""
    entry = ls.get(name)
    a, b, c, d = entry.default_domain
    chart = ls.reference_chart(name, np.linspace(a, b, 41), np.linspace(c, d, 41))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the cone's 41^2 residual warns
        return chart, ls.reconstruct(chart).mesh


@pytest.mark.parametrize("name", RECONSTRUCTIBLE)
@settings(max_examples=5, deadline=None)
@given(rapidity=st.floats(-2.0, 2.0), angle=st.floats(0.0, 2.0 * np.pi),
       shift=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_a_moved_seed_moves_the_mesh_pointwise(name, rapidity, angle, shift):
    # the frame system and each RK4 step are linear in (X, Y, l, x), so the
    # seed moved by A = boost @ rotation and c gives A mesh + c up to rounding
    # (1.1e-15 relative at worst on a scratch run), not only congruent forms
    chart, mesh = standard_reconstruction(name)
    st0 = ls.initial_frame(chart.F[chart.u0_index, chart.v0_index])
    A = ls.boost(rapidity) @ ls.spatial_rotation(angle)
    c = np.array(shift)
    seed = ls.FrameState(X=A @ st0.X, Y=A @ st0.Y, l=A @ st0.l, x=A @ st0.x + c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        moved = ls.reconstruct(chart, seed=seed).mesh
    want = mesh @ A.T + c
    assert np.max(np.abs(moved - want)) <= 4e-15 * (1.0 + np.max(np.abs(want)))


def test_seed_must_match_chart_F0():
    chart = constant_chart(2.0, 0.5, n=11)
    wrong = ls.initial_frame(3.0)
    with pytest.raises(ls.InvalidFrameError):
        ls.reconstruct(chart, seed=wrong)


# -- integrability diagnostics ------------------------------------------------------

def test_planted_defect_keeps_compat_residual_large():
    for n in (41, 81):
        bad = constant_chart(2.1, 0.5, n=n)
        with pytest.warns(UserWarning):
            res = ls.reconstruct(bad)
        assert res.natural_warning
        assert np.isclose(res.natural_max_abs, 0.1025, atol=1e-12)
        nat = ls.natural_residual(bad)
        assert (res.natural_max_abs, res.natural_tol) == (nat.max_abs, nat.tol)
        assert res.max_compat >= 1e-3
        good = ls.reconstruct(constant_chart(2.0, 0.5, n=n))
        h = 1.0 / (n - 1)
        # cylinder truncation terms cancel for d_v X - d_u Y; the l probe
        # carries the usual central-difference error (h^2 / 6) |l_uuu|
        assert good.max_compat <= 1e-10
        assert good.max_compat_l <= h**2


def test_compat_shrinks_for_consistent_chart():
    values = [ls.reconstruct(enneper1_chart(n)).max_compat for n in (61, 121)]
    # order >= 2 (here the truncation terms cancel and RK4 order shows)
    assert ls.convergence_order(values[0], values[1]) >= 1.9


@functools.lru_cache(maxsize=None)
def _clean_enneper1_compat(n):
    return ls.reconstruct(enneper1_chart(n)).max_compat


def _planted(chart, family, a):
    """`chart` with F or H off by `a` on the base line v = v0 (F_v0, H_v0),
    on the line u = u0 (F_u0), or at one node off both lines (F_node, H_node)."""
    F, H = chart.F.copy(), chart.H.copy()
    n = chart.shape[0]
    node = (n // 4, n // 4)
    field, at = {"F_v0": (F, np.s_[:, chart.v0_index]), "H_v0": (H, np.s_[:, chart.v0_index]),
                 "F_u0": (F, np.s_[chart.u0_index, :]), "F_node": (F, node),
                 "H_node": (H, node)}[family]
    field[at] += a
    return chart.with_fields(F=F, H=H).validate()


@pytest.mark.parametrize("family", ["F_v0", "H_v0", "F_u0", "F_node", "H_node"])
@pytest.mark.parametrize("n", [41, 81])
def test_max_compat_rises_on_every_planted_defect_family(n, family):
    # F (0.5 to 4.5 on this chart) or H (0) off by 1e-4: the compatibility
    # residual rises at least 100x over the clean chart's on the same grid;
    # the least rise is ~850x, for the one-node H defect at 41^2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # some plants warn, some do not
        res = ls.reconstruct(_planted(enneper1_chart(n), family, 1e-4))
    assert res.max_compat >= 100.0 * _clean_enneper1_compat(n) > 0.0


_G7 = np.linspace(0.0, 6.0, 7)
_SPIKE = np.array([1.0, 1.0, 1.0, 60.0, 1.0, 1.0, 1.0])


def _chart7(F, H=None):
    return ls.Chart(u_grid=_G7, v_grid=_G7, F=F, H=np.zeros((7, 7)) if H is None else H,
                    u0_index=0, v0_index=0, eps1=1, eps2=1).validate()


def _abort(chart):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # natural-equation warning, overflow in the march
        with pytest.raises(ls.ReconstructionAbort) as err:
            ls.reconstruct(chart)
    return err.value


def test_abort_on_F_spline_undershoot():
    # F spikes along u on every column: the base line's spline dips below 0
    err = _abort(_chart7(np.tile(_SPIKE[:, None], (1, 7))))
    assert str(err) == ("F <= 0 in the base line spline at (u, v) = (1.5, 0.0), "
                        "between nodes (1, 0) and (2, 0)")
    assert err.node == (1, 0)


def _spiked_chart(nu, nv, i0, j0, spikes):
    """A flat chart on unit steps whose F is 60 at the nodes `spikes`: each spike
    drags the spline along its line below 0 in the intervals beside it."""
    F = np.ones((nu, nv))
    F[tuple(np.transpose(spikes))] = 60.0
    return ls.Chart(u_grid=np.arange(float(nu)), v_grid=np.arange(float(nv)), F=F,
                    H=np.zeros((nu, nv)), u0_index=i0, v0_index=j0, eps1=1, eps2=1).validate()


@pytest.mark.parametrize("nu, nv, i0, j0, spikes, between", [
    (5, 80, 0, 40, [(3, 70), (1, 50), (4, 20), (2, 20)], ((2, 18), (2, 19))),
    (5, 80, 0, 40, [(3, 70), (1, 66), (0, 66)], ((0, 64), (0, 65))),
    (5, 80, 0, 79, [(3, 33), (1, 31)], ((1, 29), (1, 30))),
    (80, 5, 50, 2, [(70, 2), (40, 2)], ((38, 2), (39, 2))),
    (80, 5, 79, 2, [(33, 2)], ((31, 2), (32, 2))),
], ids=["backward_run_lowest_line", "block_edge", "backward_only", "base_line",
        "base_line_backward"])
def test_abort_names_the_first_nonpositive_midpoint_in_c_order(nu, nv, i0, j0, spikes, between):
    # every midpoint is tested before the first step, across blocks of _BLOCK
    # intervals, and the first in (interval, line) order is named, whichever
    # run of the march would meet it first
    err = _abort(_spiked_chart(nu, nv, i0, j0, spikes))
    (i, j), (i2, j2) = between
    stage = "base line" if nv == 5 else "columns"
    assert str(err) == (f"F <= 0 in the {stage} spline at (u, v) = ({(i + i2) / 2!r}, "
                        f"{(j + j2) / 2!r}), between nodes ({i}, {j}) and ({i2}, {j2})")
    assert err.node == (i, j)


@pytest.mark.parametrize("n", [2, 3, 4, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, 70])
@pytest.mark.parametrize("m", [1, 5])
def test_blocked_midpoints_equal_whole_line_midpoints_bit_for_bit(n, m):
    rng = np.random.default_rng(n * m)
    t = random_grid(rng, 0.0, 1.0, n)
    lines = tuple(rng.standard_normal((3, n, m)) + [[[3.0]], [[0.0]], [[0.0]]])
    slopes = [notaknot_slopes(t, c) for c in lines]
    whole = whole_line_samples(t, *lines)
    assert bits(slopes[0]) == bits(whole[0])
    blocks = [_midpoints(t, lines, slopes, k, min(k + _BLOCK, n - 1))
              for k in range(0, n - 1, _BLOCK)]
    assert bits(tuple(np.concatenate(c) for c in zip(*blocks))) == bits(whole[1])


def _late_H():
    H = np.zeros((7, 7))
    H[:, 4:] = 1e100  # M = F H overflows the columns' states, not the base line's
    return H


@pytest.mark.parametrize("F, H, message, node", [
    (np.tile(_SPIKE[None, :], (7, 1)), None,
     "F <= 0 in the columns spline at (u, v) = (0.0, 1.5), between nodes (0, 1) and (0, 2)",
     (0, 1)),
    (np.ones((7, 7)), _late_H(),
     "non-finite frame state in the columns march at node (0, 2), (u, v) = (0.0, 2.0)",
     (0, 2)),
    (np.ones((7, 7)), np.full((7, 7), 1e100),
     "non-finite frame state in the base line march at node (2, 0), (u, v) = (2.0, 0.0)",
     (2, 0)),
], ids=["columns", "non_finite", "non_finite_base_line"])
def test_abort_names_stage_node_and_place(F, H, message, node):
    err = _abort(_chart7(F, H))
    assert str(err) == message and err.node == node
    assert all(type(k) is int for k in err.node)


# -- CMC pair and minimal reconstruction ---------------------------------------------

def test_cmc_pair_cylinders():
    n = 81
    g = np.linspace(0.0, 1.0, n)
    res_p, res_m = ls.cmc_pair(np.zeros((n, n)), 0.5, g, g)
    assert (res_p.eps1, res_p.eps2) == (1, 1)
    assert (res_m.eps1, res_m.eps2) == (-1, -1)
    fd_p = interior_forms(res_p.mesh, g, g)
    fd_m = interior_forms(res_m.mesh, g, g)
    tol = 1e-4
    assert np.max(np.abs(fd_p.L - 1.0)) <= tol and np.max(np.abs(fd_p.N - 1.0)) <= tol
    assert np.max(np.abs(fd_m.L + 1.0)) <= tol and np.max(np.abs(fd_m.N + 1.0)) <= tol
    assert np.max(np.abs(fd_p.M - 1.0)) <= tol and np.max(np.abs(fd_m.M - 1.0)) <= tol
    rep = ls.congruence_check(res_p.mesh, res_m.mesh, g, g, tol=tol)
    assert rep.verdict is ls.CongruenceVerdict.DISTINCT


def test_cmc_pair_negative_H_flips_M():
    n = 41
    g = np.linspace(0.0, 1.0, n)
    res_p, res_m = ls.cmc_pair(np.zeros((n, n)), -0.5, g, g)
    fd_p = interior_forms(res_p.mesh, g, g)
    assert np.max(np.abs(fd_p.M + 1.0)) <= 1e-3   # M = F H = -1
    assert np.max(np.abs(fd_p.H + 0.5)) <= 1e-3


def test_cmc_pair_rejects_degenerate():
    g = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ls.NotGeneralTypeError):
        ls.cmc_pair(np.ones((11, 11)), 1.0, g, g)


def test_cmc_pair_rejects_zero_H():
    g = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ls.ChartError, match="fixed by K up to motion") as err:
        ls.cmc_pair(np.zeros((11, 11)), 0.0, g, g)
    assert err.value.exit_code == 2


def test_minimal_from_K_enneper1():
    n = 81
    u = np.linspace(1.0, 2.0, n)
    v = np.linspace(-1.0, 0.0, n)
    U, V = np.meshgrid(u, v, indexing="ij")
    res = ls.minimal_from_K(-4.0 / (U - V) ** 4, u, v)
    assert (res.eps1, res.eps2) == (1, 1)
    h = 1.0 / (n - 1)
    assert res.form_mismatch.f_max <= 5 * h**2
    rep = ls.congruence_check(res.mesh, ls.get("enneper1").position(U, V), u, v,
                              tol=50 * h**2)
    assert rep.verdict is ls.CongruenceVerdict.CONGRUENT


def test_minimal_from_K_enneper2():
    n = 81
    u = np.linspace(1.0, 2.0, n)
    U, V = np.meshgrid(u, u, indexing="ij")
    res = ls.minimal_from_K(4.0 / (U + V) ** 4, u, u)
    assert (res.eps1, res.eps2) == (1, -1)
    rep = ls.congruence_check(res.mesh, ls.get("enneper2").position(U, V), u, u,
                              tol=50 / (n - 1) ** 2)
    assert rep.verdict is ls.CongruenceVerdict.CONGRUENT


def test_minimal_from_K_refuses_invalid_K():
    g = np.linspace(0.0, 1.0, 11)
    K = np.full((11, 11), -1.0)    # minimal residual is identically 1, scale 1
    with pytest.raises(ls.NaturalEquationError, match=r"^K violates the minimal natural "
                       r"equation \(max residual 1, tol 0\.001\)$"):
        ls.minimal_from_K(K, g, g)
    # a K that violates the equation is the curvature of no surface: nothing overrides that
    for fn, args in ((ls.minimal_from_K, (K, g, g)), (ls.cmc_pair, (K, 0.5, g, g))):
        assert "force" not in inspect.signature(fn).parameters
        with pytest.raises(TypeError, match="force"):
            fn(*args, force=True)


# -- congruence loads ------------------------------------------------------------------

def test_congruence_boosted_mesh():
    g = np.linspace(0.0, 1.0, 41)
    U, V = np.meshgrid(g, g, indexing="ij")
    mesh = ls.get("cylinder").position(U, V)
    A = ls.boost(1.2) @ ls.spatial_rotation(0.7)
    moved = mesh @ A.T + np.array([5.0, -3.0, 1.0])
    rep = ls.congruence_check(mesh, moved, g, g, tol=1e-8)
    assert rep.verdict is ls.CongruenceVerdict.CONGRUENT


def test_congruence_reflection_is_non_proper():
    g = np.linspace(0.0, 1.0, 41)
    U, V = np.meshgrid(g, g, indexing="ij")
    mesh = ls.get("cylinder").position(U, V)
    reflected = mesh @ np.diag([-1.0, 1.0, 1.0])
    rep = ls.congruence_check(mesh, reflected, g, g, tol=1e-8)
    assert rep.verdict is ls.CongruenceVerdict.NON_PROPER


REFLECTIONS = [np.diag(d) for d in ((-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0))]


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(ls.names()), rapidity=st.floats(-2.0, 2.0),
       angle=st.floats(0.0, 2.0 * np.pi), shift=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
       reflection=st.sampled_from(REFLECTIONS))
def test_congruence_of_a_drawn_motion(name, rapidity, angle, shift, reflection):
    # the Bonnet-type theorem: a proper motion keeps F, L, M and N, an
    # improper one (det -1) keeps F and flips the sign of L, M and N
    entry = ls.get(name)
    a, b, c, d = entry.default_domain
    u, v = np.linspace(a, b, 41), np.linspace(c, d, 41)
    mesh = entry.position(*np.meshgrid(u, v, indexing="ij"))
    A = ls.boost(rapidity) @ ls.spatial_rotation(angle)
    moved = ls.congruence_check(mesh, mesh @ A.T + shift, u, v)
    assert moved.verdict is ls.CongruenceVerdict.CONGRUENT, moved
    mirrored = ls.congruence_check(mesh, mesh @ (A @ reflection).T + shift, u, v)
    assert mirrored.verdict is ls.CongruenceVerdict.NON_PROPER, mirrored


def test_congruence_needs_a_finite_tolerance():
    g = np.linspace(0.0, 1.0, 11)
    U, V = np.meshgrid(g, g, indexing="ij")
    mesh = ls.get("cylinder").position(U, V)
    assert ls.congruence_check(mesh, mesh, g, g, tol=0.0).verdict is ls.CongruenceVerdict.CONGRUENT
    for tol in (np.inf, np.nan):
        rep = ls.congruence_check(mesh, mesh, g, g, tol=tol)
        assert rep.verdict is ls.CongruenceVerdict.DISTINCT


def test_congruence_pair_members_differ():
    g = np.linspace(0.0, 1.0, 41)
    U, V = np.meshgrid(g, g, indexing="ij")
    a = ls.get("cylinder").position(U, V)
    b = ls.get("hyperbolic_cylinder").position(U, V)
    rep = ls.congruence_check(a, b, g, g, tol=1e-4)
    assert rep.verdict is ls.CongruenceVerdict.DISTINCT
    # F agrees (up to FD truncation) but M does not flip with L, N: neither proper
    # nor non-proper.  The mismatches are relative to each coefficient's scale at
    # the node (at most 2 for a sign flip); the flips of L, N read 1.14, of M 0.73
    assert rep.mismatch["F"] <= 1e-3
    assert rep.mismatch["L"] > 1.0 and rep.mismatch["N"] > 1.0
    assert rep.mismatch_flipped["M"] > 0.5


# -- blocked diagnostics against the whole-grid formulas --------------------------------

def _central(A, t, axis):
    n = t.size
    hi = [slice(None)] * A.ndim
    lo = [slice(None)] * A.ndim
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    shape = [1] * A.ndim
    shape[axis] = n - 2
    return (A[tuple(hi)] - A[tuple(lo)]) / (t[2:] - t[:-2]).reshape(shape)


def _euclid(A):
    return np.sqrt(np.sum(A * A, axis=-1))


def _rhs_u(S, F, dF, P, Q):
    """Reference u-family right-hand side on states S (..., 4, 3); P = L drives X, Q = M."""
    X, Y, l = S[..., 0, :], S[..., 1, :], S[..., 2, :]
    a = np.asarray(dF / F)[..., None]
    p = np.asarray(P)[..., None]
    q = np.asarray(Q)[..., None]
    iF = np.asarray(1.0 / F)[..., None]
    out = np.empty_like(S)
    out[..., 0, :] = a * X + p * l
    out[..., 1, :] = q * l
    out[..., 2, :] = -(q * iF) * X - (p * iF) * Y
    out[..., 3, :] = X
    return out


def _rk4_step(S, h, c0, cm, c1):
    """Reference RK4 step: the march's oracle, kept apart from the library's kernel."""
    k1 = _rhs_u(S, *c0)
    k2 = _rhs_u(S + 0.5 * h * k1, *cm)
    k3 = _rhs_u(S + 0.5 * h * k2, *cm)
    k4 = _rhs_u(S + h * k3, *c1)
    return S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def whole_line_samples(t, F, P, Q):
    """dF at the nodes, and (F, dF, P, Q) at every interval midpoint of the whole lines."""
    dF = notaknot_slopes(t, F)
    return dF, (hermite_midpoints(t, F, dF), hermite_midpoints(t, F, dF, nu=1),
                hermite_midpoints(t, P, notaknot_slopes(t, P)),
                hermite_midpoints(t, Q, notaknot_slopes(t, Q)))


def reference_march(t, i0, F, P, Q, S0):
    """Yield (n, S): states S (m, 4, 3) of m lines marched from S0 at node i0, in march order."""
    dF, mids = whole_line_samples(t, F, P, Q)  # every line at once
    nodes = (F, dF, P, Q)
    yield i0, S0
    steps = list(zip(range(i0, t.size - 1), range(i0 + 1, t.size))) \
        + list(zip(range(i0, 0, -1), range(i0 - 1, -1, -1)))
    for k, n in steps:
        if k == i0:
            S = S0
        with np.errstate(over="ignore", invalid="ignore"):
            S = _rk4_step(S, t[n] - t[k], [c[k] for c in nodes],
                          [c[min(k, n)] for c in mids], [c[n] for c in nodes])
        yield n, S


def march_lines(t, i0, F, P, Q, S0):
    """States (n, m, 4, 3) of m lines marched from S0 (m, 4, 3) at node i0, all kept."""
    out = np.empty((t.size,) + S0.shape)
    for n, S in reference_march(t, i0, F, P, Q, S0):
        out[n] = S
    return out


def whole_grid_states(u, v, F, L, M, N, i0, j0, S0):
    """Frame states (nu, nv, 4, 3) of the base line and then all columns."""
    line = slice(j0, j0 + 1)
    base = march_lines(u, i0, F[:, line], L[:, line], M[:, line], S0[None])[:, 0]
    columns = march_lines(v, j0, F.T, N.T, M.T, base[:, _SWAP_XY])
    return columns.swapaxes(0, 1)[:, :, _SWAP_XY]


def whole_grid_diagnostics(chart, S0):
    """The mesh and the diagnostics of reconstruct computed on the whole grid at once."""
    u, v, F = chart.u_grid, chart.v_grid, chart.F
    i0, j0 = chart.u0_index, chart.v0_index
    acc = ls.accumulate_LN(chart)
    states = whole_grid_states(u, v, F, acc.L, acc.M, acc.N, i0, j0, S0)
    X, Y, l, mesh = (states[:, :, k] for k in range(4))
    drift = np.stack([np.abs(mk.inner(X, X)), np.abs(mk.inner(Y, Y)),
                      np.abs(mk.inner(X, Y) - F), np.abs(mk.inner(l, l) - 1.0),
                      np.abs(mk.inner(X, l)), np.abs(mk.inner(Y, l))]).max(axis=0)
    D = _central(X, v, axis=1)[1:-1] - _central(Y, u, axis=0)[:, 1:-1]
    Fi = F[1:-1, 1:-1, None]
    Dl = _central(l, u, axis=0)[:, 1:-1] + (acc.M[1:-1, 1:-1, None] / Fi) * X[1:-1, 1:-1] \
        + (acc.L[1:-1, 1:-1, None] / Fi) * Y[1:-1, 1:-1]
    fd = interior_forms(mesh, u, v)
    dF = np.abs(fd.F - F[1:-1, 1:-1])
    dH = np.abs(fd.H - chart.H[1:-1, 1:-1])
    mismatch = FormMismatch(
        f_max=float(dF.max()), f_l2=float(np.sqrt(np.mean(dF**2))),
        h_max=float(dH.max()), h_l2=float(np.sqrt(np.mean(dH**2))),
        e_max=float(np.max(np.abs(fd.E))), g_max=float(np.max(np.abs(fd.G))))
    return mesh, drift, _euclid(D), _euclid(Dl), mismatch


def reference_scales(jets, fd, extent):
    """Scales of F, L, M, N: |x_u||x_v|, |l|(|x_uu| + |x_u|^2/R),
    |l|(|x_uv| + sqrt(|x_uu||x_vv|) + |x_u||x_v|/R), |l|(|x_vv| + |x_v|^2/R)."""
    a, b, uu, uv, vv = (np.linalg.norm(getattr(jets, k), axis=-1) for k in JET_FIELDS[1:])
    l = np.linalg.norm(fd.l, axis=-1)
    return {"F": a * b, "L": l * (uu + a * a / extent),
            "M": l * (uv + np.sqrt(uu * vv) + a * b / extent), "N": l * (vv + b * b / extent)}


def whole_grid_congruence(mesh_a, mesh_b, u, v):
    ja, jb = (interior(reference_jets(m, u, v)) for m in (mesh_a, mesh_b))
    fa, fb = reference_forms(ja), reference_forms(jb)
    sa, sb = (reference_scales(j, f, np.linalg.norm(np.ptp(m.reshape(-1, 3), axis=0)))
              for j, f, m in ((ja, fa, mesh_a), (jb, fb, mesh_b)))
    scale = {n: np.maximum(sa[n], sb[n]) for n in "FLMN"}
    diff = {n: float(np.max(relative(getattr(fa, n) - getattr(fb, n), scale[n])))
            for n in "FLMN"}
    summ = {n: float(np.max(relative(getattr(fa, n) + getattr(fb, n), scale[n])))
            for n in "LMN"}
    return diff, dict(F=diff["F"], **summ)


def bits(x):
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, FormMismatch):
        return bits(vars(x))
    if isinstance(x, tuple):
        return [bits(a) for a in x]
    return np.asarray(x, dtype=float).tobytes()


def check_streamed_reconstruction(nu, nv, i0, j0, seed):
    """Every result of reconstruct equals the whole-grid march and formulas bit for bit."""
    rng = np.random.default_rng(seed)
    u, v = random_grid(rng, 1.0, 2.0, nu), random_grid(rng, -1.0, 0.0, nv)
    chart = ls.reference_chart("enneper1", u, v, u0=u[i0], v0=v[j0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = ls.reconstruct(chart)
    S0 = ls.initial_frame(chart.F[i0, j0]).as_array()
    mesh, drift, compat, compat_l, mismatch = whole_grid_diagnostics(chart, S0)
    assert bits(res.mesh) == bits(mesh)
    assert bits(res.form_mismatch) == bits(mismatch)
    assert bits([res.max_invariant_drift, res.max_compat, res.max_compat_l]) == \
        bits([drift.max(), compat.max(), compat_l.max()])
    return res, chart


@settings(max_examples=25, deadline=None)
@given(nu=st.integers(3, 90), nv=st.integers(3, 90), i0=st.integers(0, 89),
       j0=st.integers(0, 89), seed=st.integers(0, 2**32 - 1))
@example(nu=5, nv=3, i0=2, j0=1, seed=0).via("one block of one column")
@example(nu=40, nv=34, i0=20, j0=16, seed=1).via("nv - 2 is one block width")
@example(nu=3, nv=66, i0=1, j0=32, seed=2).via("nv - 2 is two block widths")
@example(nu=21, nv=67, i0=10, j0=33, seed=3).via("a one-column last block")
def test_blocked_diagnostics_equal_whole_grid_bit_for_bit(nu, nv, i0, j0, seed):
    res, chart = check_streamed_reconstruction(nu, nv, i0 % nu, j0 % nv, seed)
    acc = ls.accumulate_LN(chart)
    u, v = chart.u_grid, chart.v_grid
    # the splines of all columns are fitted together: each equals its own line's
    lines = (chart.F.T, acc.N.T, acc.M.T)
    slopes = [notaknot_slopes(v, c) for c in lines]
    mids = _midpoints(v, lines, slopes, 0, nv - 1)
    for i in {0, nu // 2, nu - 1}:
        one = [c[:, i:i + 1] for c in lines]
        one_slopes = [notaknot_slopes(v, c) for c in one]
        assert bits(tuple(c[:, i:i + 1] for c in slopes)) == bits(tuple(one_slopes))
        assert bits(tuple(c[:, i:i + 1] for c in mids)) == bits(_midpoints(v, one, one_slopes,
                                                                           0, nv - 1))

    U, V = np.meshgrid(u, v, indexing="ij")
    closed = ls.get("enneper1").position(U, V)
    rep = ls.congruence_check(res.mesh, closed, u, v)
    diff, flipped = whole_grid_congruence(res.mesh, closed, u, v)
    assert bits(rep.mismatch) == bits(diff)
    assert bits(rep.mismatch_flipped) == bits(flipped)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 70), m=st.integers(1, 41), i0=st.integers(0, 69),
       columns=st.booleans(), top=st.sampled_from([0.0, 200.0, 306.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n=41, m=1, i0=20, columns=False, top=306.0, seed=0).via("one line aborts at node 31")
@example(n=9, m=41, i0=4, columns=True, top=306.0, seed=51).via("lines 16 and 21 abort at once")
@example(n=70, m=1, i0=32, columns=False, top=0.0, seed=4).via("one line from a block edge")
@example(n=66, m=7, i0=65, columns=True, top=0.0, seed=5).via("backward over two block edges")
@example(n=66, m=7, i0=0, columns=True, top=0.0, seed=6).via("forward into a one-interval block")
def test_march_equals_the_reference_kernel_bit_for_bit(n, m, i0, columns, top, seed):
    # per-line magnitudes up to 1e306 and coefficients up to 1e3: states near
    # overflow, and lines that turn non-finite at different or equal steps
    rng = np.random.default_rng(seed)
    i0 %= n
    t = random_grid(rng, 0.0, 1.0, n)
    F = 1.0 + 0.1 * rng.random((n, m))
    P, Q = rng.standard_normal((2, n, m)) * 10.0 ** rng.uniform(0.0, 3.0)
    S0 = rng.standard_normal((m, 4, 3)) * 10.0 ** rng.uniform(0.0, top, (m, 1, 1))
    first = int(rng.integers(0, 5))
    lines = random_grid(rng, -1.0, 0.0, first + m)
    place = _Place("columns", lines, t, True) if columns else \
        _Place("base line", t, lines, False, first)

    expected, abort = [], None
    for k, S in reference_march(t, i0, F, P, Q, S0):
        if not np.all(np.isfinite(S)):
            abort = place.node(k, int(np.argwhere(~np.isfinite(S))[0][0]))
            break
        expected.append((k, S))
    got = []

    def drain():
        for k, S in _march(t, i0, F, P, Q, S0.transpose(1, 2, 0), place):
            got.append((k, S.transpose(2, 0, 1)))

    if abort is None:
        drain()
    else:
        with pytest.raises(ls.ReconstructionAbort) as err:
            drain()
        assert str(err.value) == (f"non-finite frame state in the {place.stage} march "
                                  f"at node {node_at(place.u, place.v, *abort)}")
        assert err.value.node == abort
    assert [k for k, _ in got] == [k for k, _ in expected]
    assert bits(tuple(S for _, S in got)) == bits(tuple(S for _, S in expected))


@pytest.mark.parametrize("width", [32, 33, 64, 65], ids=lambda w: f"nv-2={w}")
@pytest.mark.parametrize("base", [0, 1, -2, -1], ids=["j0=0", "j0=1", "j0=nv-2", "j0=nv-1"])
def test_streamed_diagnostics_at_slab_edges(base, width):
    # the forward and backward runs meet at j0; nv - 2 interior columns fill
    # whole slabs or leave one column over
    nv = width + 2
    check_streamed_reconstruction(7, nv, 3, base % nv, width)


def test_degenerate_node_in_a_late_block_is_named_on_the_full_grid():
    # a plane whose u-tangent turns null from column 71 on: EG - F^2 = 0 there
    u, v = np.linspace(1.0, 2.0, 9), np.linspace(0.0, 1.0, 90)
    U, V = np.meshgrid(u, v, indexing="ij")
    s = (np.arange(v.size) >= 70).astype(float)[None, :]
    mesh = np.stack([U, s * U, V], axis=-1)
    with pytest.raises(ls.DegenerateMetricError) as whole:
        interior_forms(mesh, u, v)
    i, j = (k + 1 for k in whole.value.node)
    assert j >= 65  # the third block of 32 interior columns
    with pytest.raises(ls.DegenerateMetricError) as blocked:
        ls.congruence_check(mesh, mesh, u, v)
    assert blocked.value.node == (i, j)
    where = f"at mesh node ({i}, {j}), (u, v) = ({float(u[i])!r}, {float(v[j])!r})"
    assert where in str(blocked.value)


@contextlib.contextmanager
def reference_formulas():
    """The blocked mesh diagnostics of reconstruct running on the frozen formulas."""
    with mock.patch.multiple("lorsurf.reconstruct", jets_from_mesh=reference_jets,
                             fundamental_forms=reference_forms):
        yield


def outcome(fn, *args):
    """The bits of fn(*args), or the class, message and node of the error it raised."""
    try:
        result = fn(*args)
        if isinstance(result, FundamentalData):
            return bits(vars(result)), [getattr(result, n).shape for n in vars(result)]
        if isinstance(result, ls.CongruenceReport):
            return bits(result.mismatch), bits(result.mismatch_flipped), result.verdict
        return [(cols, bits(tuple(getattr(jets, n) for n in JET_FIELDS)), bits(vars(fd)))
                for cols, jets, fd in result]  # the blocks
    except (ValueError, ls.LorsurfError) as exc:
        return type(exc), str(exc), getattr(exc, "node", None)


PLANTS = ("none", "nan", "inf", "null tangent", "spacelike tangents")


@settings(max_examples=40, deadline=None)
@given(nu=st.integers(3, 70), nv=st.integers(3, 70), k=st.integers(-60, 60),
       plant=st.sampled_from(PLANTS), node=st.tuples(st.integers(0, 69), st.integers(0, 69)),
       seed=st.integers(0, 2**32 - 1))
@example(nu=9, nv=66, k=0, plant="none", node=(0, 0), seed=0).via("two whole blocks")
@example(nu=5, nv=35, k=-60, plant="nan", node=(2, 33), seed=1).via("a one-column last block")
@example(nu=7, nv=40, k=60, plant="null tangent", node=(3, 35), seed=2).via("a late block")
@example(nu=56, nv=61, k=0, plant="none", node=(0, 0), seed=0).via(
    "node-wise noise over steps of ~0.01 made the mesh not Lorentz at node (22, 56)")
def test_mesh_forms_equal_the_reference_formulas_bit_for_bit(nu, nv, k, plant, node, seed):
    # grid steps scaled by 2**k from underflow-prone to overflow-prone sizes;
    # a planted non-finite coordinate, or a timelike plane whose u-tangent
    # turns null or spacelike on rows >= i of columns >= j, must fail alike.
    # Unplanted, the mesh is enneper1 plus a smooth wave whose first and second
    # derivatives (<= 4e-3 and 1.6e-2 per coordinate) stay far below enneper1's
    # tangents (>= 0.5 long, F >= 0.5), so it is a Lorentz surface at every node.
    rng = np.random.default_rng(seed)
    u0, v0 = random_grid(rng, 1.0, 2.0, nu), random_grid(rng, -1.0, 0.0, nv)
    u, v = np.ldexp(u0, k), np.ldexp(v0, k)
    U, V = np.meshgrid(u0, v0, indexing="ij")
    i, j = node[0] % nu, node[1] % nv
    if plant in ("none", "nan", "inf"):
        ku, kv, phase = rng.uniform(-4.0, 4.0, (3, 3))
        wave = 1e-3 * np.sin(U[..., None] * ku + V[..., None] * kv + phase)
        mesh = ls.get("enneper1").position(U, V) + wave
        if plant != "none":
            mesh[i, j, rng.integers(3)] = np.nan if plant == "nan" else -np.inf
    else:
        a = np.full(U.shape, 2.0)
        a[i:, j:] = 1.0 if plant == "null tangent" else 0.0
        mesh = np.stack([a * U, U, V], axis=-1)
    A = ls.boost(rng.uniform(-2.0, 2.0)) @ ls.spatial_rotation(rng.uniform(0.0, 2.0 * np.pi))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in a planted stencil
        moved = mesh @ A.T + rng.uniform(-10.0, 10.0, 3)
        jets, ref = ls.jets_from_mesh(mesh, u, v), reference_jets(mesh, u, v)
        assert bits(tuple(getattr(jets, n) for n in JET_FIELDS)) == \
            bits(tuple(getattr(ref, n) for n in JET_FIELDS))
        assert outcome(ls.fundamental_forms, jets) == outcome(reference_forms, ref)
        assert outcome(ls.fundamental_forms, interior(jets)) == \
            outcome(interior_forms, mesh, u, v)
        got = (outcome(_interior_form_blocks, mesh, u, v),
               outcome(ls.congruence_check, mesh, moved, u, v))
        with reference_formulas():
            want = (outcome(_interior_form_blocks, mesh, u, v),
                    outcome(ls.congruence_check, mesh, moved, u, v))
    assert got == want
    if plant == "none":  # the blocks and the report were computed, not refused
        assert isinstance(got[0], list) and isinstance(got[1][2], ls.CongruenceVerdict)


def test_congruence_check_refuses_mismatched_meshes_and_short_grids():
    g = np.linspace(0.0, 1.0, 12)
    U, V = np.meshgrid(g, g, indexing="ij")
    mesh = ls.get("cylinder").position(U, V)
    with pytest.raises(ValueError):
        ls.congruence_check(mesh, mesh[:, :-1], g, g)
    with pytest.raises(ValueError):
        ls.congruence_check(mesh[:, :-1], mesh, g, g)
    with pytest.raises(ls.StencilError):
        ls.congruence_check(mesh[:2], mesh[:2], g[:2], g)


def test_reconstruct_peak_allocation_per_node():
    # no frame outlives its slab of columns, the diagnostics fold into maxima
    # and the march keeps three spline slopes per node, so the peak is the
    # mesh, L, M, N, the column march's slopes and one slab buffer (96.5 B/node
    # at 401^2; 119.8 with whole-grid midpoint samples and a stacked copy of
    # each slab)
    n = 401
    u, v = np.linspace(1.0, 2.0, n), np.linspace(-1.0, 0.0, n)
    chart = ls.reference_chart("enneper1", u, v)
    ls.reconstruct(ls.reference_chart("enneper1", u[:11], v[:11]))  # imports done
    tracemalloc.start()
    try:
        res = ls.reconstruct(chart)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * n) <= 100.0
    # the mesh is the result's only grid-sized array
    held = sum(a.nbytes for a in vars(res).values() if isinstance(a, np.ndarray))
    assert held == res.mesh.nbytes + u.nbytes + v.nbytes


@pytest.mark.parametrize("name, build, bound", [
    # cmc_pair keeps the first member's result while it marches the second
    # (128.1 B/node at 401^2; 159.5 with a whole-grid H and reconstruct's
    # temporaries), minimal_from_K marches one chart (103.6 B/node)
    ("cylinder", lambda c, u, v: ls.cmc_pair(c.K, float(c.H[c.u0_index, c.v0_index]), u, v),
     131.0),
    ("enneper2", lambda c, u, v: ls.minimal_from_K(c.K, u, v), 106.0),
], ids=["cmc_pair", "minimal_from_K"])
def test_pair_and_minimal_peak_allocation_per_node(name, build, bound):
    n = 401
    (a, b, c, d) = ls.get(name).default_domain
    u, v = np.linspace(a, b, n), np.linspace(c, d, n)
    chart = ls.reference_chart(name, u, v)
    build(ls.reference_chart(name, u[:11], v[:11]), u[:11], v[:11])  # imports done
    tracemalloc.start()
    try:
        build(chart, u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * n) <= bound
