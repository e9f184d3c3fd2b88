"""The numpy splines against scipy, which is their reference and is used only here.

PCHIP slopes and Simpson quadrature repeat scipy's arithmetic, so they
must agree bit for bit.  The not-a-knot slopes solve scipy's linear system
by another elimination, and the Hermite pieces are summed in another
basis, so splines and resamples agree to rounding: within 1e-10 of the
data scale (the largest deviation seen over thousands of random grids with
step ratios up to 100 is ~1e-11).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_simpson
from scipy.interpolate import (CubicHermiteSpline, CubicSpline, PchipInterpolator,
                               RectBivariateSpline)

import lorsurf as ls
from lorsurf.reconstruct import _midpoints
from lorsurf.splines import (CubicHermite, _tridiagonal, cumsimpson_from, grid_interpolant,
                             hermite_midpoints, notaknot_slopes, pchip_slopes)

RTOL = 1e-10


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def knots(draw, n):
    steps = draw(hnp.arrays(float, n - 1, elements=st.floats(0.01, 1.0)))
    return draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(steps)])


@st.composite
def lines(draw, min_n=2, max_n=12):
    """(x, y, xi): knots, an (n, m) array of lines and points in [x[0], x[-1]]."""
    n = draw(st.integers(min_n, max_n))
    x = draw(knots(n))
    m = draw(st.integers(1, 3))
    y = draw(hnp.arrays(float, (n, m), elements=st.floats(-1e3, 1e3)))
    at = draw(hnp.arrays(float, 8, elements=st.floats(0.0, 1.0)))
    xi = np.concatenate([x, 0.5 * (x[:-1] + x[1:]), x[0] + at * (x[-1] - x[0])])
    return x, y, np.clip(xi, x[0], x[-1])


def _scales(x, y):
    """Scales of values and of slopes for the tolerances."""
    scale = 1.0 + np.max(np.abs(y))
    return scale, scale / np.min(np.diff(x))


@settings(max_examples=30, deadline=None)
@given(lines())
@example((np.array([0.0, 1.0]), np.array([[1.0], [3.0]]), np.array([0.0, 0.25, 1.0])))
@example((np.array([0.0, 0.1, 1.0]), np.array([[0.0], [1.0], [-2.0]]),
          np.array([0.0, 0.05, 0.5, 1.0])))
@example((np.array([0.0, 0.5, 0.6, 2.0]), np.array([[1.0], [0.0], [4.0], [-1.0]]),
          np.array([0.3, 0.55, 1.0])))
def test_notaknot_spline_matches_cubicspline(case):
    x, y, xi = case
    ours = CubicHermite(x, y, notaknot_slopes(x, y))
    ref = CubicSpline(x, y, axis=0)
    scale, dscale = _scales(x, y)
    np.testing.assert_allclose(ours(xi), ref(xi), rtol=0, atol=RTOL * scale)
    np.testing.assert_allclose(ours(xi, 1), ref(xi, 1), rtol=0, atol=RTOL * dscale)
    np.testing.assert_allclose(notaknot_slopes(x, y), ref(x, 1), rtol=0, atol=RTOL * dscale)


def test_notaknot_spline_reproduces_the_line_and_the_parabola():
    x = np.array([0.0, 0.3, 1.0])
    assert np.allclose(notaknot_slopes(x[[0, 2]], 2.0 + 3.0 * x[[0, 2]]), 3.0, rtol=0,
                       atol=1e-15)
    assert np.allclose(notaknot_slopes(x, x**2), 2.0 * x, rtol=0, atol=1e-15)
    x4 = np.array([0.0, 0.3, 1.0, 1.1, 2.5])
    assert np.allclose(notaknot_slopes(x4, x4**3), 3.0 * x4**2, rtol=0, atol=1e-12)


def whole_array_notaknot_slopes(x, y):
    """notaknot_slopes with whole-grid secants and right-hand side (the oracle of the blocks)."""
    y = np.asarray(y, dtype=float)
    n = x.size
    hh = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    secant = np.diff(y, axis=0)
    secant /= hh
    r = np.empty(y.shape)
    if n == 2:
        r[0] = secant[0]
        r[1] = secant[0]
    elif n == 3:
        r[0] = 2 * secant[0]
        r[1] = 3 * (hh[0] * secant[1] + hh[1] * secant[0])
        r[2] = 2 * secant[1]
    else:
        np.multiply(hh[1:], secant[:-1], out=r[1:-1])
        r[1:-1] += hh[:-1] * secant[1:]
        r[1:-1] *= 3
        d = x[2] - x[0]
        r[0] = ((hh[0] + 2 * d) * hh[1] * secant[0] + hh[0] ** 2 * secant[1]) / d
        d = x[-1] - x[-3]
        r[-1] = (hh[-1] ** 2 * secant[-2] + (2 * d + hh[-1]) * hh[-2] * secant[-1]) / d
    w, piv, upper = _tridiagonal(x)
    for i in range(1, n):
        r[i] -= w[i] * r[i - 1]
    r[-1] /= piv[-1]
    for i in range(n - 2, -1, -1):
        r[i] -= upper[i] * r[i + 1]
        r[i] /= piv[i]
    return r


LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "lines-stride-0": lambda a: np.broadcast_to(a[:, :1], a.shape),
    "all-stride-0": lambda a: np.broadcast_to(a[0, 0], a.shape),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 32, 33, 34, 35, 65, 401])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_blocked_notaknot_slopes_equal_the_whole_array_bit_for_bit(n, layout):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
    y = LAYOUTS[layout](rng.standard_normal((n, 6)) * 100.0)
    ours = notaknot_slopes(x, y)
    assert ours.flags.c_contiguous and ours.shape == y.shape
    assert bits(ours) == bits(whole_array_notaknot_slopes(x, y))
    assert bits(notaknot_slopes(x, y[:, 2])) == bits(whole_array_notaknot_slopes(x, y[:, 2]))


def test_notaknot_slopes_peak_allocation_above_the_result():
    # the secants and right-hand side are formed a block of knot intervals at
    # a time: at 401^2 the peak is 1.7 B/node above the 8.0 of the result
    # (16.4 above it with whole-grid secants and products)
    n = 401
    x = np.linspace(0.0, 1.0, n) ** 2
    y = np.random.default_rng(0).standard_normal((n, n))
    notaknot_slopes(x[:11], y[:11, :11])
    tracemalloc.start()
    try:
        notaknot_slopes(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - y.nbytes) / (n * n) <= 2.5


@settings(max_examples=30, deadline=None)
@given(lines(), st.data())
def test_hermite_evaluation_matches_cubichermitespline(case, data):
    x, y, xi = case
    d = data.draw(hnp.arrays(float, y.shape, elements=st.floats(-1e3, 1e3)))
    ours = CubicHermite(x, y, d)
    ref = CubicHermiteSpline(x, y, d, axis=0)
    scale, dscale = _scales(x, np.concatenate([y, d]))
    for nu, tol in enumerate((scale, dscale, dscale / np.min(np.diff(x)))):
        np.testing.assert_allclose(ours(xi, nu), ref(xi, nu), rtol=0, atol=RTOL * tol)
    # the knots are reproduced exactly (up to the sign of a zero), the last one too
    assert np.array_equal(ours(x), y)
    # the end pieces extend outside the knots, and a scalar point gives the trailing shape
    outside = x[-1] + 0.5
    np.testing.assert_allclose(ours(outside), ref(outside), rtol=1e-12, atol=RTOL * scale)
    assert ours(outside).shape == y.shape[1:]


@settings(max_examples=30, deadline=None)
@given(lines(), st.data())
def test_midpoints_and_spline_samples_match_scipy(case, data):
    x, y, _ = case
    d = data.draw(hnp.arrays(float, y.shape, elements=st.floats(-1e3, 1e3)))
    mids = 0.5 * (x[:-1] + x[1:])
    herm = CubicHermiteSpline(x, y, d, axis=0)
    scale, dscale = _scales(x, np.concatenate([y, d]))
    np.testing.assert_allclose(hermite_midpoints(x, y, d), herm(mids), rtol=0,
                               atol=RTOL * scale)
    np.testing.assert_allclose(hermite_midpoints(x, y, d, nu=1), herm(mids, 1), rtol=0,
                               atol=RTOL * dscale)
    # the march's samples: F, P, Q splines at the midpoints and dF at the knots
    F, P, Q = y + 2e3, y[::-1].copy(), 2.0 * y
    slopes = [notaknot_slopes(x, c) for c in (F, P, Q)]
    dF, (Fm, dFm, Pm, Qm) = slopes[0], _midpoints(x, (F, P, Q), slopes, 0, x.size - 1)
    sF = CubicSpline(x, F, axis=0)
    scale, dscale = _scales(x, np.concatenate([F, P, Q]))
    for ours, ref, tol in ((dF, sF(x, 1), dscale), (Fm, sF(mids), scale),
                           (dFm, sF(mids, 1), dscale),
                           (Pm, CubicSpline(x, P, axis=0)(mids), scale),
                           (Qm, CubicSpline(x, Q, axis=0)(mids), scale)):
        np.testing.assert_allclose(ours, ref, rtol=0, atol=RTOL * tol)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(knots(n), hnp.arrays(
    float, n, elements=st.floats(-1e3, 1e3)))))
@example((np.array([0.0, 1.0, 2.0]), np.array([2.22507386e-309, 0.0, 0.0])))
@example((np.array([0.0, 1.0, 2.0]), np.array([3e-309, 2e-309, 1e-309])))
def test_pchip_slopes_match_pchipinterpolator_bit_for_bit(case):
    # scipy's PchipInterpolator is the CubicHermiteSpline of its slopes, so equal
    # slopes give equal bits everywhere, the last interval included
    x, y = case
    xi = np.concatenate([x, 0.5 * (x[:-1] + x[1:])])
    ours = CubicHermiteSpline(x, y, pchip_slopes(x, y))
    # pchip_slopes must stay silent on secants so small that w / m overflows;
    # scipy takes the same overflow to inf but warns about it
    with np.errstate(over="ignore"):
        ref = PchipInterpolator(x, y)(xi)
    assert bits(ours(xi)) == bits(ref)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 12).flatmap(lambda n: st.tuples(knots(n), knots(n))), st.data())
def test_a_map_that_breaks_the_fritsch_carlson_bound_takes_pchip(case, data):
    u, t = case
    secant = np.diff(t) / np.diff(u)
    k = data.draw(st.integers(0, u.size - 2))
    slopes = np.concatenate([secant, secant[-1:]])
    slopes[k] = 3.5 * secant[k]  # above 3 * secant on the interval right of knot k
    umap = ls.MonotoneMap(knots=u, values=t, derivative=slopes)
    ui = np.concatenate([u, 0.5 * (u[:-1] + u[1:])])
    assert bits(umap._forward.dydx) == bits(pchip_slopes(u, t))
    np.testing.assert_allclose(umap(ui), PchipInterpolator(u, t)(ui), rtol=0,
                               atol=RTOL * (1.0 + np.max(np.abs(t))))
    # the inverse applies the same bound to its own slopes 1 / slopes
    inv = 1.0 / slopes
    bound = 3.0 / secant
    keep = np.all(inv[:-1] <= bound) and np.all(inv[1:] <= bound)
    assert bits(umap._inverse.dydx) == bits(inv if keep else pchip_slopes(t, u))


def check_resample(x, y, z, xq, yq):
    ref = RectBivariateSpline(x, y, z, kx=min(3, x.size - 1), ky=min(3, y.size - 1))(xq, yq)
    ours = grid_interpolant(x, y, z)(xq, yq)
    assert ours.shape == (xq.size, yq.size) and ours.flags.c_contiguous
    np.testing.assert_allclose(ours, ref, rtol=0, atol=RTOL * (1.0 + np.max(np.abs(z))))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.booleans(), st.data())
def test_grid_interpolant_matches_rectbivariatespline(n, more, swap, data):
    nu, nv = (n + more, n) if swap else (n, n + more)
    x, y = data.draw(knots(nu)), data.draw(knots(nv))
    z = data.draw(hnp.arrays(float, (nu, nv), elements=st.floats(-1e3, 1e3)))
    at = data.draw(hnp.arrays(float, 7, elements=st.floats(0.0, 1.0)))
    xq = np.sort(np.concatenate([x, x[0] + at[:4] * (x[-1] - x[0])]))
    yq = np.sort(np.concatenate([y, y[0] + at[4:] * (y[-1] - y[0])]))
    check_resample(x, y, z, np.clip(xq, x[0], x[-1]), np.clip(yq, y[0], y[-1]))


@pytest.mark.parametrize("nu, nv", [(2, 3), (3, 2), (3, 7), (5, 2)])
def test_grid_interpolant_drops_the_degree_on_short_axes(nu, nv):
    x, y = np.linspace(0.0, 1.0, nu) ** 2, np.linspace(-1.0, 2.0, nv) ** 3
    z = np.cos(np.add.outer(3.0 * x, y))
    check_resample(x, y, z, np.linspace(x[0], x[-1], 5), np.linspace(y[0], y[-1], 4))


def test_grid_interpolant_holds_the_edge_value_outside_the_grid():
    x, y = np.array([0.0, 1.0, 2.0, 4.0]), np.array([0.0, 0.5, 1.0])
    z = np.add.outer(x**3, y**2)
    f = grid_interpolant(x, y, z)
    np.testing.assert_array_equal(f(np.array([-1.0, 5.0]), np.array([-2.0, 3.0])),
                                  f(np.array([0.0, 4.0]), np.array([0.0, 1.0])))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 14).flatmap(lambda n: st.tuples(knots(n), hnp.arrays(
    float, n, elements=st.floats(-1e6, 1e6)))), st.data())
def test_cumsimpson_matches_scipy_bit_for_bit(case, data):
    t, f = case
    i0 = data.draw(st.integers(0, t.size - 1))
    ref = cumulative_simpson(f, x=t, initial=0.0)
    assert bits(cumsimpson_from(f, t, i0)) == bits(ref - ref[i0])


@pytest.mark.parametrize("i0", [0, 1])
def test_cumsimpson_on_two_nodes_turns_a_negative_zero_positive_as_scipy_does(i0):
    t, f = np.array([0.0, 1.0]), np.array([-0.0, -0.0])
    ref = cumulative_simpson(f, x=t, initial=0.0)
    assert bits(cumsimpson_from(f, t, i0)) == bits(ref - ref[i0])


def test_cumsimpson_refuses_bad_input():
    with pytest.raises(ls.StencilError, match="lengths differ"):
        cumsimpson_from(np.ones(3), np.arange(4.0), 0)
    with pytest.raises(ls.StencilError, match="at least 2 nodes"):
        cumsimpson_from(np.ones(1), np.zeros(1), 0)


def test_hermite_refuses_a_third_derivative():
    h = CubicHermite(np.array([0.0, 1.0]), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="derivative order"):
        h(0.5, 3)
