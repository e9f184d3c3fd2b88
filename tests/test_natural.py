import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lorsurf as ls
from lorsurf.stencils import cross_derivative, gradient, second_derivative

from conftest import CONE_TU0, cone_canonical_chart, enneper1_chart, random_grid


def constant_chart(F0, H0, n=21, eps=(1, 1), lo=0.0, hi=1.0):
    g = np.linspace(lo, hi, n)
    shape = (n, n)
    return ls.Chart(u_grid=g, v_grid=g, F=np.full(shape, F0), H=np.full(shape, H0),
                    u0_index=(n - 1) // 2, v0_index=(n - 1) // 2,
                    eps1=eps[0], eps2=eps[1]).validate()


# -- stencils --------------------------------------------------------------------

def test_stencils_of_a_constant_field_are_zero_on_tiny_grids():
    # the products of steps of 1e-160 underflow unless the steps are scaled first
    g = np.arange(7) * 1e-160
    f = np.ones((7, 7))
    for d in (gradient(f, g, 0), second_derivative(f, g, 1), cross_derivative(f, g, g)):
        assert np.all(d == 0.0)
    np.testing.assert_allclose(gradient(3.0 * np.arange(7) + 1.0, g, 0), 3e160, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 12), k=st.integers(-400, 400), seed=st.integers(0, 2**32 - 1))
def test_stencils_scale_exactly_with_a_power_of_two_grid(n, k, seed):
    rng = np.random.default_rng(seed)
    t = random_grid(rng, -1.0, 2.0, n)
    f = rng.normal(size=(n, n))
    s = np.ldexp(t, k)
    for order, stencil in ((1, gradient), (2, second_derivative)):
        assert np.array_equal(stencil(f, s, 0), np.ldexp(stencil(f, t, 0), -order * k))
    assert np.array_equal(cross_derivative(f, s, t), np.ldexp(cross_derivative(f, t, t), -k))


def test_natural_residual_on_a_tiny_grid_equals_the_unit_grid():
    # F = 1 and H = 0.5 give L = N = 1 and M = 0.5, so LN - M^2 = 0.75 on any grid
    unit, tiny = (ls.Chart(u_grid=g, v_grid=g, F=np.ones((7, 7)), H=np.full((7, 7), 0.5),
                           u0_index=0, v0_index=0, eps1=1, eps2=1).validate()
                  for g in (np.arange(7.0), np.arange(7) * 1e-160))
    assert ls.natural_residual(unit).max_abs == 0.75
    assert ls.natural_residual(tiny).max_abs == 0.75


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 9), k=st.integers(-560, 560), seed=st.integers(0, 2**32 - 1))
def test_l2_keeps_every_bit_on_a_power_of_two_grid(n, k, seed):
    # constant F keeps K = 0 and L, N invariant, so the residual has the same bits on
    # both grids; at |k| > 530 raw area weights would overflow or go subnormal
    rng = np.random.default_rng(seed)
    t = random_grid(rng, -1.0, 2.0, n)
    H = rng.normal(size=(n, n))
    unit, scaled = (ls.natural_residual(ls.Chart(
        u_grid=g, v_grid=g, F=np.full((n, n), 1.5), H=H,
        u0_index=0, v0_index=n - 1, eps1=1, eps2=-1).validate()) for g in (t, np.ldexp(t, k)))
    assert np.array_equal(scaled.residual, unit.residual)
    assert scaled.l2 == unit.l2 and scaled.max_abs == unit.max_abs


# -- accumulate_LN ---------------------------------------------------------------

def test_accumulate_cylinder_exact():
    acc = ls.accumulate_LN(constant_chart(2.0, 0.5))
    np.testing.assert_array_equal(acc.L, np.ones_like(acc.L))
    np.testing.assert_array_equal(acc.N, np.ones_like(acc.N))
    np.testing.assert_array_equal(acc.M, np.full_like(acc.M, 1.0))


def test_accumulate_hyperbolic_cylinder_exact():
    acc = ls.accumulate_LN(constant_chart(2.0, 0.5, eps=(-1, -1)))
    assert np.all(acc.L == -1.0) and np.all(acc.N == -1.0) and np.all(acc.M == 1.0)


def test_accumulate_cone_canonical_against_pullback_oracle():
    # In the canonical cone coordinates the transformation law gives the
    # closed forms L = sqrt(3) tv^2 / 24, N = sqrt(3) tu^2 / 24,
    # M = -sqrt(3) tu tv / 24 (independent pullback computation).
    chart = cone_canonical_chart(201)
    acc = ls.accumulate_LN(chart)
    TU, TV = np.meshgrid(chart.u_grid, chart.v_grid, indexing="ij")
    r3 = np.sqrt(3.0)
    L_exact = r3 * TV**2 / 24.0
    N_exact = r3 * TU**2 / 24.0
    M_exact = -r3 * TU * TV / 24.0
    # sanity of the oracle itself at the base point (canonicity)
    assert np.isclose(L_exact[chart.u0_index, chart.v0_index], 1.0)
    h = np.max(np.diff(chart.u_grid))
    assert np.max(np.abs(acc.L - L_exact)) <= 5.0 * h**2
    assert np.max(np.abs(acc.N - N_exact)) <= 5.0 * h**2
    np.testing.assert_allclose(acc.M, M_exact, atol=1e-12)


def test_accumulate_requires_3x3():
    with pytest.raises(ls.StencilError):
        ls.accumulate_LN(constant_chart(2.0, 0.5, n=2))


def test_accumulate_signed_about_interior_base():
    # base point in the middle: integrals must be signed on both sides
    n = 41
    g = np.linspace(0.0, 1.0, n)
    U, V = np.meshgrid(g, g, indexing="ij")
    F = np.full((n, n), 2.0)
    H = V.copy()                       # H_v = 1, H_u = 0
    chart = ls.Chart(u_grid=g, v_grid=g, F=F, H=H, u0_index=20, v0_index=20,
                     eps1=1, eps2=1).validate()
    acc = ls.accumulate_LN(chart)
    # N = 1 + int_{u0}^{u} F * H_v ds = 1 + 2 (u - u0), exact for the trapezoid
    np.testing.assert_allclose(acc.N, 1.0 + 2.0 * (U - g[20]), atol=1e-12)
    np.testing.assert_allclose(acc.L, 1.0, atol=1e-12)


# -- natural_residual --------------------------------------------------------------

def test_natural_residual_enneper_is_exact():
    # F quadratic and H = 0 make every stencil exact up to rounding; the
    # floor is eps / h^2 from the second-difference divisions (~1e-11 here)
    rep = ls.natural_residual(enneper1_chart(101))
    assert rep.max_abs <= 1e-10


def test_natural_residual_cylinder_zero():
    rep = ls.natural_residual(constant_chart(2.0, 0.5, n=31))
    assert rep.max_abs == 0.0
    assert rep.l2 == 0.0


def test_natural_residual_perturbed_cylinder():
    rep = ls.natural_residual(constant_chart(2.1, 0.5, n=31))
    expected = abs(1.0 - 2.1**2 * 0.25)   # = 0.1025, constant over the grid
    assert np.isclose(rep.max_abs, expected, atol=1e-12)
    assert np.ptp(rep.residual) <= 1e-12


def test_residual_reports_carry_their_scale():
    # L = N = 1 and M = F H = 1.05: the general scale is max|LN| + max M^2
    assert ls.natural_residual(constant_chart(2.1, 0.5)).scale == 1.0 + 1.05**2
    # for constant H it is max(H^2 + |K|), in the units of K, with no floor
    g = np.linspace(0.0, 1.0, 11)
    K = np.linspace(-0.5, -0.25, 121).reshape(11, 11)
    assert ls.cmc_residual(K, 1.5, g, g).scale == 1.5**2 + 0.5
    assert ls.minimal_residual(K, g, g).scale == 0.5
    assert ls.minimal_residual(K * 1e-6, g * 1e3, g * 1e3).scale == 0.5e-6


def test_natural_residual_cone_converges_at_order_2():
    coarse = ls.natural_residual(cone_canonical_chart(101))
    fine = ls.natural_residual(cone_canonical_chart(201))
    order = ls.convergence_order(coarse.max_abs, fine.max_abs)
    assert order >= 1.9


def test_gauss_equation_equivalence():
    # natural_residual must equal the Gauss form (F F_uv - F_u F_v)/F - (LN - M^2)
    # rebuilt from the same accumulated fields, node for node
    chart = cone_canonical_chart(61)
    rep = ls.natural_residual(chart)
    acc = ls.accumulate_LN(chart)
    u, v, F = chart.u_grid, chart.v_grid, chart.F
    Fi = F[1:-1, 1:-1]
    lhs = (Fi * cross_derivative(F, u, v)
           - gradient(F, u, axis=0)[1:-1, 1:-1] * gradient(F, v, axis=1)[1:-1, 1:-1]) / Fi
    rhs = acc.L[1:-1, 1:-1] * acc.N[1:-1, 1:-1] - acc.M[1:-1, 1:-1] ** 2
    np.testing.assert_array_equal(rep.residual, lhs - rhs)


def _peak_per_node(fn, *args):
    """The tracemalloc peak of fn(*args), per node of its chart (args[0])."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / np.prod(args[0].shape)


def test_natural_residual_peak_allocation_per_node():
    # accumulate_LN builds each integrand and integral in place: its peak is
    # L, M, N and one gradient (33.3 B/node at 401^2; 56.0 with whole-grid
    # temporaries).  natural_residual builds lhs and rhs in one interior buffer
    # each and takes its scale over row blocks: its peak is F_u F_v and one
    # gradient (33.3 B/node; 63.6 with whole-grid temporaries)
    n = 401
    u, v = np.linspace(1.0, 2.0, n), np.linspace(-1.0, 0.0, n)
    chart = ls.reference_chart("enneper1", u, v)
    ls.natural_residual(ls.reference_chart("enneper1", u[:11], v[:11]))  # imports done
    assert _peak_per_node(ls.accumulate_LN, chart) <= 34.0
    acc = ls.accumulate_LN(chart)
    assert _peak_per_node(ls.natural_residual, chart, acc) <= 34.0


def test_codazzi_consistency_order():
    # L built by accumulate_LN must differentiate back to F H_u at order h^2
    devs = []
    for n in (41, 81):
        g = np.linspace(0.0, 1.0, n)
        U, V = np.meshgrid(g, g, indexing="ij")
        F = 2.0 + 0.5 * np.sin(U) * np.cos(V)
        H = 0.3 * np.sin(U + 2.0 * V)
        chart = ls.Chart(u_grid=g, v_grid=g, F=F, H=H, u0_index=0, v0_index=0,
                         eps1=1, eps2=1).validate()
        acc = ls.accumulate_LN(chart)
        L_v = gradient(acc.L, g, axis=1)
        H_u = gradient(chart.H, g, axis=0)
        devs.append(np.max(np.abs(L_v - F * H_u)[1:-1, 1:-1]))
    assert ls.convergence_order(devs[0], devs[1]) >= 1.9


# -- cmc and minimal residuals --------------------------------------------------------

def test_cmc_residual_flat_zero():
    g = np.linspace(0.0, 1.0, 21)
    rep = ls.cmc_residual(np.zeros((21, 21)), 0.5, g, g)
    assert rep.max_abs == 0.0


def test_cmc_residual_enneper_curvature_with_H0():
    orders = []
    prev = None
    for n in (201, 401):
        u = np.linspace(1.0, 2.0, n)
        v = np.linspace(-1.0, 0.0, n)
        U, V = np.meshgrid(u, v, indexing="ij")
        K = -4.0 / (U - V) ** 4
        rep = ls.cmc_residual(K, 0.0, u, v)
        if prev is not None:
            orders.append(ls.convergence_order(prev, rep.max_abs))
        prev = rep.max_abs
    assert orders[0] >= 1.9


def test_cmc_residual_degenerate_rejected():
    g = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ls.NotGeneralTypeError) as err:
        ls.cmc_residual(np.ones((11, 11)), 1.0, g, g)
    assert err.value.node == (0, 0)


def test_minimal_residual_constant_K_is_one():
    g = np.linspace(0.0, 1.0, 21)
    rep = ls.minimal_residual(np.full((21, 21), -1.0), g, g)
    np.testing.assert_allclose(rep.residual, 1.0, atol=1e-12)


def test_minimal_residual_enneper2():
    u = np.linspace(0.5, 1.5, 161)
    K = 4.0 / (u[:, None] + u[None, :]) ** 4
    rep = ls.minimal_residual(K, u, u)
    assert rep.max_abs <= 5e-4


def test_minimal_residual_degenerate_rejected():
    g = np.linspace(0.0, 1.0, 11)
    K = np.zeros((11, 11))
    with pytest.raises(ls.NotGeneralTypeError):
        ls.minimal_residual(K, g, g)


# -- F from (K, H) ---------------------------------------------------------------------

def test_F_from_K_cmc_flat():
    F, eps = ls.F_from_K_cmc(np.zeros((5, 5)), 0.5)
    np.testing.assert_allclose(F, 2.0)
    assert eps == 1


def test_F_from_K_cmc_enneper1():
    u = np.linspace(1.0, 2.0, 31)
    v = np.linspace(-1.0, 0.0, 31)
    U, V = np.meshgrid(u, v, indexing="ij")
    F, eps = ls.F_from_K_cmc(-4.0 / (U - V) ** 4, 0.0)
    np.testing.assert_allclose(F, 0.5 * (U - V) ** 2, rtol=1e-12)
    assert eps == 1


def test_F_from_K_cmc_enneper2():
    u = np.linspace(0.5, 1.5, 31)
    U, V = np.meshgrid(u, u, indexing="ij")
    F, eps = ls.F_from_K_cmc(4.0 / (U + V) ** 4, 0.0)
    np.testing.assert_allclose(F, 0.5 * (U + V) ** 2, rtol=1e-12)
    assert eps == -1


def test_F_from_K_cmc_rejects_degenerate_and_mixed_signs():
    with pytest.raises(ls.NotGeneralTypeError):
        ls.F_from_K_cmc(np.ones((3, 3)), 1.0)
    K = np.array([[0.5, -0.5], [0.5, -0.5]])
    with pytest.raises(ls.NotGeneralTypeError):
        ls.F_from_K_cmc(K, 0.0)


def test_non_finite_K_or_H_is_refused_as_non_finite_before_the_kind_test():
    # kind_field gives a NaN H^2 - K kind 0, which would read as "not of general type"
    g = np.linspace(0.0, 1.0, 3)
    K = np.full((3, 3), -1.0)
    K[1, 1] = np.nan
    node = "node (1, 1), (u, v) = (0.5, 0.5)"
    for call, where in ((lambda: ls.cmc_residual(K, 0.5, g, g), node),
                        (lambda: ls.minimal_residual(K, g, g), node),
                        (lambda: ls.F_from_K_cmc(K, 0.5), "index (1, 1)")):
        with pytest.raises(ls.ChartError) as err:
            call()
        assert str(err.value) == f"K is non-finite at {where}"
        assert err.value.node == (1, 1) and err.value.exit_code == 2
    for H in (np.inf, np.nan):
        with pytest.raises(ls.ChartError, match=r"^H is non-finite at node \(0, 0\)"):
            ls.cmc_residual(np.full((3, 3), -1.0), H, g, g)
        with pytest.raises(ls.ChartError, match=r"^H is non-finite at index \(0, 0\)"):
            ls.F_from_K_cmc(np.full((3, 3), -1.0), H)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 9), H=st.floats(0.1, 10.0), sign=st.sampled_from([1, -1]),
       lo=st.floats(-11.0, -7.0), seed=st.integers(0, 2**32 - 1))
@example(n=5, H=1.0, sign=1, lo=-7.5, seed=0)    # no 0
@example(n=5, H=1.0, sign=-1, lo=-11.0, seed=0)  # 0s
def test_general_type_refusals_are_exactly_the_zeros_of_kind_field(n, H, sign, lo, seed):
    # |H^2 - K| = rel (1 + 2 H^2) with rel between 10^lo and 1e-7 puts |H^2 - K| / (H^2 + |K|)
    # about kind_field's 1e-8 threshold, with one sign, so that a 0 of kind_field is the
    # only reason to refuse the general type
    rng = np.random.default_rng(seed)
    rel = 10.0 ** rng.uniform(lo, -7.0, (n, n))
    K = H * H - sign * rel * (1.0 + 2.0 * H * H)
    g = np.linspace(0.0, 1.0, n)
    kind = ls.kind_field(H, K)
    zeros = np.argwhere(kind == 0)
    first = tuple(int(k) for k in zeros[0]) if zeros.size else None
    nodes = []
    for call in (lambda: ls.cmc_residual(K, H, g, g), lambda: ls.F_from_K_cmc(K, H),
                 lambda: ls.cmc_pair(K, H, g, g)):
        try:
            call()
            nodes.append(None)
        except ls.NotGeneralTypeError as exc:
            nodes.append(exc.node)
        except ls.NaturalEquationError:  # cmc_pair on data far off the constant-H equation
            nodes.append(None)
    assert nodes == [first] * 3
    if first is None:
        assert np.all(kind == sign) and ls.F_from_K_cmc(K, H)[1] == sign


def test_convergence_order_helper():
    assert np.isclose(ls.convergence_order(4.0, 1.0), 2.0)
    assert ls.convergence_order(0.0, 0.0) == float("inf")
