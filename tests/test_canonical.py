import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorsurf as ls
from lorsurf.errors import within

from conftest import CONE_TU0, cone_canonical_chart, enneper1_chart


def cone_maps(n=201, tilde0=CONE_TU0):
    g = np.linspace(-1.0, 1.0, n)
    entry = ls.get("hyperbolic_cone")
    return ls.canonical_maps(entry.provider, 0.0, 0.0, g, g,
                             tilde_u0=tilde0, tilde_v0=tilde0), g


# -- map construction -----------------------------------------------------------

def test_cone_map_matches_closed_form():
    (umap, vmap), g = cone_maps(201)
    exact = CONE_TU0 * np.exp(g / 4.0)
    assert np.max(np.abs(umap.values - exact)) <= 1e-10
    assert np.max(np.abs(vmap.values - exact)) <= 1e-10
    np.testing.assert_allclose(umap.derivative,
                               np.sqrt(0.75 ** 0.5 * np.exp(g / 2.0))[...],
                               rtol=1e-12)


def test_cone_map_quadrature_order():
    errs = []
    for n in (101, 201):
        (umap, _), g = cone_maps(n)
        errs.append(np.max(np.abs(umap.values - CONE_TU0 * np.exp(g / 4.0))))
    assert errs[0] / errs[1] >= 8.0  # Simpson, order 4


def test_identity_map_when_integrand_is_one():
    entry = ls.get("enneper1")
    u = np.linspace(1.0, 2.0, 41)
    v = np.linspace(-1.0, 0.0, 41)
    umap, vmap = ls.canonical_maps(entry.provider, 1.5, -0.5, u, v,
                                   tilde_u0=1.5, tilde_v0=-0.5)
    np.testing.assert_allclose(umap.values, u, atol=1e-13)
    np.testing.assert_allclose(vmap.values, v, atol=1e-13)


def test_cylinder_maps_are_shifts():
    g = np.linspace(0.0, 2 * np.pi, 33)
    umap, vmap = ls.canonical_maps(ls.get("cylinder").provider, g[16], g[16], g, g,
                                   tilde_u0=5.0, tilde_v0=-2.0)
    np.testing.assert_allclose(umap.values, g - g[16] + 5.0, atol=1e-12)
    np.testing.assert_allclose(vmap.values, g - g[16] - 2.0, atol=1e-12)


def test_map_monotonicity_and_inverse():
    (umap, _), g = cone_maps(101)
    assert np.all(np.diff(umap.values) > 0)
    np.testing.assert_allclose(umap.inverse(umap.values), g, atol=1e-12)
    with pytest.raises(ls.MapRangeError):
        umap.inverse(umap.range[1] + 1.0)


def test_map_refuses_non_finite_values_and_slopes():
    g = np.linspace(0.0, 1.0, 5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ls.ChartError, match=r"map value is non-finite at index \(2,\)"):
            ls.MonotoneMap(knots=g, values=np.where(g == 0.5, bad, g), derivative=np.ones(5))
        with pytest.raises(ls.ChartError, match="map derivative is non-finite"):
            ls.MonotoneMap(knots=g, values=g, derivative=np.full(5, bad))


@pytest.mark.parametrize("base", ["centre", "off_centre"])
@pytest.mark.parametrize("name", ["enneper1", "enneper2", "cylinder", "hyperbolic_cylinder",
                                  "hyperbolic_cone"])
def test_provider_maps_equal_maps_from_the_chart_base_lines(name, base):
    # the provider form of canonical_maps equals the maps from a provider chart's base lines
    entry = ls.get(name)
    a, b, c, d = entry.default_domain
    u, v = np.linspace(a, b, 21), np.linspace(c, d, 25)
    i0, j0 = (10, 12) if base == "centre" else (3, 19)
    chart = ls.chart_from_provider(entry.provider, u, v, u[i0], v[j0])
    from_lines = ls.canonical_maps_from_lines(u, chart.L[:, j0], v, chart.N[i0, :],
                                              u[i0], v[j0], tilde_u0=0.5, tilde_v0=-1.0)
    from_provider = ls.canonical_maps(entry.provider, u[i0], v[j0], u, v,
                                      tilde_u0=0.5, tilde_v0=-1.0)
    for m, n in zip(from_provider, from_lines):
        assert np.array_equal(m.values, n.values) and np.array_equal(m.derivative, n.derivative)


def test_maps_reject_degenerate_lines():
    g = np.linspace(-0.5, 0.5, 21)
    with pytest.raises(ls.NotGeneralTypeError):
        ls.canonical_maps(ls.get("lorentz_sphere").provider, 0.0, 0.0, g, g)


def test_maps_reject_sign_change():
    # no node at zero: L crosses it between nodes 9 and 10, far from the end nodes
    g = np.linspace(-1.0, 1.0, 20)
    L_line = g.copy()
    N_line = np.ones_like(g)
    with pytest.raises(ls.NotGeneralTypeError) as err:
        ls.canonical_maps_from_lines(g, L_line, g, N_line, float(g[15]), float(g[3]))
    assert str(err.value) == (
        f"L changes sign on the base line between parameters {float(g[9])!r} and "
        f"{float(g[10])!r} (nodes 9 and 10); the surface changes kind there")
    with pytest.raises(ls.NotGeneralTypeError, match=r"^N changes sign .* \(nodes 9 and 10\)"):
        ls.canonical_maps_from_lines(g, N_line, g, -L_line, float(g[3]), float(g[15]))


# -- resampling -----------------------------------------------------------------

def test_resample_cone_reproduces_closed_forms():
    n = 201
    (umap, vmap), g = cone_maps(n)
    src = ls.chart_from_provider(ls.get("hyperbolic_cone").provider, g, g, 0.0, 0.0)
    cu = ls.grid_through(CONE_TU0, *umap.range, n)
    cv = ls.grid_through(CONE_TU0, *vmap.range, n)
    out = ls.resample_to_canonical(src, (umap, vmap), cu, cv)
    assert ls.verify_canonical(out).passed
    TU, TV = np.meshgrid(cu, cv, indexing="ij")
    F_exact = TU**3 * TV**3 / 1152.0
    H_exact = -48.0 * np.sqrt(3.0) / (TU**2 * TV**2)
    assert np.max(np.abs(out.F / F_exact - 1.0)) <= 1e-7
    assert np.max(np.abs(out.H / H_exact - 1.0)) <= 1e-7
    assert out.eps1 == 1 and out.eps2 == 1


def test_resample_identity_keeps_chart():
    chart = ls.reference_chart("enneper1", np.linspace(1.0, 2.0, 41),
                               np.linspace(-1.0, 0.0, 41))
    ident_u = ls.MonotoneMap(knots=chart.u_grid, values=chart.u_grid.copy(),
                             derivative=np.ones_like(chart.u_grid))
    ident_v = ls.MonotoneMap(knots=chart.v_grid, values=chart.v_grid.copy(),
                             derivative=np.ones_like(chart.v_grid))
    out = ls.resample_to_canonical(chart, (ident_u, ident_v),
                                   chart.u_grid, chart.v_grid)
    assert ls.verify_canonical(out).passed
    np.testing.assert_allclose(out.F, chart.F, atol=1e-10)
    np.testing.assert_allclose(out.H, chart.H, atol=1e-12)


def test_resample_shift_keeps_cylinder_constant():
    g = np.linspace(0.0, 2 * np.pi, 33)
    chart = ls.reference_chart("cylinder", g, g)
    shift_u = ls.MonotoneMap(knots=g, values=g + 4.0, derivative=np.ones_like(g))
    shift_v = ls.MonotoneMap(knots=g, values=g - 1.0, derivative=np.ones_like(g))
    out = ls.resample_to_canonical(chart, (shift_u, shift_v), g + 4.0, g - 1.0)
    assert ls.verify_canonical(out).passed
    np.testing.assert_allclose(out.F, 2.0, atol=1e-10)
    np.testing.assert_allclose(out.H, 0.5, atol=1e-12)


def test_resample_requires_second_form_fields():
    chart = enneper1_chart(21)      # no L, M, N
    ident = ls.MonotoneMap(knots=chart.u_grid, values=chart.u_grid.copy(),
                           derivative=np.ones_like(chart.u_grid))
    with pytest.raises(ls.ChartError):
        ls.resample_to_canonical(chart, (ident, ident), chart.u_grid, chart.v_grid)


def test_resample_range_error():
    (umap, vmap), g = cone_maps(51)
    src = ls.chart_from_provider(ls.get("hyperbolic_cone").provider, g, g, 0.0, 0.0)
    bad = np.linspace(umap.range[0] - 1.0, umap.range[1], 11)
    with pytest.raises(ls.MapRangeError):
        ls.resample_to_canonical(src, (umap, vmap), bad, bad)


# -- canonicity verification -------------------------------------------------------

def canonical_within(chart, tol):
    """verify_canonical's deviations judged at `tol` rather than CANONICAL_TOL."""
    rep = ls.verify_canonical(chart)
    return within([rep.max_dev_L, rep.max_dev_N], tol)


def test_verify_canonical_enneper_variants():
    chart1 = ls.reference_chart("enneper1", np.linspace(1.0, 2.0, 31),
                                np.linspace(-1.0, 0.0, 31))
    rep1 = ls.verify_canonical(chart1)
    assert canonical_within(chart1, 1e-12) and rep1.max_dev_L == 0.0 and rep1.max_dev_N == 0.0
    assert (rep1.eps1, rep1.eps2) == (1, 1)

    chart2 = ls.reference_chart("enneper2", np.linspace(0.5, 1.5, 31),
                                np.linspace(0.5, 1.5, 31))
    rep2 = ls.verify_canonical(chart2)
    assert canonical_within(chart2, 1e-12) and (rep2.eps1, rep2.eps2) == (1, -1)


def test_enneper1_provider_chart_is_canonical():
    # L = N = 1 exactly; the forms of the provider's jets round to within 1e-12
    u, v = np.linspace(1.1, 1.9, 17), np.linspace(-0.9, -0.1, 17)
    rep = ls.verify_canonical(ls.chart_from_provider(ls.get("enneper1").provider, u, v, 1.5, -0.5))
    assert rep.passed and max(rep.max_dev_L, rep.max_dev_N) <= 1e-12


def test_verify_canonical_raw_cone_fails_with_known_deviation():
    u = np.linspace(-1.0, 1.0, 41)
    chart = ls.chart_from_provider(ls.get("hyperbolic_cone").provider, u, u, 0.0, 0.0)
    rep = ls.verify_canonical(chart)  # CANONICAL_TOL = 1e-6
    assert not rep.passed and rep.tol == 1e-6
    expected = np.max(np.abs(0.5 * np.sqrt(3.0) * np.exp(u / 2.0) - 1.0))
    assert np.isclose(rep.max_dev_L, expected, rtol=1e-10)


def test_verify_canonical_fails_a_non_finite_tolerance(monkeypatch):
    # the standard is read at each call, so a patched one is the one recorded
    chart = ls.reference_chart("enneper1", np.linspace(1.0, 2.0, 11), np.linspace(-1.0, 0.0, 11))
    monkeypatch.setattr("lorsurf.canonical.CANONICAL_TOL", 0.0)
    assert ls.verify_canonical(chart).passed
    for tol in (np.inf, np.nan):
        monkeypatch.setattr("lorsurf.canonical.CANONICAL_TOL", tol)
        assert not ls.verify_canonical(chart).passed


def test_verify_canonical_requires_fields():
    with pytest.raises(ls.ChartError):
        ls.verify_canonical(enneper1_chart(11))


# -- gauge freedom ------------------------------------------------------------------

def canonical_enneper(n=41):
    return ls.reference_chart("enneper1", np.linspace(1.0, 2.0, n),
                              np.linspace(-1.0, 0.0, n))


def test_gauge_identity():
    chart = canonical_enneper()
    out = ls.canonical_gauge_transform(chart, 1, 0.0, 0.0)
    np.testing.assert_array_equal(out.u_grid, chart.u_grid)
    np.testing.assert_array_equal(out.F, chart.F)
    assert canonical_within(out, 1e-12)


def test_gauge_swap_flips_eps_and_H():
    chart = canonical_enneper()
    out = ls.canonical_gauge_transform(chart, 1, 0.0, 0.0, swap=True)
    assert (out.eps1, out.eps2) == (-chart.eps2, -chart.eps1)
    np.testing.assert_array_equal(out.H, -chart.H.T)
    np.testing.assert_array_equal(out.L, -chart.N.T)
    assert canonical_within(out, 1e-12)


def test_gauge_reflection_on_cylinder():
    g = np.linspace(0.0, 2 * np.pi, 21)
    chart = ls.reference_chart("cylinder", g, g)
    chart.metadata.update(canonical_check={"passed": True}, canonical=True)  # older files
    out = ls.canonical_gauge_transform(chart, -1, 0.0, 0.0)
    assert canonical_within(out, 1e-12)
    assert out.metadata == {"source": "cylinder",
                            "gauge": {"delta": -1, "c1": 0.0, "c2": 0.0, "swap": False}}
    assert np.all(out.F == 2.0) and np.all(out.H == 0.5)
    assert np.all(np.diff(out.u_grid) > 0)


def test_gauge_requires_canonical_chart():
    u = np.linspace(-1.0, 1.0, 21)
    raw_cone = ls.chart_from_provider(ls.get("hyperbolic_cone").provider, u, u, 0.0, 0.0)
    with pytest.raises(ls.ChartError):
        ls.canonical_gauge_transform(raw_cone, 1, 0.5, 0.5)


def test_gauge_verifies_a_chart_whose_file_claims_canonical(tmp_path):
    u = np.linspace(-1.0, 1.0, 21)
    raw_cone = ls.chart_from_provider(ls.get("hyperbolic_cone").provider, u, u, 0.0, 0.0)
    raw_cone.metadata["canonical"] = True  # the claim that older chart files carry
    ls.write_chart(raw_cone, str(tmp_path / "c.json"))
    claimed = ls.read_chart(str(tmp_path / "c.json"))
    assert claimed.metadata["canonical"] is True and not ls.verify_canonical(claimed).passed
    with pytest.raises(ls.ChartError, match="requires a canonical chart"):
        ls.canonical_gauge_transform(claimed, 1, 0.5, 0.5)


_CONE_LN = ls.accumulate_LN(cone_canonical_chart(41))  # canonical: L = eps1 on v = v0


@settings(max_examples=12, deadline=None)
@given(delta=st.sampled_from([-1, 1]), c1=st.floats(-4.0, 4.0), c2=st.floats(-4.0, 4.0),
       swap=st.booleans())
def test_gauge_keeps_canonicity_and_the_natural_residual(delta, c1, c2, swap):
    # the transform only moves indices; shifted grids change the stencils' steps
    # in their last bits, and the residual with them
    out = ls.canonical_gauge_transform(_CONE_LN, delta, c1, c2, swap=swap)
    assert ls.verify_canonical(out).passed
    before = ls.natural_residual(_CONE_LN).max_abs
    assert ls.natural_residual(out).max_abs == pytest.approx(before, rel=1e-9, abs=0.0)


def test_non_affine_reparametrization_fails_verification():
    chart = canonical_enneper(61)
    a = 0.1
    # u = tu + a tu^2 with tu > 0; invert on the chart's u-range
    tu = (np.sqrt(1.0 + 4.0 * a * chart.u_grid) - 1.0) / (2.0 * a)
    tv = chart.v_grid + 0.0
    umap = ls.MonotoneMap(knots=chart.u_grid, values=tu,
                          derivative=1.0 / (1.0 + 2.0 * a * tu))
    vmap = ls.MonotoneMap(knots=chart.v_grid, values=tv,
                          derivative=np.ones_like(tv))
    cu = np.linspace(tu[0], tu[-1], 61)
    cu[np.argmin(np.abs(cu - umap(chart.u0)))] = float(umap(chart.u0))
    out = ls.resample_to_canonical(chart, (umap, vmap), cu, chart.v_grid)
    rep = ls.verify_canonical(out)  # CANONICAL_TOL = 1e-6
    assert not rep.passed and rep.tol == 1e-6
    assert rep.max_dev_L > 0.05  # L = (1 + 2 a tu)^2 deviates at order a


# -- composition: maps + reparametrized surface give a canonical chart ---------------

def test_composition_cone_becomes_canonical():
    (umap, vmap), _ = cone_maps(201)
    provider = ls.reparametrize_provider(ls.get("hyperbolic_cone").provider, umap, vmap)
    lo, hi = umap.range
    g = ls.grid_through(CONE_TU0, lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 33)
    rep = ls.verify_canonical(ls.chart_from_provider(provider, g, g, CONE_TU0, CONE_TU0))
    assert rep.passed and (rep.eps1, rep.eps2) == (1, 1)
    # |L^2 - 1| <= 1e-6, the pseudo arc-length condition, in L: |L - 1| <= 5e-7
    assert max(rep.max_dev_L, rep.max_dev_N) <= 5e-7, (rep.max_dev_L, rep.max_dev_N)
