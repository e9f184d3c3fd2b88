import numpy as np
import pytest

import lorsurf as ls

from conftest import cone_canonical_chart, interior_points


def test_names_and_lookup():
    expected = {"enneper1", "enneper2", "lorentz_sphere", "cylinder",
                "hyperbolic_cylinder", "hyperbolic_cone"}
    assert set(ls.names()) == expected
    with pytest.raises(ls.UnknownSurfaceError):
        ls.get("moebius")
    with pytest.raises(KeyError) as err:
        ls.get("moebius")
    assert str(err.value).startswith("unknown surface 'moebius'; available: ")


def test_reference_point_values():
    assert np.isclose(ls.get("enneper1").reference.K(1.0, 0.0), -4.0)
    assert np.isclose(ls.get("hyperbolic_cone").reference.H(0.0, 0.0),
                      -np.sqrt(3.0) / 4.0)
    assert ls.get("lorentz_sphere").kind is ls.SurfaceKind.DEGENERATE
    assert ls.get("enneper1").kind is ls.SurfaceKind.FIRST
    assert ls.get("enneper2").kind is ls.SurfaceKind.SECOND


def test_reference_chart_exact_at_nodes():
    u = np.linspace(1.0, 2.0, 21)
    v = np.linspace(-1.0, 0.0, 21)
    chart = ls.reference_chart("enneper1", u, v)
    U, V = np.meshgrid(u, v, indexing="ij")
    np.testing.assert_array_equal(chart.F, 0.5 * (U - V) ** 2)
    assert chart.eps1 == 1 and chart.eps2 == 1
    assert chart.u0 == u[10] and chart.v0 == v[10]


def test_reference_chart_cylinder_constant():
    g = np.linspace(0.0, 2 * np.pi, 31)
    chart = ls.reference_chart("cylinder", g, g)
    assert np.all(chart.F == 2.0)
    assert np.all(chart.H == 0.5)
    assert chart.eps1 == 1 and chart.eps2 == 1
    hcyl = ls.reference_chart("hyperbolic_cylinder", g, g)
    assert hcyl.eps1 == -1 and hcyl.eps2 == -1


def test_reference_chart_singular_grid_rejected():
    g = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ls.DomainError):
        ls.reference_chart("enneper1", g, g)  # contains u = v


def test_reference_chart_degenerate_rejected():
    g = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ls.NotGeneralTypeError):
        ls.reference_chart("lorentz_sphere", g, g)


@pytest.mark.parametrize("name", ls.names())
def test_jet_position_is_the_entry_position_bit_for_bit(name, rng):
    entry = ls.get(name)
    u, v = interior_points(entry, rng, 24)
    u, v = u.reshape(4, 6), v.reshape(4, 6)
    assert np.array_equal(entry.provider.jet(u, v).x, entry.position(u, v))


@pytest.mark.parametrize("name", ["enneper1", "enneper2", "lorentz_sphere",
                                  "cylinder", "hyperbolic_cylinder", "hyperbolic_cone"])
def test_reference_fields_are_isotropic_data(name, rng):
    entry = ls.get(name)
    u, v = interior_points(entry, rng, 25)
    F = entry.reference.F(u, v)
    assert np.all(F > 0)
    # H = M / F and K = (M^2 - L N) / F^2 must hold between the closed forms
    ref = entry.reference
    assert np.allclose(ref.H(u, v), ref.M(u, v) / F, atol=1e-12)
    assert np.allclose(ref.K(u, v),
                       (ref.M(u, v) ** 2 - ref.L(u, v) * ref.N(u, v)) / F**2,
                       atol=1e-12)


def test_each_entry_satisfies_its_natural_equation():
    # minimal surfaces: sqrt|K| (ln sqrt|K|)_uv = K
    for name, dom in (("enneper1", (1.0, 2.0, -1.0, 0.0)),
                      ("enneper2", (0.5, 1.5, 0.5, 1.5))):
        u = np.linspace(dom[0], dom[1], 161)
        v = np.linspace(dom[2], dom[3], 161)
        chart = ls.reference_chart(name, u, v)
        assert ls.minimal_residual(chart.K, u, v).max_abs <= 5e-4
    # CMC cylinders: the zero solution, residual identically zero
    g = np.linspace(0.0, 2 * np.pi, 41)
    for name in ("cylinder", "hyperbolic_cylinder"):
        chart = ls.reference_chart(name, g, g)
        assert ls.cmc_residual(chart.K, 0.5, g, g).max_abs == 0.0
    # cone in canonical coordinates: general natural equation
    assert ls.natural_residual(cone_canonical_chart(161)).max_abs <= 5e-5
