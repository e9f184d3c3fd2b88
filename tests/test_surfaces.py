import numpy as np
import pytest

import lorsurf as ls
import lorsurf.minkowski as mk
import lorsurf.surfaces as surfaces
from lorsurf.stencils import cross_derivative

from conftest import interior_points

ALL = ["enneper1", "enneper2", "lorentz_sphere", "cylinder",
       "hyperbolic_cylinder", "hyperbolic_cone"]


def forms_at(entry, u, v):
    return ls.fundamental_forms(entry.provider(u, v))


@pytest.mark.parametrize("name", ALL)
def test_forms_match_closed_forms(name, rng):
    entry = ls.get(name)
    u, v = interior_points(entry, rng, 100)
    fd = forms_at(entry, u, v)
    ref = entry.reference
    for computed, expected in [
        (fd.E, 0.0), (fd.G, 0.0),
        (fd.F, ref.F(u, v)), (fd.L, ref.L(u, v)), (fd.M, ref.M(u, v)),
        (fd.N, ref.N(u, v)), (fd.K, ref.K(u, v)), (fd.H, ref.H(u, v)),
    ]:
        expected = np.asarray(expected, dtype=float)
        dev = np.abs(computed - expected) / (1.0 + np.abs(expected))
        assert np.max(dev) <= 1e-9


def test_enneper1_point_values():
    fd = forms_at(ls.get("enneper1"), 1.0, 0.0)
    assert abs(fd.E) < 1e-14 and abs(fd.G) < 1e-14
    assert np.isclose(fd.F, 0.5)
    assert np.isclose(fd.L, 1.0) and np.isclose(fd.M, 0.0) and np.isclose(fd.N, 1.0)
    assert np.isclose(fd.K, -4.0) and np.isclose(fd.H, 0.0)


def test_cylinder_point_values(rng):
    u, v = rng.uniform(0, 2 * np.pi, 2)
    fd = forms_at(ls.get("cylinder"), u, v)
    assert np.isclose(fd.F, 2.0)
    assert np.allclose([fd.L, fd.M, fd.N], 1.0)
    assert np.isclose(fd.K, 0.0, atol=1e-12) and np.isclose(fd.H, 0.5)


def test_sphere_point_values():
    fd = forms_at(ls.get("lorentz_sphere"), 0.0, 0.0)
    assert np.isclose(fd.F, 2.0)
    assert np.isclose(fd.L, 0.0, atol=1e-14) and np.isclose(fd.N, 0.0, atol=1e-14)
    assert np.isclose(fd.M, 2.0)
    assert np.isclose(fd.K, 1.0) and np.isclose(fd.H, 1.0)


@pytest.mark.parametrize("name", ALL)
def test_normal_contract(name, rng):
    entry = ls.get(name)
    u, v = interior_points(entry, rng, 50)
    jet = entry.provider(u, v)
    fd = ls.fundamental_forms(jet)
    assert np.max(np.abs(mk.inner(fd.l, fd.l) - 1.0)) <= 1e-9
    assert np.max(np.abs(mk.inner(jet.x_u, fd.l))) <= 1e-9
    assert np.max(np.abs(mk.inner(jet.x_v, fd.l))) <= 1e-9


@pytest.mark.parametrize("name", ALL)
def test_h2_minus_k_equals_LN_over_F2(name, rng):
    entry = ls.get(name)
    u, v = interior_points(entry, rng, 50)
    fd = forms_at(entry, u, v)
    lhs = fd.H**2 - fd.K
    rhs = fd.L * fd.N / fd.F**2
    assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))) <= 1e-9


@pytest.mark.parametrize("name", ["enneper1", "hyperbolic_cone", "lorentz_sphere"])
def test_theorema_egregium_by_grid_convergence(name):
    entry = ls.get(name)
    a, b, c, d = entry.default_domain
    devs = []
    for n in (81, 161):
        u = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), n)
        v = np.linspace(c + 0.05 * (d - c), d - 0.05 * (d - c), n)
        U, V = np.meshgrid(u, v, indexing="ij")
        fd = forms_at(entry, U, V)
        lnF_uv = cross_derivative(np.log(fd.F), u, v)
        devs.append(np.max(np.abs(fd.K[1:-1, 1:-1] + lnF_uv / fd.F[1:-1, 1:-1])))
    floor = 1e-11
    assert devs[1] <= max(devs[0] / 3.0, floor)


@pytest.mark.parametrize("name", ALL)
def test_orientation_swap_law(name, rng):
    entry = ls.get(name)
    u, v = interior_points(entry, rng, 30)
    fd = forms_at(entry, u, v)
    swapped = ls.swap_parameters(entry.provider)
    fd_s = ls.fundamental_forms(swapped(v, u))
    assert np.allclose(fd_s.F, fd.F, atol=1e-12)
    assert np.allclose(fd_s.L, -fd.N, atol=1e-12)
    assert np.allclose(fd_s.M, -fd.M, atol=1e-12)
    assert np.allclose(fd_s.N, -fd.L, atol=1e-12)


def test_kind_field_examples():
    for name, (u, v), code, h2k in (("enneper1", (1.0, 0.0), 1, 4.0),
                                    ("enneper2", (1.0, 0.0), -1, -4.0),
                                    ("lorentz_sphere", (0.3, -0.1), 0, 0.0)):
        fd = forms_at(ls.get(name), u, v)
        assert ls.kind_field(fd.H, fd.K) == code
        assert np.isclose(fd.H**2 - fd.K, h2k)
        assert np.isclose(fd.L * fd.N / fd.F**2, h2k)


def test_kind_field_tolerance_is_KIND_TOL_of_the_curvature_scale():
    # an H^2 - K planted (by a shift of K) at 2, 1/2 and -2 times
    # KIND_TOL * (H^2 + |K|) is +1, 0 and -1
    scale = 2.0 * 0.25  # H = 0.5, K ~ 0.25
    kinds = [ls.kind_field(0.5, 0.25 - r * surfaces.KIND_TOL * scale) for r in (2.0, 0.5, -2.0)]
    assert kinds == [1, 0, -1]
    assert [ls.SurfaceKind.of(code) for code in (1, -1, 0)] == list(ls.SurfaceKind)


def test_kind_field_of_enneper2_is_second_kind(rng):
    entry = ls.get("enneper2")
    u, v = interior_points(entry, rng, 20)
    fd = forms_at(entry, u, v)
    assert np.all(ls.kind_field(fd.H, fd.K) == -1)


def test_is_isotropic(rng):
    entry = ls.get("cylinder")
    u, v = interior_points(entry, rng, 10)
    jet = entry.provider(u, v)
    assert np.all(ls.is_isotropic(ls.fundamental_forms(jet), jet))
    # graph surface (u, v, 0): E = -1, G = 1
    jet = ls.SurfaceJet2(
        x=np.zeros(3), x_u=np.array([1.0, 0.0, 0.0]), x_v=np.array([0.0, 1.0, 0.0]),
        x_uu=np.zeros(3), x_uv=np.zeros(3), x_vv=np.zeros(3))
    assert not ls.is_isotropic(ls.fundamental_forms(jet), jet)
    # on the line u = v the Enneper F degenerates to 0
    degenerate = ls.FundamentalData(E=0.0, F=0.0, G=0.0, L=1.0, M=0.0, N=1.0,
                                    K=0.0, H=0.0, l=np.zeros(3))
    assert not ls.is_isotropic(degenerate, jet)


# -- finite-difference jets ----------------------------------------------------

def test_fd_jets_exact_for_linear_map():
    f = lambda u, v: np.stack(np.broadcast_arrays(u, v, 0.0 * u), axis=-1)
    provider = ls.jet_from_position(f, (-1.0, 1.0, -1.0, 1.0), h=0.01)
    jet = provider(0.2, -0.3)
    np.testing.assert_allclose(jet.x_u, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(jet.x_v, [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(jet.x_uu, np.zeros(3), atol=1e-9)
    np.testing.assert_allclose(jet.x_uv, np.zeros(3), atol=1e-9)


def test_fd_jets_converge_to_analytic_at_order_2():
    entry = ls.get("enneper1")
    point = (1.0, 0.0)
    exact = entry.provider.jet(*point)
    errs = []
    for h in (1e-2, 5e-3):
        provider = ls.jet_from_position(entry.position, (0.0, 3.0, -2.0, 1.0), h=h)
        jet = provider(*point)
        errs.append(np.max(np.abs(jet.x_u - exact.x_u)))
    assert errs[0] <= 1e-4
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0  # first-derivative error shrinks ~x4 when h halves


def test_fd_jets_forms_match_reference_at_h2():
    entry = ls.get("enneper1")
    h = 1e-4
    provider = ls.jet_from_position(entry.position, (0.0, 3.0, -2.0, 1.0), h=h)
    u = np.linspace(1.1, 1.9, 9)
    v = np.linspace(-0.9, -0.1, 9)
    U, V = np.meshgrid(u, v, indexing="ij")
    fd = ls.fundamental_forms(provider(U, V))
    ref = entry.reference
    # first-form coefficients carry the O(h^2) stencil error, second-form
    # ones also the rounding floor eps/h^2 of the second differences
    assert np.max(np.abs(fd.F - ref.F(U, V))) <= 10 * h**2
    assert np.max(np.abs(fd.L - ref.L(U, V))) <= 1e-6
    assert np.max(np.abs(fd.K - ref.K(U, V))) <= 1e-4


def test_fd_default_step_is_domain_scaled():
    domain = (0.0, 3.0, -2.0, 1.0)
    provider = ls.jet_from_position(ls.get("enneper1").position, domain)
    assert np.isclose(provider.stencil_margin, 1e-4 * np.hypot(3.0, 3.0))


def test_fd_domain_error():
    provider = ls.jet_from_position(
        lambda u, v: np.stack(np.broadcast_arrays(u, v, u * v), axis=-1),
        (0.0, 1.0, 0.0, 1.0), h=1e-3)
    with pytest.raises(ls.DomainError):
        provider(1.5, 0.5)
    with pytest.raises(ls.DomainError):
        provider(1.0, 0.5)  # stencil would poke outside


def test_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        ls.jet_from_position(lambda u, v: np.zeros(3), (0, 1, 0, 1), h=0.0)


# -- F > 0 convention -----------------------------------------------------------

def test_swap_keeps_F_invariant():
    # F = <x_u, x_v> is symmetric, so renumbering cannot change its sign
    entry = ls.get("enneper1")
    fd = ls.fundamental_forms(entry.provider(1.5, -0.5))
    fd_s = ls.fundamental_forms(ls.swap_parameters(entry.provider)(-0.5, 1.5))
    assert np.isclose(fd_s.F, fd.F)


# -- error paths -----------------------------------------------------------------

def test_degenerate_metric_error():
    entry = ls.get("enneper1")
    jet = entry.provider.jet(np.array([1.2]), np.array([1.2]))  # u = v, F = 0
    with pytest.raises(ls.DegenerateMetricError):
        ls.fundamental_forms(jet)


def test_not_lorentz_surface_error():
    # spacelike graph z = f(x, y) has a timelike normal direction
    jet = ls.SurfaceJet2(
        x=np.zeros(3), x_u=np.array([0.0, 1.0, 0.0]), x_v=np.array([0.0, 0.0, 1.0]),
        x_uu=np.zeros(3), x_uv=np.zeros(3), x_vv=np.zeros(3))
    with pytest.raises(ls.NotLorentzSurfaceError):
        ls.fundamental_forms(jet)


def test_non_finite_jet_rejected():
    jet = ls.SurfaceJet2(x=np.array([np.nan, 0, 0]), x_u=np.ones(3), x_v=np.ones(3),
                         x_uu=np.zeros(3), x_uv=np.zeros(3), x_vv=np.zeros(3))
    with pytest.raises(ValueError):
        ls.fundamental_forms(jet)


def test_jets_from_mesh_recovers_forms():
    n = 101
    g = np.linspace(0.0, 1.0, n)
    U, V = np.meshgrid(g, g, indexing="ij")
    mesh = ls.get("cylinder").position(U, V)
    jets = ls.jets_from_mesh(mesh, g, g)
    inner = ls.SurfaceJet2(**{k: getattr(jets, k)[1:-1, 1:-1] for k in
                              ("x", "x_u", "x_v", "x_uu", "x_uv", "x_vv")})
    fd = ls.fundamental_forms(inner)
    h = g[1] - g[0]
    assert np.max(np.abs(fd.F - 2.0)) <= h**2
    assert np.max(np.abs(fd.M - 1.0)) <= h**2


def _nan_chart():
    g = np.linspace(0.0, 1.0, 4)
    F = np.ones((4, 4))
    F[2, 1] = np.nan
    return ls.Chart(u_grid=g, v_grid=g, F=F, H=np.zeros((4, 4)),
                    u0_index=0, v0_index=0, eps1=1, eps2=1).validate()


def _nonpositive_F_chart():
    g = np.linspace(0.0, 1.0, 5)
    F = np.ones((5, 5))
    F[2, 3] = -2.0
    return ls.Chart(u_grid=g, v_grid=g, F=F, H=np.zeros((5, 5)),
                    u0_index=0, v0_index=0, eps1=1, eps2=1).validate()


_SPACELIKE_JET = ls.SurfaceJet2(
    x=np.zeros((2, 3)), x_u=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    x_v=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
    x_uu=np.zeros((2, 3)), x_uv=np.zeros((2, 3)), x_vv=np.zeros((2, 3)))

ERROR_SITES = {
    "outside domain": (lambda: ls.get("enneper1").provider(np.array([1.0, 99.0]), 0.25),
                       "(u, v) = (99.0, 0.25)"),
    "singular set": (lambda: ls.get("enneper1").provider(np.array([1.0, 0.5]),
                                                         np.array([0.0, 0.5])),
                     "(u, v) = (0.5, 0.5)"),
    "degenerate metric": (lambda: ls.fundamental_forms(
        ls.get("enneper1").provider.jet(np.array([1.5, 1.2]), np.array([0.0, 1.2]))),
        "index (1,)"),
    "not Lorentz": (lambda: ls.fundamental_forms(_SPACELIKE_JET), "index (1,)"),
    "non-finite chart field": (_nan_chart, "node (2, 1), (u, v) = "),
    "F <= 0 in a chart": (_nonpositive_F_chart, "at node (2, 3), (u, v) = (0.5, 0.75)"),
    "reference chart on the singular set": (
        lambda: ls.reference_chart("enneper1", np.linspace(0.0, 1.0, 11),
                                   np.linspace(0.0, 1.0, 11)),
        "at node (0, 0), (u, v) = (0.0, 0.0)"),
    "|H^2 - K| vanishes": (lambda: ls.F_from_K_cmc(np.array([[0.0, 1.0]]), 1.0),
                           "index (0, 1)"),
    "H^2 - K changes sign": (lambda: ls.F_from_K_cmc(np.array([[0.0, 2.0]]), 1.0),
                             "index (0, 1)"),
}


@pytest.mark.parametrize("site", ERROR_SITES)
def test_error_locations_are_plain_ints(site):
    fn, where = ERROR_SITES[site]
    with pytest.raises(ls.LorsurfError) as err:
        fn()
    assert "np." not in str(err.value) and where in str(err.value)
    node = err.value.node
    assert node is None or all(type(k) is int for k in node)
