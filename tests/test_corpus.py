import tracemalloc

import numpy as np
import pytest

import lorsurf as ls
from lorsurf.chart import _signed_chart, grid_index

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


def meshgrid_reference_chart(name, u, v, u0=None, v0=None):
    """reference_chart as it was built on whole meshgrids: every field a full
    copy, the constants included (the oracle of the open-axis evaluation)."""
    entry = ls.get(name)
    U, V = np.meshgrid(u, v, indexing="ij")
    entry.provider.check(U, V)
    i0 = (u.size - 1) // 2 if u0 is None else grid_index(u, u0)
    j0 = (v.size - 1) // 2 if v0 is None else grid_index(v, v0)
    fields = {k: np.broadcast_arrays(np.asarray(getattr(entry.reference, k)(U, V)), U + V)[0]
              .copy() for k in "FHLMNK"}
    return _signed_chart(u, v, i0, j0, metadata={"source": name}, **fields)


def _outcome(build, *args):
    try:
        return build(*args)
    except ls.LorsurfError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ls.names())
@pytest.mark.parametrize("base", ["centre", "off-centre"])
def test_reference_chart_equals_the_meshgrid_oracle_bit_for_bit(name, base):
    (a, b, c, d), n = ls.get(name).default_domain, 23
    u, v = np.linspace(a, b, n), np.linspace(c, d + 0.125, n + 4)
    args = (name, u, v) + (() if base == "centre" else (u[3], v[n - 2]))
    ours, oracle = _outcome(ls.reference_chart, *args), _outcome(meshgrid_reference_chart, *args)
    if isinstance(oracle, tuple):  # the Lorentz sphere is not of general type
        assert ours == oracle
        return
    for k in ("u0_index", "v0_index", "eps1", "eps2", "metadata"):
        assert getattr(ours, k) == getattr(oracle, k)
    for k in "FHLMNK":
        mine, theirs = getattr(ours, k), getattr(oracle, k)
        assert mine.shape == theirs.shape == (n, n + 4)
        assert np.ascontiguousarray(mine).tobytes() == theirs.tobytes(), k


CONSTANT_FIELDS = {"cylinder": "FHLMNK", "enneper1": "LMNH", "enneper2": "LMNH",
                   "hyperbolic_cone": "K"}


@pytest.mark.parametrize("name", sorted(CONSTANT_FIELDS))
def test_constant_reference_fields_are_read_only_zero_stride_views(name):
    (a, b, c, d) = ls.get(name).default_domain
    chart = ls.reference_chart(name, np.linspace(a, b, 9), np.linspace(c, d, 7))
    for k in "FHLMNK":
        f = getattr(chart, k)
        assert f.shape == (9, 7)
        if k in CONSTANT_FIELDS[name]:
            assert f.strides == (0, 0) and not f.flags.writeable, k
            with pytest.raises(ValueError):
                f[0, 0] = 0.0
        else:
            assert f.flags.c_contiguous and f.flags.writeable and f.flags.owndata, k


@pytest.mark.parametrize("name, u, v, message", [
    ("enneper1", np.linspace(0.0, 1.0, 11), np.linspace(-1.0, 0.5, 7),
     "evaluation on singular set at node (0, 4), (u, v) = (0.0, 0.0)"),
    ("enneper1", np.linspace(0.2, 1.0, 5), np.linspace(0.5, 1.0, 3),
     "evaluation on singular set at node (4, 2), (u, v) = (1.0, 1.0)"),
    ("enneper2", np.linspace(-1.0, 1.0, 9), np.linspace(0.5, 1.5, 5),
     "evaluation on singular set at node (0, 2), (u, v) = (-1.0, 1.0)"),
    ("cylinder", np.linspace(40.0, 60.0, 11), np.linspace(0.0, 1.0, 5),
     "evaluation outside domain (-50.0, 50.0, -50.0, 50.0) at node (6, 0), (u, v) = (52.0, 0.0)"),
])
def test_reference_chart_refusals_name_the_first_bad_node(name, u, v, message):
    with pytest.raises(ls.DomainError) as err:
        ls.reference_chart(name, u, v)
    assert str(err.value) == message


def test_a_chart_of_constant_views_reads_back_writable(tmp_path):
    g = np.linspace(0.0, 2 * np.pi, 17)
    chart = ls.reference_chart("cylinder", g, g[:13])
    path = str(tmp_path / "cyl.json")
    ls.write_chart(chart, path)
    back = ls.read_chart(path)
    for k in "FHLMNK":
        f = getattr(back, k)  # the transpose of the file's rows (row index = v)
        assert f.flags.f_contiguous and f.flags.writeable and 0 not in f.strides, k
        assert f.tobytes() == np.ascontiguousarray(getattr(chart, k)).tobytes(), k


def test_reference_chart_peak_allocation_per_node():
    # the closed forms run on the grid's open axes and a constant field is a
    # zero-stride view, so the peak is the varying fields and one temporary
    # (at 401^2: cylinder 2.1 B/node, enneper1 24.0, hyperbolic_cone 48.0;
    # 66-72 with meshgrids and a copy of every constant)
    n = 401
    for name, bound in (("cylinder", 3.0), ("enneper1", 25.0), ("hyperbolic_cone", 49.0)):
        (a, b, c, d) = ls.get(name).default_domain
        u, v = np.linspace(a, b, n), np.linspace(c, d, n)
        ls.reference_chart(name, u[:11], v[:11])  # imports done
        tracemalloc.start()
        try:
            ls.reference_chart(name, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n) <= bound, name
