import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorsurf as ls
from lorsurf.surfaces import SurfaceJet2, SurfaceProvider, fundamental_forms

from conftest import random_grid

# sub-domains of corpus surfaces that avoid their singular sets and keep L, N nonzero
DOMAINS = {
    "enneper1": (1.0, 2.0, -1.0, 0.0),
    "enneper2": (0.5, 1.5, 0.5, 1.5),
    "cylinder": (0.0, 3.0, 0.0, 3.0),
    "hyperbolic_cone": (-0.4, 0.4, -0.4, 0.4),
}


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(DOMAINS)), nu=st.integers(3, 100), nv=st.integers(3, 30),
       seed=st.integers(0, 2**32 - 1))
def test_chart_from_provider_equals_whole_grid_forms_bit_for_bit(name, nu, nv, seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = DOMAINS[name]
    u, v = random_grid(rng, a, b, nu), random_grid(rng, c, d, nv)
    i0, j0 = int(rng.integers(nu)), int(rng.integers(nv))
    provider = ls.get(name).provider
    chart = ls.chart_from_provider(provider, u, v, u[i0], v[j0])
    U, V = np.meshgrid(u, v, indexing="ij")
    fd = fundamental_forms(provider(U, V))
    for field in "FHLMNK":
        assert bits(getattr(chart, field)) == bits(getattr(fd, field)), field
    assert (chart.u0_index, chart.v0_index) == (i0, j0)
    assert (chart.eps1, chart.eps2) == (int(np.sign(fd.L[i0, j0])), int(np.sign(fd.N[i0, j0])))


def _plane_provider(tangent_u, singular_set=None):
    """A provider with x_u = tangent_u(u), x_v = (0, 0, 1) and every other partial 0."""
    def jet(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        x_u = tangent_u(u)
        x_v = np.broadcast_to([0.0, 0.0, 1.0], x_u.shape)
        zero = np.zeros_like(x_u)
        return SurfaceJet2(x=zero, x_u=x_u, x_v=x_v, x_uu=zero, x_uv=zero, x_vv=zero)
    return SurfaceProvider(jet=jet, domain=(0.0, 1.0, 0.0, 1.0), singular_set=singular_set)


def _late(u):
    return (u >= 0.8).astype(float)


LATE_ERRORS = {
    # x_u turns null from u = 0.8 on: EG - F^2 = 0 there
    "degenerate": (ls.DegenerateMetricError,
                   _plane_provider(lambda u: np.stack([np.ones_like(u), _late(u),
                                                       np.zeros_like(u)], axis=-1)),
                   np.linspace(0.0, 1.0, 90), "EG - F^2 vanishes"),
    # x_u turns spacelike from u = 0.8 on: the normal is timelike there
    "not_lorentz": (ls.NotLorentzSurfaceError,
                    _plane_provider(lambda u: np.stack([1.0 - _late(u), _late(u),
                                                        np.zeros_like(u)], axis=-1)),
                    np.linspace(0.0, 1.0, 90), "normal direction not spacelike"),
    # the singular set starts at u = 0.8; the row block that meets it names the node
    "singular": (ls.DomainError,
                 _plane_provider(lambda u: np.stack([np.ones_like(u), np.zeros_like(u),
                                                     np.zeros_like(u)], axis=-1),
                                 singular_set=lambda u, v: u + 0.0 * v >= 0.8),
                 np.linspace(0.0, 1.0, 90), "evaluation on singular set"),
    # the grid runs past the domain from u = 1 on
    "domain": (ls.DomainError,
               _plane_provider(lambda u: np.stack([np.ones_like(u), np.zeros_like(u),
                                                   np.zeros_like(u)], axis=-1)),
               np.linspace(0.0, 1.2, 90), "evaluation outside domain (0.0, 1.0, 0.0, 1.0)"),
}


@pytest.mark.parametrize("kind", LATE_ERRORS)
def test_error_in_a_late_row_block_is_named_on_the_full_grid(kind):
    cls, provider, u, reason = LATE_ERRORS[kind]
    v = np.linspace(0.0, 1.0, 5)
    U, V = np.meshgrid(u, v, indexing="ij")
    with pytest.raises(cls):  # the whole grid fails too; find its first node
        fundamental_forms(provider(U, V))
    bad = (U > 1.0) if kind == "domain" else (U >= 0.8)
    i, j = map(int, np.argwhere(bad)[0])
    assert i >= 64  # the third block of 32 rows
    with pytest.raises(cls) as err:
        ls.chart_from_provider(provider, u, v, 0.0, 0.0)
    assert err.value.node == (i, j) and all(type(k) is int for k in err.value.node)
    assert str(err.value) == (f"{reason} at grid node ({i}, {j}), (u, v) = "
                              f"({float(u[i])!r}, {float(v[j])!r})")


def test_chart_from_provider_peak_allocation_per_node():
    # the provider and the forms run on row blocks, so the peak is the six
    # chart fields plus one block's jets (~80 B/node); the whole grid took ~306
    n = 401
    u, v = np.linspace(1.0, 2.0, n), np.linspace(-1.0, 0.0, n)
    provider = ls.get("enneper1").provider
    ls.chart_from_provider(provider, u[:11], v[:11], u[5], v[5])  # imports done
    tracemalloc.start()
    try:
        ls.chart_from_provider(provider, u, v, u[n // 2], v[n // 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * n) <= 100.0
