import numpy as np
import pytest

import lorsurf as ls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def interior_points(entry, rng, n, margin=0.05):
    """Random interior points of an entry's default domain, off the singular set."""
    a, b, c, d = entry.default_domain
    du, dv = b - a, d - c
    pts_u, pts_v = [], []
    while len(pts_u) < n:
        u = rng.uniform(a + margin * du, b - margin * du, 2 * n)
        v = rng.uniform(c + margin * dv, d - margin * dv, 2 * n)
        if entry.provider.singular_set is not None:
            keep = ~np.asarray(entry.provider.singular_set(u, v), dtype=bool)
            # stay clear of the guard band so F is O(1)
            if entry.name == "enneper1":
                keep &= np.abs(u - v) > 0.05
            if entry.name == "enneper2":
                keep &= np.abs(u + v) > 0.05
            u, v = u[keep], v[keep]
        pts_u.extend(u.tolist())
        pts_v.extend(v.tolist())
    return np.asarray(pts_u[:n]), np.asarray(pts_v[:n])


def random_grid(rng, lo, hi, n):
    """n strictly increasing nodes from lo to hi with steps varying by up to 3x."""
    steps = rng.uniform(0.5, 1.5, n - 1)
    return lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(steps) / steps.sum()])


def enneper1_chart(n=101, domain=(1.0, 2.0, -1.0, 0.0)):
    """The canonical Enneper chart (F = (u-v)^2/2, H = 0, eps = +1, +1)."""
    u = np.linspace(domain[0], domain[1], n)
    v = np.linspace(domain[2], domain[3], n)
    U, V = np.meshgrid(u, v, indexing="ij")
    return ls.Chart(u_grid=u, v_grid=v, F=0.5 * (U - V) ** 2, H=np.zeros((n, n)),
                    u0_index=(n - 1) // 2, v0_index=(n - 1) // 2,
                    eps1=1, eps2=1).validate()


CONE_TU0 = 2.0 * np.sqrt(2.0) * 3.0 ** 0.25  # normalization making the cone map a pure exponential


def cone_canonical_chart(n=101):
    """Closed-form canonical chart of the hyperbolic cone, base node at CONE_TU0."""
    g = ls.grid_through(CONE_TU0, CONE_TU0 * np.exp(-0.25), CONE_TU0 * np.exp(0.25), n)
    k0 = ls.grid_index(g, CONE_TU0)
    TU, TV = np.meshgrid(g, g, indexing="ij")
    F = TU**3 * TV**3 / 1152.0
    H = -48.0 * np.sqrt(3.0) / (TU**2 * TV**2)
    return ls.Chart(u_grid=g, v_grid=g, F=F, H=H, u0_index=k0, v0_index=k0,
                    eps1=1, eps2=1).validate()
