"""Canonical null coordinates: construction, resampling and verification.

For a surface of general type the reparametrizations

    tu(u) = tu0 + integral of sqrt(|L(s, v0)|) from u0 to u,
    tv(v) = tv0 + integral of sqrt(|N(u0, s)|) from v0 to v

turn the coordinates into canonical ones (L = eps1 on the line v = v0 and
N = eps2 on u = u0).  The maps are built by cumulative Simpson quadrature
and inverted with cubic Hermite interpolation using the exact stored
slopes, which keeps the inversion at quadrature accuracy while preserving
monotonicity.  The interpolants are numpy ones (lorsurf.splines): the
maps and their inverses are cubic Hermite pieces (PCHIP slopes where the
stored ones could break monotonicity), the map slopes a not-a-knot cubic
spline, and charts are resampled by the bicubic not-a-knot interpolant
of Chart.interpolator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import Chart, _signed_chart, grid_index
from .errors import (ChartError, MapRangeError, NotGeneralTypeError, negligible, node_at, refuse,
                     within)
from .splines import CubicHermite, cumsimpson_from, notaknot_slopes, pchip_slopes
from .stencils import check_grid
from .surfaces import SurfaceJet2, SurfaceProvider, fundamental_forms

__all__ = [
    "CANONICAL_TOL",
    "MonotoneMap",
    "canonical_maps",
    "canonical_maps_from_lines",
    "resample_to_canonical",
    "CanonicalReport",
    "verify_canonical",
    "canonical_gauge_transform",
    "reparametrize_provider",
]

# The standard of canonicity: L on v = v0 and N on u = u0 are canonical when
# they deviate from eps1 and eps2 by at most this.
CANONICAL_TOL = 1e-6

# Metadata keys of chart files from earlier versions: a canonicity verdict
# frozen at one tolerance.  A derived chart does not inherit them.
_STALE_KEYS = ("canonical", "canonical_check")


def _derived_metadata(chart, **keys):
    """`chart`'s metadata without the stale canonicity keys, updated with `keys`."""
    return {k: val for k, val in chart.metadata.items() if k not in _STALE_KEYS} | keys


@dataclass
class MonotoneMap:
    """Strictly increasing 1-D coordinate change with slopes at the knots.

    knots are source parameter values, values the targets, derivative the
    slope d(target)/d(source) at the knots (all positive).
    """

    knots: np.ndarray
    values: np.ndarray
    derivative: np.ndarray

    def __post_init__(self):
        self.knots = check_grid(self.knots, "map knots")
        self.values = np.asarray(self.values, dtype=float)
        self.derivative = np.asarray(self.derivative, dtype=float)
        refuse(ChartError, ~np.isfinite(self.values), "map value is non-finite")
        refuse(ChartError, ~np.isfinite(self.derivative), "map derivative is non-finite")
        if np.any(np.diff(self.values) <= 0.0):
            raise ChartError("map values must be strictly increasing")
        if np.any(self.derivative <= 0.0):
            raise ChartError("map derivative must be positive at every knot")
        self._forward = _monotone_hermite(self.knots, self.values, self.derivative)
        self._inverse = _monotone_hermite(self.values, self.knots, 1.0 / self.derivative)
        self._slope = CubicHermite(self.knots, self.derivative,
                                   notaknot_slopes(self.knots, self.derivative))

    @property
    def range(self):
        return float(self.values[0]), float(self.values[-1])

    def __call__(self, u):
        return self._forward(u)

    def inverse(self, t):
        """Pull target values back to source parameters (range-checked)."""
        t = np.asarray(t, dtype=float)
        lo, hi = self.range
        span = hi - lo
        if np.any(t < lo - 1e-12 * span) or np.any(t > hi + 1e-12 * span):
            raise MapRangeError(
                f"target values outside map range [{lo!r}, {hi!r}]")
        return self._inverse(np.clip(t, lo, hi))

    def slope_at(self, u):
        """d(target)/d(source) interpolated at source values."""
        return self._slope(u)


def _monotone_hermite(x, y, d):
    """Cubic Hermite interpolant, falling back to PCHIP if the given slopes
    could break monotonicity (Fritsch-Carlson bound d <= 3 * secant)."""
    secant = np.diff(y) / np.diff(x)
    ok = np.all(d[:-1] <= 3.0 * secant) and np.all(d[1:] <= 3.0 * secant)
    return CubicHermite(x, y, d if ok else pchip_slopes(x, y))


def _check_general_type(line, grid, i0, label):
    # each node against the base value; base_signs judges that one against M
    small = negligible(line, abs(line[i0]))
    if np.any(small):
        k = int(np.argwhere(small)[0][0])
        raise NotGeneralTypeError(
            f"{label} vanishes on the base line at parameter {float(grid[k])!r} (node {k})")
    # past the test above no node is zero: the line crosses zero between the nodes of a flip
    flips = np.sign(line[1:]) != np.sign(line[:-1])
    if np.any(flips):
        k = int(np.argwhere(flips)[0][0])
        raise NotGeneralTypeError(
            f"{label} changes sign on the base line between parameters {float(grid[k])!r} "
            f"and {float(grid[k + 1])!r} (nodes {k} and {k + 1}); the surface changes kind there")


def canonical_maps_from_lines(u_grid, L_line, v_grid, N_line, u0, v0,
                              tilde_u0=0.0, tilde_v0=0.0):
    """Canonical coordinate maps from sampled base-line coefficients."""
    u_grid = check_grid(np.asarray(u_grid, dtype=float), "u_grid")
    v_grid = check_grid(np.asarray(v_grid, dtype=float), "v_grid")
    L_line = np.asarray(L_line, dtype=float)
    N_line = np.asarray(N_line, dtype=float)
    i0 = grid_index(u_grid, u0, "u_grid")
    j0 = grid_index(v_grid, v0, "v_grid")
    _check_general_type(L_line, u_grid, i0, "L")
    _check_general_type(N_line, v_grid, j0, "N")
    du = np.sqrt(np.abs(L_line))
    dv = np.sqrt(np.abs(N_line))
    umap = MonotoneMap(knots=u_grid, values=tilde_u0 + cumsimpson_from(du, u_grid, i0),
                       derivative=du)
    vmap = MonotoneMap(knots=v_grid, values=tilde_v0 + cumsimpson_from(dv, v_grid, j0),
                       derivative=dv)
    return umap, vmap


def canonical_maps(provider, u0, v0, u_grid, v_grid, tilde_u0=0.0, tilde_v0=0.0):
    """Canonical coordinate maps for a provider, sampled on the given grids.

    Requires |L| > 0 along v = v0 and |N| > 0 along u = u0 (general type);
    errors name the first offending parameter value.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    v_grid = np.asarray(v_grid, dtype=float)
    fd_u = fundamental_forms(provider(u_grid, np.full_like(u_grid, v0)))
    fd_v = fundamental_forms(provider(np.full_like(v_grid, u0), v_grid))
    return canonical_maps_from_lines(u_grid, fd_u.L, v_grid, fd_v.N, u0, v0,
                                     tilde_u0, tilde_v0)


def resample_to_canonical(chart, maps, canonical_u_grid, canonical_v_grid):
    """Pull a chart back through canonical maps onto canonical grids.

    Source fields are evaluated at (u, v) = (umap^-1(tu), vmap^-1(tv)) by
    bicubic interpolation and transformed with u' = du/dtu = 1/sqrt(|L|):
    F -> F u'v', L -> L u'^2, M -> M u'v', N -> N v'^2, while H and K are
    invariant.  The canonical grids must contain the images of the base
    point and lie inside the map ranges.  Where the pulled-back F is not
    positive, ChartError names the first canonical node and its source
    (u, v).  Whether the result is canonical is verify_canonical's answer;
    the `canonical` and `canonical_check` keys of older chart files are
    not carried over.
    """
    for name in ("L", "M", "N"):
        if getattr(chart, name) is None:
            raise ChartError(f"resampling requires the source chart to carry {name}")
    umap, vmap = maps
    cu = check_grid(np.asarray(canonical_u_grid, dtype=float), "canonical_u_grid")
    cv = check_grid(np.asarray(canonical_v_grid, dtype=float), "canonical_v_grid")
    u_src = umap.inverse(cu)
    v_src = vmap.inverse(cv)
    up = 1.0 / umap.slope_at(u_src)   # du/dtu at the pulled-back nodes
    vp = 1.0 / vmap.slope_at(v_src)
    i0 = grid_index(cu, float(umap(chart.u0)), "canonical_u_grid")
    j0 = grid_index(cv, float(vmap(chart.v0)), "canonical_v_grid")

    def pull(name):
        return chart.interpolator(name)(u_src, v_src)

    F = pull("F") * np.outer(up, vp)
    bad = np.argwhere(~(F > 0.0))
    if bad.size:  # the bicubic pull overshoots where F varies fast over a source step
        i, j = map(int, bad[0])
        raise ChartError(
            f"pulled-back F = {float(F[i, j])!r} is not positive at canonical node "
            f"{node_at(cu, cv, i, j)}, source (u, v) = ({float(u_src[i])!r}, "
            f"{float(v_src[j])!r}): the source grid is too coarse for the canonical maps",
            node=(i, j))
    L = pull("L") * (up**2)[:, None]
    M = pull("M") * np.outer(up, vp)
    N = pull("N") * (vp**2)[None, :]
    return _signed_chart(cu, cv, i0, j0, F=F, H=pull("H"), L=L, M=M, N=N,
                         K=pull("K") if chart.K is not None else None,
                         metadata=_derived_metadata(chart, resampled=True))


@dataclass
class CanonicalReport:
    max_dev_L: float
    max_dev_N: float
    passed: bool
    tol: float
    eps1: int
    eps2: int
    base: tuple  # (u0, v0)


def verify_canonical(chart):
    """Deviation of L(., v0) from eps1 and N(u0, .) from eps2, judged at CANONICAL_TOL.

    Canonicity depends on the stored base point; the report names it.
    """
    if chart.L is None or chart.N is None:
        raise ChartError("verify_canonical requires L and N fields")
    dev_L = float(np.max(np.abs(chart.L[:, chart.v0_index] - chart.eps1)))
    dev_N = float(np.max(np.abs(chart.N[chart.u0_index, :] - chart.eps2)))
    return CanonicalReport(
        max_dev_L=dev_L, max_dev_N=dev_N,
        passed=within([dev_L, dev_N], CANONICAL_TOL), tol=CANONICAL_TOL,
        eps1=chart.eps1, eps2=chart.eps2, base=(chart.u0, chart.v0))


def canonical_gauge_transform(chart, delta, c1, c2, swap=False):
    """Apply the residual gauge freedom u = delta*tu + c1, v = delta*tv + c2.

    With `swap` the parameter numeration is exchanged first, which negates
    L, M, N (and hence H) and swaps the eps signs.  The input must pass
    verify_canonical, whatever its metadata says; the output is
    canonical again with the transformed signs, and drops the `canonical`
    and `canonical_check` keys of older chart files.  This is an exact
    index-level operation, no interpolation happens.
    """
    if delta not in (-1, 1):
        raise ChartError("delta must be +1 or -1")
    if not verify_canonical(chart).passed:
        raise ChartError("gauge transform requires a canonical chart")

    u_grid, v_grid = chart.u_grid, chart.v_grid
    F, H, L, M, N, K = chart.F, chart.H, chart.L, chart.M, chart.N, chart.K
    i0, j0 = chart.u0_index, chart.v0_index
    eps1, eps2 = chart.eps1, chart.eps2
    if swap:
        u_grid, v_grid = v_grid, u_grid
        i0, j0 = j0, i0
        F, H = F.T, -H.T
        L, M, N = -N.T, -M.T, -L.T
        K = None if K is None else K.T
        eps1, eps2 = -eps2, -eps1

    def axis_map(grid, index, c):
        # tu = delta * (u - c) is increasing for delta = 1, reversed otherwise
        new = delta * (grid - c)
        if delta == 1:
            return new.copy(), index, slice(None)
        return new[::-1].copy(), grid.size - 1 - index, slice(None, None, -1)

    new_u, new_i0, su = axis_map(u_grid, i0, c1)
    new_v, new_j0, sv = axis_map(v_grid, j0, c2)

    def flip(arr):
        return None if arr is None else arr[su, :][:, sv].copy()

    out = Chart(
        u_grid=new_u, v_grid=new_v, F=flip(F), H=flip(H),
        L=flip(L), M=flip(M), N=flip(N), K=flip(K),
        u0_index=new_i0, v0_index=new_j0, eps1=eps1, eps2=eps2,
        metadata=_derived_metadata(
            chart, gauge={"delta": delta, "c1": c1, "c2": c2, "swap": swap}))
    return out.validate()


def reparametrize_provider(provider, umap, vmap):
    """Provider of the same surface in the target coordinates of two maps.

    Jets follow the chain rule with u(tu), u'(tu), u''(tu) taken from the
    inverse interpolants, so second derivatives inherit the interpolation
    error of the maps.
    """
    inv_u = umap._inverse
    inv_v = vmap._inverse

    def jet(tu, tv):
        u, v = inv_u(tu), inv_v(tv)
        up, vp = inv_u(tu, 1), inv_v(tv, 1)
        upp, vpp = inv_u(tu, 2), inv_v(tv, 2)
        j = provider(u, v)
        return SurfaceJet2(
            x=j.x,
            x_u=j.x_u * up[..., None],
            x_v=j.x_v * vp[..., None],
            x_uu=j.x_uu * (up**2)[..., None] + j.x_u * upp[..., None],
            x_uv=j.x_uv * (up * vp)[..., None],
            x_vv=j.x_vv * (vp**2)[..., None] + j.x_v * vpp[..., None])

    (ulo, uhi), (vlo, vhi) = umap.range, vmap.range
    return SurfaceProvider(jet=jet, domain=(ulo, uhi, vlo, vhi))
