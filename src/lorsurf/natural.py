"""The natural equation relating F and H in canonical coordinates.

In canonical coordinates the second fundamental form is recovered from
(F, H, eps1, eps2) by running integrals,

    L = eps1 + int_{v0}^{v} F H_u ds,   M = F H,
    N = eps2 + int_{u0}^{u} F H_v ds,

and the Gauss equation (F F_uv - F_u F_v)/F = L N - M^2 becomes an
integro-differential constraint on (F, H) alone.  This module builds the
running integrals and evaluates discrete residuals of the general,
constant-H and minimal forms of that constraint.

Running integrals use the trapezoid rule (defined at every node, signed
about the base lines); derivatives are central with second-order one-sided
borders; the mixed derivative uses the symmetric 4-point cross stencil.
Residuals are therefore reported on interior nodes only and converge at
second order on smooth data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartError, NotGeneralTypeError, StencilError, refuse, within
from .stencils import _BLOCK, _unit_steps, check_grid, cross_derivative, cumtrapz_from, gradient
from .surfaces import _curvature_scale, kind_field

__all__ = [
    "REL_TOL",
    "MIN_ORDER",
    "ResidualReport",
    "accumulate_LN",
    "natural_residual",
    "cmc_residual",
    "minimal_residual",
    "F_from_K_cmc",
    "convergence_order",
]

# A residual max_abs above REL_TOL * scale (ResidualReport.scale, in the units of
# the residual) violates the natural equation: ResidualReport.passed is the one verdict
# of `residual`, `reconstruct` (a failed check) and the cmc_pair / minimal_from_K refusals.
REL_TOL = 1e-3
# The least order of a two-grid residual estimate (convergence_order) that
# shows the residual converging: the order check of `lorsurf residual`.
MIN_ORDER = 1.9


@dataclass
class ResidualReport:
    """Discrete residual on the grid interior, its summary norms and its verdict."""

    residual: np.ndarray       # (nu - 2, nv - 2)
    max_abs: float
    l2: float                  # area-weighted root mean square
    scale: float               # max|LN| + max M^2 (>= 1: |LN| = 1 at the base point),
                               # or max(H^2 + |K|), the kind rule's scale, for constant H
    tol: float                 # REL_TOL * scale
    passed: bool               # within([max_abs], tol): the data satisfy the equation


def _trap_weights(t):
    w = np.empty_like(t)
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


def _summarize(residual, u_int, v_int, scale):
    # l2 is a ratio of weighted sums: scaling the weights by a power of two changes
    # no bit of it, and keeps huge or tiny steps from overflowing or going subnormal
    wu = _unit_steps(_trap_weights(u_int))[0] if u_int.size > 1 else np.ones(1)
    wv = _unit_steps(_trap_weights(v_int))[0] if v_int.size > 1 else np.ones(1)
    area = np.outer(wu, wv)
    with np.errstate(over="ignore"):  # an overflow gives l2 = inf, which fails every check
        l2 = float(np.sqrt(np.sum(residual**2 * area) / np.sum(area)))
    max_abs = float(np.max(np.abs(residual)))
    tol = REL_TOL * scale
    return ResidualReport(residual=residual, max_abs=max_abs, l2=l2, scale=scale, tol=tol,
                          passed=within([max_abs], tol))


def accumulate_LN(chart):
    """Fill L, M, N of a chart from (F, H, eps1, eps2) by running integrals.

    For constant H the integrands vanish identically and L = eps1, N = eps2
    exactly.  The integrals are signed about the base lines, so the base
    point may sit anywhere in the grid.  Finite fields can still give
    non-finite L, M, N (an overflow, or grid steps whose stencil denominators
    underflow); that happens silently, since every verdict fails them and
    reconstruct refuses them.
    """
    chart.validate()
    if min(chart.shape) < 3:
        raise StencilError("residual stencils need at least 3 nodes per axis")
    # each integrand and integral is built in place (a * b and a + b round as
    # b * a and b + a), and each integrand is freed once integrated
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        FH_u = gradient(chart.H, chart.u_grid, axis=0)
        FH_u *= chart.F
        L = cumtrapz_from(FH_u, chart.v_grid, chart.v0_index, axis=1)
        del FH_u
        L += chart.eps1
        FH_v = gradient(chart.H, chart.v_grid, axis=1)
        FH_v *= chart.F
        N = cumtrapz_from(FH_v, chart.u_grid, chart.u0_index, axis=0)
        del FH_v
        N += chart.eps2
        M = chart.F * chart.H
    return chart.with_fields(L=L, M=M, N=N,
                             metadata=dict(chart.metadata, accumulated_LN=True))


def _blocked_max(f, *fields):
    """float(np.max(f(*fields))) over blocks of _BLOCK rows: a maximum is exact, so the
    blocks give its bits, a NaN included, with no whole-grid temporary."""
    n = fields[0].shape[0]
    return float(np.max([np.max(f(*(a[i:i + _BLOCK] for a in fields)))
                         for i in range(0, n, _BLOCK)]))


def natural_residual(chart, acc=None):
    """Residual of the general natural equation on the grid interior.

    residual = (F F_uv - F_u F_v)/F - (L N - M^2) with L, M, N rebuilt by
    accumulate_LN, so this is exactly the Gauss-equation residual of the
    reconstructed second fundamental form.  Pass `acc`, the result of
    accumulate_LN(chart), when the caller already has it.
    """
    if acc is None:
        acc = accumulate_LN(chart)
    u, v = chart.u_grid, chart.v_grid
    F = chart.F
    inner = (slice(1, -1), slice(1, -1))
    Fi = F[inner]
    # an overflow or underflowing stencil denominators here yield a non-finite
    # residual, which every verdict fails.  lhs and rhs are each one interior
    # buffer built in place, in the order of (Fi F_uv - F_u F_v) / Fi - (L N - M^2):
    # a * b rounds as b * a.  The residual is lhs, laid out as F.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        FuFv = gradient(F, u, axis=0)[inner]
        FuFv *= gradient(F, v, axis=1)[inner]
        lhs = cross_derivative(F, u, v)
        lhs *= Fi
        lhs -= FuFv
        del FuFv
        lhs /= Fi
        rhs = np.multiply(acc.L[inner], acc.N[inner])
        rhs -= np.square(acc.M[inner])
        residual = lhs
        residual -= rhs
        del rhs
        scale = _blocked_max(lambda L, N: np.abs(L * N), acc.L, acc.N) \
            + _blocked_max(np.square, acc.M)
    return _summarize(residual, u[1:-1], v[1:-1], scale)


def _refuse_non_finite(K, H, u=None, v=None):
    """ChartError at the first node where K, or the scalar H, is non-finite."""
    refuse(ChartError, ~np.isfinite(K), "K is non-finite", u, v)
    refuse(ChartError, np.broadcast_to(not np.isfinite(H), K.shape), "H is non-finite", u, v)


def cmc_residual(K, H, u_grid, v_grid):
    """Residual of the constant-mean-curvature natural equation.

    residual = sqrt(|H^2 - K|) * (ln sqrt(|H^2 - K|))_uv - K for a constant
    scalar H.  K and H must be finite (ChartError names the first node), and
    the surface of general type on the whole grid: NotGeneralTypeError names
    the first node where kind_field(H, K) is 0.
    """
    u = check_grid(np.asarray(u_grid, dtype=float), "u_grid", 3)
    v = check_grid(np.asarray(v_grid, dtype=float), "v_grid", 3)
    K = np.asarray(K, dtype=float)
    H = float(H)
    if K.shape != (u.size, v.size):
        raise StencilError(f"K has shape {K.shape}, expected {(u.size, v.size)}")
    _refuse_non_finite(K, H, u[:, None], v)
    refuse(NotGeneralTypeError, kind_field(H, K) == 0, "|H^2 - K| vanishes", u[:, None], v)
    d = H * H - K
    phi = 0.5 * np.log(np.abs(d))
    phi_uv = cross_derivative(phi, u, v)
    residual = np.sqrt(np.abs(d[1:-1, 1:-1])) * phi_uv - K[1:-1, 1:-1]
    return _summarize(residual, u[1:-1], v[1:-1], float(np.max(_curvature_scale(H, K))))


def minimal_residual(K, u_grid, v_grid):
    """Residual of the minimal-surface natural equation (H = 0, |K| > 0).

    This is cmc_residual at H = 0, whose |H^2 - K| test is the |K| test.
    """
    return cmc_residual(K, 0.0, u_grid, v_grid)


def F_from_K_cmc(K, H):
    """Recover F = 1 / sqrt(|H^2 - K|) and the product eps1*eps2 = sign(H^2 - K).

    K and H must be finite (ChartError otherwise).  eps1*eps2 is the kind of
    kind_field(H, K), which must be non-zero and the same on the whole grid
    (NotGeneralTypeError otherwise).
    """
    K = np.asarray(K, dtype=float)
    H = float(H)
    _refuse_non_finite(K, H)
    kind = kind_field(H, K)
    refuse(NotGeneralTypeError, kind == 0, "|H^2 - K| vanishes")
    refuse(NotGeneralTypeError, kind != kind.flat[0], "sign of H^2 - K changes")
    return 1.0 / np.sqrt(np.abs(H * H - K)), int(kind.flat[0])


def convergence_order(coarse_max_abs, fine_max_abs, refinement=2.0):
    """Observed order from residual maxima on a grid and its refinement."""
    if coarse_max_abs <= 0.0 or fine_max_abs <= 0.0:
        return float("inf")
    return float(np.log(coarse_max_abs / fine_max_abs) / np.log(refinement))
