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
from typing import Optional

import numpy as np

from .errors import DegeneracyError, StencilError
from .stencils import check_grid, cross_derivative, cumtrapz_from, gradient

__all__ = [
    "ResidualReport",
    "accumulate_LN",
    "natural_residual",
    "natural_scale",
    "cmc_residual",
    "minimal_residual",
    "F_from_K_cmc",
    "convergence_order",
]


@dataclass
class ResidualReport:
    """Discrete residual on the grid interior with summary norms."""

    residual: np.ndarray       # (nu - 2, nv - 2)
    max_abs: float
    l2: float                  # area-weighted root mean square
    u_interior: np.ndarray
    v_interior: np.ndarray
    h_order_estimate: Optional[float] = None


def _trap_weights(t):
    w = np.empty_like(t)
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


def _summarize(residual, u_int, v_int, **kw):
    wu = _trap_weights(u_int) if u_int.size > 1 else np.ones(1)
    wv = _trap_weights(v_int) if v_int.size > 1 else np.ones(1)
    area = np.outer(wu, wv)
    l2 = float(np.sqrt(np.sum(residual**2 * area) / np.sum(area)))
    return ResidualReport(residual=residual, max_abs=float(np.max(np.abs(residual))),
                          l2=l2, u_interior=u_int, v_interior=v_int, **kw)


def _require_3x3(nu, nv):
    if nu < 3 or nv < 3:
        raise StencilError("residual stencils need at least 3 nodes per axis")


def accumulate_LN(chart):
    """Fill L, M, N of a chart from (F, H, eps1, eps2) by running integrals.

    For constant H the integrands vanish identically and L = eps1, N = eps2
    exactly.  The integrals are signed about the base lines, so the base
    point may sit anywhere in the grid.
    """
    chart.validate()
    nu, nv = chart.shape
    _require_3x3(nu, nv)
    H_u = gradient(chart.H, chart.u_grid, axis=0)
    H_v = gradient(chart.H, chart.v_grid, axis=1)
    L = chart.eps1 + cumtrapz_from(chart.F * H_u, chart.v_grid, chart.v0_index, axis=1)
    N = chart.eps2 + cumtrapz_from(chart.F * H_v, chart.u_grid, chart.u0_index, axis=0)
    M = chart.F * chart.H
    return chart.with_fields(L=L, M=M, N=N,
                             metadata=dict(chart.metadata, accumulated_LN=True))


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
    F_u = gradient(F, u, axis=0)[1:-1, 1:-1]
    F_v = gradient(F, v, axis=1)[1:-1, 1:-1]
    F_uv = cross_derivative(F, u, v)
    Fi = F[1:-1, 1:-1]
    lhs = (Fi * F_uv - F_u * F_v) / Fi
    # an overflow here yields a non-finite residual, which every verdict fails
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = acc.L[1:-1, 1:-1] * acc.N[1:-1, 1:-1] - acc.M[1:-1, 1:-1] ** 2
    return _summarize(lhs - rhs, u[1:-1], v[1:-1])


def natural_scale(acc):
    """Scale 1 + max|LN| + max M^2 of the accumulate_LN result `acc`; inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 + float(np.max(np.abs(acc.L * acc.N))) + float(np.max(acc.M**2))


def _degeneracy_tol(K, H):
    return 1e-10 * (1.0 + H * H + np.abs(K))


def _check_nondegenerate(d, tol, u, v, what):
    bad = np.abs(d) <= tol
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise DegeneracyError(
            f"{what} vanishes at node ({i}, {j}), (u, v) = ({float(u[i])!r}, {float(v[j])!r})",
            node=(int(i), int(j)))


def cmc_residual(K, H, u_grid, v_grid):
    """Residual of the constant-mean-curvature natural equation.

    residual = sqrt(|H^2 - K|) * (ln sqrt(|H^2 - K|))_uv - K for a constant
    scalar H; |H^2 - K| must stay away from zero on the whole grid.
    """
    u = check_grid(np.asarray(u_grid, dtype=float), "u_grid", 3)
    v = check_grid(np.asarray(v_grid, dtype=float), "v_grid", 3)
    K = np.asarray(K, dtype=float)
    H = float(H)
    if K.shape != (u.size, v.size):
        raise StencilError(f"K has shape {K.shape}, expected {(u.size, v.size)}")
    _require_3x3(*K.shape)
    d = H * H - K
    _check_nondegenerate(d, _degeneracy_tol(K, H), u, v, "|H^2 - K|")
    phi = 0.5 * np.log(np.abs(d))
    phi_uv = cross_derivative(phi, u, v)
    residual = np.sqrt(np.abs(d[1:-1, 1:-1])) * phi_uv - K[1:-1, 1:-1]
    return _summarize(residual, u[1:-1], v[1:-1])


def minimal_residual(K, u_grid, v_grid):
    """Residual of the minimal-surface natural equation (H = 0, |K| > 0)."""
    K = np.asarray(K, dtype=float)
    u = np.asarray(u_grid, dtype=float)
    v = np.asarray(v_grid, dtype=float)
    if K.shape == (u.size, v.size):
        _check_nondegenerate(K, _degeneracy_tol(K, 0.0), u, v, "|K|")
    return cmc_residual(K, 0.0, u, v)


def F_from_K_cmc(K, H):
    """Recover F = 1 / sqrt(|H^2 - K|) and the product eps1*eps2 = sign(H^2 - K).

    The sign must be constant on the grid (a sign change would cross a
    degenerate curve, which the tolerance check rejects first in the
    continuous case).
    """
    K = np.asarray(K, dtype=float)
    H = float(H)
    d = H * H - K
    tol = _degeneracy_tol(K, H)
    bad = np.abs(d) <= tol
    if np.any(bad):
        where = tuple(np.argwhere(np.atleast_1d(bad))[0])
        raise DegeneracyError(f"|H^2 - K| vanishes at index {where}", node=where)
    signs = np.sign(d)
    first = signs.flat[0]
    if np.any(signs != first):
        where = tuple(np.argwhere(signs != first)[0])
        raise DegeneracyError(
            f"sign of H^2 - K is not constant (changes at index {where})", node=where)
    return 1.0 / np.sqrt(np.abs(d)), int(first)


def convergence_order(coarse_max_abs, fine_max_abs, refinement=2.0):
    """Observed order from residual maxima on a grid and its refinement."""
    if coarse_max_abs <= 0.0 or fine_max_abs <= 0.0:
        return float("inf")
    return float(np.log(coarse_max_abs / fine_max_abs) / np.log(refinement))
