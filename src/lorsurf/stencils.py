"""Finite-difference stencils and cumulative quadrature on rectangular grids.

Grids may be non-uniform; every routine takes the coordinate array.  All
derivatives are second-order accurate in the interior (central stencils)
and second-order one-sided at the borders, matching the trapezoid error of
the running integrals.  The derivative stencils divide the steps by a power
of two near the largest step and scale the result back, exactly: tiny or
huge steps neither underflow nor overflow, and give the scaled bits.
"""

from __future__ import annotations

import numpy as np

from .errors import StencilError

__all__ = [
    "check_grid",
    "gradient",
    "second_derivative",
    "cross_derivative",
    "cumtrapz_from",
]


def check_grid(t, name="grid", min_len=2):
    """Validate a strictly increasing 1-D coordinate array."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < min_len:
        raise StencilError(f"{name} needs at least {min_len} nodes, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise StencilError(f"{name} contains non-finite values")
    if np.any(np.diff(t) <= 0):
        raise StencilError(f"{name} must be strictly increasing")
    return t


def _unit_steps(h):
    """(h / 2**e, e) with 2**e near max(h); order-k stencils scale back by 2**(-k * e)."""
    e = int(np.frexp(np.max(h))[1])
    return np.ldexp(h, -e), e


def _diffs(f, t, axis):
    """f with `axis` first, its node differences, and _unit_steps of its steps."""
    f = np.asarray(f, dtype=float)
    t = np.asarray(t, dtype=float)
    n = f.shape[axis]
    if n < 3:
        raise StencilError("derivative stencils need at least 3 nodes along the axis")
    fm = np.moveaxis(f, axis, 0)
    tt = t.reshape((n,) + (1,) * (fm.ndim - 1))
    return (fm, np.diff(fm, axis=0)) + _unit_steps(np.diff(tt, axis=0))


def gradient(f, t, axis):
    """First derivative along `axis`: central interior, 3-point one-sided edges.

    Written in terms of node differences so constant fields differentiate
    to exactly zero; second-order accurate everywhere, on non-uniform grids
    included.
    """
    fm, d, h, e = _diffs(f, t, axis)
    out = np.empty_like(fm)
    hm, hp = h[:-1], h[1:]
    dm, dp = d[:-1], d[1:]
    out[1:-1] = (hm * hm * dp + hp * hp * dm) / (hm * hp * (hm + hp))
    curv_l = 2.0 * (h[0] * d[1] - h[1] * d[0]) / (h[0] * h[1] * (h[0] + h[1]))
    out[0] = d[0] / h[0] - 0.5 * h[0] * curv_l
    curv_r = 2.0 * (h[-2] * d[-1] - h[-1] * d[-2]) / (h[-2] * h[-1] * (h[-2] + h[-1]))
    out[-1] = d[-1] / h[-1] + 0.5 * h[-1] * curv_r
    return np.moveaxis(np.ldexp(out, -e, out=out), 0, axis)


def second_derivative(f, t, axis):
    """Second derivative along `axis` from quadratic fits of node triples.

    Interior nodes use the centered triple; the first and last node reuse
    the curvature of the adjacent triple (exact for quadratics, first order
    on non-uniform borders).  Constant fields map to exactly zero.
    """
    fm, d, h, e = _diffs(f, t, axis)
    out = np.empty_like(fm)
    hm, hp = h[:-1], h[1:]
    dm, dp = d[:-1], d[1:]
    out[1:-1] = 2.0 * (hm * dp - hp * dm) / (hm * hp * (hm + hp))
    out[0] = out[1]
    out[-1] = out[-2]
    return np.moveaxis(np.ldexp(out, -2 * e, out=out), 0, axis)


def cross_derivative(F, u, v):
    """Mixed partial F_uv by the symmetric 4-point stencil, interior only.

    F has shape (nu, nv) with axis 0 <-> u.  Returns an (nu-2, nv-2) array
    for the interior nodes; border values are not defined.
    """
    F = np.asarray(F, dtype=float)
    if F.shape[0] < 3 or F.shape[1] < 3:
        raise StencilError("cross_derivative needs a grid of at least 3x3 nodes")
    du, eu = _unit_steps((u[2:] - u[:-2])[:, None])
    dv, ev = _unit_steps((v[2:] - v[:-2])[None, :])
    num = F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]
    num /= du * dv
    return np.ldexp(num, -(eu + ev), out=num)


def _cumtrapz(f, t, axis=-1):
    """Running trapezoid integral along `axis`, zero at the first node.

    The same expression and memory layout as scipy.integrate.cumulative_trapezoid(
    f, x=t, axis=axis, initial=0.0), so the results agree bit for bit and
    later reductions over them sum in the same order.
    """
    shape = [1] * f.ndim
    shape[axis] = -1
    hi = [slice(None)] * f.ndim
    lo = list(hi)
    hi[axis], lo[axis] = slice(1, None), slice(None, -1)
    steps = np.diff(t).reshape(shape) * (f[tuple(hi)] + f[tuple(lo)]) / 2.0
    first = list(f.shape)
    first[axis] = 1
    return np.concatenate([np.zeros(first), np.cumsum(steps, axis=axis)], axis=axis)


def cumtrapz_from(f, t, i0, axis=0):
    """Signed running trapezoid integral along `axis`, anchored at node i0.

    Returns G with G[..., i, ...] = integral from t[i0] to t[i]; entries for
    i < i0 are negative accumulations, G at i0 is exactly zero.
    """
    f = np.asarray(f, dtype=float)
    g = _cumtrapz(f, t, axis=axis)
    anchor = np.take(g, [i0], axis=axis)
    return g - anchor

