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

# Grid lines per block wherever a whole-grid stage is split to bound its
# transient memory at O(_BLOCK * n) floats: the knot intervals of
# lorsurf.splines.notaknot_slopes, the provider rows of
# lorsurf.chart.chart_from_provider, and the column slabs and mesh
# diagnostics of lorsurf.reconstruct.
_BLOCK = 32


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


def _curvature(h, d, den, out, tmp):
    """2 (h[k] d[k+1] - h[k+1] d[k]) / den[k] into out[k]: the second derivative of
    the quadratic through nodes k, k + 1, k + 2, with den = h[k] h[k+1] (h[k] + h[k+1])."""
    np.multiply(h[:-1], d[1:], out=out)
    out -= np.multiply(h[1:], d[:-1], out=tmp)
    out *= 2.0
    out /= den
    return out


def _stencils(diffs, axis, first=None, second=None):
    """Write the first and/or second derivative along `axis` into `first`, `second`.

    The one home of the stencil formulas, computed from one set of node
    differences, `diffs` = _diffs(f, t, axis); the outputs have f's shape.
    Interior nodes are central: the slope
    (h- h- d+ + h+ h+ d-) / (h- h+ (h- + h+)) and the curvature of the
    centered triple.  The first derivative's edges are 3-point one-sided
    (the edge slope corrected by the adjacent triple's curvature), the
    second derivative's repeat the adjacent triple's curvature.  Every
    operation runs in this order whatever the outputs' layout.
    """
    _, d, h, e = diffs
    hm, hp = h[:-1], h[1:]
    den = hm * hp * (hm + hp)
    tmp = np.empty_like(d[1:])
    if second is not None:
        s = np.moveaxis(second, axis, 0)
        curv = _curvature(h, d, den, s[1:-1], tmp)
        curv_l, curv_r = curv[:1], curv[-1:]
    if first is not None:
        g = np.moveaxis(first, axis, 0)
        if second is None:
            curv_l = _curvature(h[:2], d[:2], den[:1], np.empty_like(d[:1]), tmp[:1])
            curv_r = _curvature(h[-2:], d[-2:], den[-1:], np.empty_like(d[:1]), tmp[:1])
        np.multiply(hm * hm, d[1:], out=g[1:-1])
        g[1:-1] += np.multiply(hp * hp, d[:-1], out=tmp)
        g[1:-1] /= den
        g[:1] = d[:1] / h[:1] - 0.5 * h[:1] * curv_l
        g[-1:] = d[-1:] / h[-1:] + 0.5 * h[-1:] * curv_r
        np.ldexp(g, -e, out=g)
    if second is not None:
        s[0] = s[1]
        s[-1] = s[-2]
        np.ldexp(s, -2 * e, out=s)


def gradient(f, t, axis):
    """First derivative along `axis`: central interior, 3-point one-sided edges.

    Written in terms of node differences so constant fields differentiate
    to exactly zero; second-order accurate everywhere, on non-uniform grids
    included.
    """
    diffs = _diffs(f, t, axis)
    out = np.moveaxis(np.empty_like(diffs[0]), 0, axis)
    _stencils(diffs, axis, first=out)
    return out


def second_derivative(f, t, axis):
    """Second derivative along `axis` from quadratic fits of node triples.

    Interior nodes use the centered triple; the first and last node reuse
    the curvature of the adjacent triple (exact for quadratics, first order
    on non-uniform borders).  Constant fields map to exactly zero.
    """
    diffs = _diffs(f, t, axis)
    out = np.moveaxis(np.empty_like(diffs[0]), 0, axis)
    _stencils(diffs, axis, second=out)
    return out


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
    later reductions over them sum in the same order.  The steps and their
    running sum are built in place in the one output array.
    """
    shape = [1] * f.ndim
    shape[axis] = -1
    hi = [slice(None)] * f.ndim
    lo = list(hi)
    first = list(hi)
    hi[axis], lo[axis], first[axis] = slice(1, None), slice(None, -1), slice(0, 1)
    out = np.empty_like(f, dtype=float)
    steps = out[tuple(hi)]
    np.add(f[tuple(hi)], f[tuple(lo)], out=steps)
    steps *= np.diff(t).reshape(shape)  # a * b rounds as b * a
    steps /= 2.0
    np.cumsum(steps, axis=axis, out=steps)
    out[tuple(first)] = 0.0
    return out


def cumtrapz_from(f, t, i0, axis=0):
    """Signed running trapezoid integral along `axis`, anchored at node i0.

    Returns G with G[..., i, ...] = integral from t[i0] to t[i]; entries for
    i < i0 are negative accumulations, G at i0 is exactly zero.
    """
    f = np.asarray(f, dtype=float)
    g = _cumtrapz(f, t, axis=axis)
    g -= np.take(g, [i0], axis=axis)
    return g
