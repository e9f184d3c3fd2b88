"""Cubic interpolation and Simpson quadrature on numpy alone.

Every routine works along axis 0 of its data, so the many lines of a grid
field that share one coordinate array go through each step together.

- :func:`notaknot_slopes`: the knot slopes of the not-a-knot cubic
  interpolating spline (de Boor, *A Practical Guide to Splines*).  The
  linear system and the end rows are those of scipy's ``CubicSpline``, so
  two knots give the line and three the parabola through them.
- :func:`pchip_slopes`: the monotone slopes of Fritsch & Carlson (1980)
  with the one-sided end rule of scipy's ``PchipInterpolator``.
- :class:`CubicHermite`: the piecewise cubic with given knot values and
  slopes, and its first two derivatives, as scipy's ``CubicHermiteSpline``
  (a right-continuous interval lookup that extrapolates the end pieces).
  :func:`hermite_midpoints` gives its value or slope at the interval
  midpoints in closed form.
- :func:`grid_interpolant`: the bicubic not-a-knot interpolant of a grid
  field as two passes of 1-D splines, along u and then along v; the same
  interpolant as scipy's ``RectBivariateSpline(kx=ky=3, s=0)``, and with
  2 or 3 nodes on an axis its degree drops to 1 or 2 there.
- :func:`cumsimpson_from`: cumulative Simpson quadrature, the same
  expressions in the same order as scipy's ``cumulative_simpson``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import StencilError
from .stencils import _BLOCK, _cumtrapz

__all__ = [
    "notaknot_slopes",
    "pchip_slopes",
    "CubicHermite",
    "hermite_midpoints",
    "grid_interpolant",
    "cumsimpson_from",
]


def _column(h, ndim):
    """Node steps shaped to broadcast along axis 0 of an ndim-array."""
    return h.reshape((-1,) + (1,) * (ndim - 1))


def _tridiagonal(x):
    """Factors (w, diag, upper) of the not-a-knot slope system on knots x.

    Elimination runs without pivoting: after the first row is eliminated
    every pivot is positive and the rows are diagonally dominant, and the
    last pivot is at least h[-2]^2 / (2 h[-2] + h[-1]).
    """
    h = np.diff(x)
    n = x.size
    if n == 2:
        lower, diag, upper = [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]
    elif n == 3:
        lower, diag, upper = [0.0, h[1], 1.0], [1.0, 2 * (h[0] + h[1]), 1.0], [1.0, h[0], 0.0]
    else:
        lower = np.concatenate([[0.0], h[1:], [x[-1] - x[-3]]])
        diag = np.concatenate([[h[1]], 2 * (h[:-1] + h[1:]), [h[-2]]])
        upper = np.concatenate([[x[2] - x[0]], h[:-1], [0.0]])
    w = np.empty(n)
    piv = np.empty(n)
    w[0], piv[0] = 0.0, diag[0]
    for i in range(1, n):
        w[i] = lower[i] / piv[i - 1]
        piv[i] = diag[i] - w[i] * upper[i - 1]
    return w, piv, np.asarray(upper, dtype=float)


def _secants(x, y, start, stop):
    """(y[k + 1] - y[k]) / (x[k + 1] - x[k]) for the intervals start <= k < stop."""
    s = np.diff(y[start:stop + 1], axis=0)
    s /= _column(np.diff(x[start:stop + 1]), y.ndim)
    return s


def notaknot_slopes(x, y):
    """Knot slopes of the not-a-knot cubic splines through the lines y[:, ...] on x.

    x is a strictly increasing array of n >= 2 knots, y an (n, ...) array of
    any layout; the result is a new C-ordered array of y's shape.  The
    secants and the interior right-hand side are formed for one block of
    _BLOCK knot intervals at a time, by the same elementwise expressions as
    on the whole lines, so the transient memory beside the result is
    O(_BLOCK) lines.
    """
    y = np.asarray(y, dtype=float)
    n = x.size
    hh = _column(np.diff(x), y.ndim)
    r = np.empty(y.shape)
    if n == 2:
        secant = _secants(x, y, 0, 1)
        r[0] = secant[0]
        r[1] = secant[0]
    elif n == 3:
        secant = _secants(x, y, 0, 2)
        r[0] = 2 * secant[0]
        r[1] = 3 * (hh[0] * secant[1] + hh[1] * secant[0])
        r[2] = 2 * secant[1]
    else:
        for a in range(1, n - 1, _BLOCK):
            b = min(a + _BLOCK, n - 1)
            secant = _secants(x, y, a - 1, b)
            np.multiply(hh[a:b], secant[:-1], out=r[a:b])
            secant[1:] *= hh[a - 1:b - 1]  # after its last read as secant[:-1]
            r[a:b] += secant[1:]
            r[a:b] *= 3
        secant = _secants(x, y, 0, 2)
        d = x[2] - x[0]
        r[0] = ((hh[0] + 2 * d) * hh[1] * secant[0] + hh[0] ** 2 * secant[1]) / d
        secant = _secants(x, y, n - 3, n - 1)
        d = x[-1] - x[-3]
        r[-1] = (hh[-1] ** 2 * secant[-2] + (2 * d + hh[-1]) * hh[-2] * secant[-1]) / d
    w, piv, upper = _tridiagonal(x)
    for i in range(1, n):
        r[i] -= w[i] * r[i - 1]
    r[-1] /= piv[-1]
    for i in range(n - 2, -1, -1):
        r[i] -= upper[i] * r[i + 1]
        r[i] /= piv[i]
    return r


def pchip_slopes(x, y):
    """Fritsch-Carlson monotone slopes for the 1-D data y on knots x.

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants, or 0 where the secants differ in sign or one is 0; end slopes
    come from the one-sided three-point rule, limited to keep the shape.
    Two knots give the secant at both.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    if y.size == 2:
        return np.array([m[0], m[0]])
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.zeros_like(y)
    # the flat nodes are dropped, and a secant so small that w / m overflows
    # gives 1 / inf = 0, the limit of the harmonic mean
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _hermite_weights(tau, h, nu):
    """Weights of (y0, y1, d0, d1) in the nu-th derivative of a cubic Hermite piece.

    tau = s / h is the position in the piece of width h.  At tau = 0 the
    value weights are exactly (1, 0, 0, 0), and at tau = 1 exactly
    (0, 1, 0, 0), so the knots are reproduced bit for bit.
    """
    sig = 1.0 - tau
    if nu == 0:
        return ((1.0 + 2.0 * tau) * sig * sig, tau * tau * (3.0 - 2.0 * tau),
                h * tau * sig * sig, -h * tau * tau * sig)
    if nu == 1:
        a = 6.0 * tau * sig / h
        return -a, a, sig * (1.0 - 3.0 * tau), tau * (3.0 * tau - 2.0)
    if nu == 2:
        a = (12.0 * tau - 6.0) / (h * h)
        return a, -a, (6.0 * tau - 4.0) / h, (6.0 * tau - 2.0) / h
    raise ValueError(f"derivative order must be 0, 1 or 2, got {nu!r}")


class CubicHermite(NamedTuple):
    """Piecewise cubic with values y and slopes dydx at the knots x (along axis 0).

    Calling it at points xi gives the value (nu = 0) or the nu-th
    derivative (nu = 1, 2), with shape xi.shape + y.shape[1:].  A point
    on a knot belongs to the interval to its right, the last knot to the
    last interval (as in scipy's PPoly), and points outside
    [x[0], x[-1]] extend the end pieces.  Each result is a weighted sum
    of four rows of y and dydx, built in place: the transient memory is
    one more array of the result's size.
    """

    x: np.ndarray
    y: np.ndarray
    dydx: np.ndarray

    def __call__(self, xi, nu=0):
        x, y, d = self.x, self.y, self.dydx
        xi = np.asarray(xi, dtype=float)
        i = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, x.size - 2)
        h = x[i + 1] - x[i]
        shape = xi.shape + (1,) * (y.ndim - 1)
        w0, w1, w2, w3 = (np.reshape(w, shape) for w in
                          _hermite_weights((xi - x[i]) / h, h, nu))
        out = np.take(y, i, axis=0)
        out *= w0
        tmp = np.empty(out.shape)
        for rows, at, w in ((y, i + 1, w1), (d, i, w2), (d, i + 1, w3)):
            np.take(rows, at, axis=0, out=tmp, mode="clip")  # in range; "clip" skips a buffer
            tmp *= w
            out += tmp
        return out


def hermite_midpoints(x, y, dydx, nu=0):
    """Value (nu = 0) or slope (nu = 1) of CubicHermite(x, y, dydx) at the interval midpoints.

    In closed form, (y0 + y1) / 2 + h (d0 - d1) / 8 or
    3 (y1 - y0) / (2 h) - (d0 + d1) / 4, as a new C-ordered (n - 1, ...) array.
    """
    hh = _column(np.diff(x), y.ndim)
    out = np.empty(dydx[1:].shape)
    tmp = np.empty(out.shape)
    if nu == 0:
        np.add(y[:-1], y[1:], out=out)
        out *= 0.5
        np.subtract(dydx[:-1], dydx[1:], out=tmp)
        tmp *= hh / 8
        out += tmp
    else:
        np.subtract(y[1:], y[:-1], out=out)
        out *= 1.5 / hh
        np.add(dydx[:-1], dydx[1:], out=tmp)
        tmp *= 0.25
        out -= tmp
    return out


def _resample_lines(x, y, xq):
    """The not-a-knot splines through the lines y[:, ...] on x, at xq moved into [x[0], x[-1]]."""
    return CubicHermite(x, y, notaknot_slopes(x, y))(np.clip(xq, x[0], x[-1]))


def grid_interpolant(x, y, z):
    """The bicubic not-a-knot interpolant of z[i, j] at (x[i], y[j]).

    Returns a function of two increasing coordinate arrays (xq, yq) that
    gives the interpolant on their grid, a C-ordered (xq.size, yq.size)
    array.  Query points outside the grid are moved to its edge, so the
    edge values extend outwards.  A call fits and samples the splines
    along x, then along y: one field at a time, with a transient memory of
    a few arrays of z's size.
    """
    def on_grid(xq, yq):
        part = np.ascontiguousarray(_resample_lines(x, z, xq).T)
        return np.ascontiguousarray(_resample_lines(y, part, yq).T)

    return on_grid


def _simpson_pieces(y, dx):
    """Simpson integrals over the first interval of each node triple, on unequal steps."""
    x21 = dx[:-1]
    x32 = dx[1:]
    f1 = y[:-2]
    f2 = y[1:-1]
    f3 = y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def cumsimpson_from(f, t, i0):
    """Signed 1-D cumulative Simpson integral anchored at node i0.

    Order 4 on smooth integrands; used for the canonical coordinate maps.
    Each interval is integrated over the parabola through it and its next
    node triple (the last one through the previous triple), as scipy's
    cumulative_simpson(f, x=t, initial=0.0) does, bit for bit.  Falls back
    to the trapezoid rule on 2-point grids.
    """
    f = np.asarray(f, dtype=float)
    t = np.asarray(t, dtype=float)
    if f.size != t.size:
        raise StencilError("integrand and grid lengths differ")
    if t.size < 2:
        raise StencilError("quadrature needs at least 2 nodes")
    if t.size == 2:
        g = _cumtrapz(f, t)[1:]
    else:
        dx = np.diff(t)
        forward = _simpson_pieces(f, dx)
        backward = np.flip(_simpson_pieces(np.flip(f), np.flip(dx)))
        pieces = np.empty(t.size - 1)
        pieces[:-1:2] = forward[::2]
        pieces[1::2] = backward[::2]
        pieces[-1] = backward[-1]
        g = np.cumsum(pieces)
    g += 0.0  # scipy adds its initial value here, which turns -0.0 into 0.0
    g = np.concatenate((np.zeros(1), g))
    return g - g[i0]
