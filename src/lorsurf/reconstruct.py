"""Surface reconstruction from (F, H, eps1, eps2) by frame integration.

The moving frame (X, Y, l) of a null-parametrized Lorentz surface obeys a
Frenet-type system split into a u-family and a v-family of equations,

    X_u = (F_u/F) X + L l        X_v = M l
    Y_u = M l                    Y_v = (F_v/F) Y + N l
    l_u = -(M/F) X - (L/F) Y     l_v = -(N/F) X - (M/F) Y

with x_u = X, x_v = Y for the position.  Given a chart satisfying the
natural equation, L, M, N are rebuilt by running integrals and the system
is marched with classic fixed-step RK4: first along the base line v = v0,
then along every v-column (all columns advance together, vectorized).
Coefficients at RK substeps come from cubic splines along the marching
line; using the spline's own derivative for F_u/F keeps the frame
invariants exact for the continuous system, so their drift measures pure
integration error (order 4).

One kernel (_RK4) makes every step of the base line and the columns.  It
works on component-major states (4, 3, m), in which each component of X,
Y, l and x is one contiguous row of m lines, forms each node's and each
midpoint's coefficient row once, and reuses its stage buffers.  It keeps
every floating-point operation of the plain formulas in their order, so a
line's states are the same bits however many lines march with it.

The form mismatch and congruence_check re-derive the forms from a mesh,
one block of _BLOCK interior columns at a time, through the public
jets_from_mesh and fundamental_forms: component-major jets from shared
node differences, and forms on component planes, the same bits as the
component-last formulas.  congruence_check takes its per-node scales (see
_form_scales) on the same component planes.

The column march is a stream: each column's frames are stored only until
the slab of columns around it has given its mesh column and folded its
invariant drift and compatibility residuals into running maxima, so no
whole-grid frame or diagnostic array exists, and the result holds the mesh
and three maxima.  Of its splines the march keeps the knot slopes, and it
forms the midpoint coefficients one block of intervals at a time.  Errors
of a march name its stage (base line or columns), the full-grid node
(i, j) and its (u, v).

Frames are never re-orthonormalized during the march: invariant drift and
the cross-derivative residual d_v X - d_u Y are diagnostics of input
consistency, and projecting them away would mask violations of the natural
equation.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import minkowski as mk
from .chart import Chart
from .errors import (ChartError, DegenerateMetricError, InvalidFrameError, NaturalEquationError,
                     NotLorentzSurfaceError, ReconstructionAbort, negligible, node_at, refuse,
                     relative, within)
from .natural import F_from_K_cmc, accumulate_LN, cmc_residual, minimal_residual, natural_residual
from .splines import hermite_midpoints, notaknot_slopes
from .stencils import _BLOCK, check_grid
from .surfaces import SurfaceJet2, fundamental_forms, is_minimal, jets_from_mesh

__all__ = [
    "FrameState",
    "initial_frame",
    "FormMismatch",
    "ReconstructionResult",
    "reconstruct",
    "cmc_pair",
    "minimal_from_K",
    "CongruenceVerdict",
    "CongruenceReport",
    "congruence_check",
]

@dataclass
class FrameState:
    """Moving frame and position at one parameter point."""

    X: np.ndarray
    Y: np.ndarray
    l: np.ndarray
    x: np.ndarray

    def as_array(self):
        return np.stack([self.X, self.Y, self.l, self.x])


def _frame_errors(X, Y, l, F):
    """Deviations from the frame invariants; broadcasts over stacks of frames."""
    return {
        "X^2": np.abs(mk.inner(X, X)),
        "Y^2": np.abs(mk.inner(Y, Y)),
        "<X,Y>-F0": np.abs(mk.inner(X, Y) - F),
        "l^2-1": np.abs(mk.inner(l, l) - 1.0),
        "<X,l>": np.abs(mk.inner(X, l)),
        "<Y,l>": np.abs(mk.inner(Y, l)),
    }


def _seed_vector(name, value):
    """`value` as a float array of shape (3,); InvalidFrameError unless 3 finite numbers."""
    try:
        a = np.asarray(value)
        ok = a.dtype.kind in "iuf" and a.shape == (3,) and bool(np.all(np.isfinite(a)))
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise InvalidFrameError(f"seed {name} must be a vector of 3 finite numbers")
    return a.astype(float)


def initial_frame(F0, X=None, Y=None, l=None, x=None):
    """Initial frame for the march, defaulting to the standard null seed.

    The standard seed is X = (1, 1, 0), Y = (F0/2)(-1, 1, 0), l = (0, 0, 1)
    at x (the origin by default), exact for the conditions below.  Custom
    seeds must satisfy X^2 = Y^2 = 0, <X, Y> = F0, l^2 = 1, <X, l> =
    <Y, l> = 0 and det(X, Y, l) > 0 (positive orientation); each deviation must be
    negligible against its scale (|X|^2, |Y|^2, F0, |l|^2, |X||l|, |Y||l|, Euclidean
    lengths), and one that overflows fails.
    """
    F0 = float(F0)
    if not F0 > 0.0:
        raise InvalidFrameError(f"F0 must be positive, got {F0!r}")
    x = np.zeros(3) if x is None else _seed_vector("x", x)
    if X is None and Y is None and l is None:
        return FrameState(X=np.array([1.0, 1.0, 0.0]), Y=0.5 * F0 * np.array([-1.0, 1.0, 0.0]),
                          l=np.array([0.0, 0.0, 1.0]), x=x)
    if X is None or Y is None or l is None:
        raise InvalidFrameError("custom seeds must supply X, Y and l together")
    X, Y, l = _seed_vector("X", X), _seed_vector("Y", Y), _seed_vector("l", l)
    with np.errstate(over="ignore", invalid="ignore"):
        errors = _frame_errors(X, Y, l, F0)
        nX, nY, nl = (float(np.linalg.norm(a)) for a in (X, Y, l))
        scales = {"X^2": nX * nX, "Y^2": nY * nY, "<X,Y>-F0": F0, "l^2-1": nl * nl,
                  "<X,l>": nX * nl, "<Y,l>": nY * nl}
        det = float(mk.det3(X, Y, l))
    bad = {k: float(e) for k, e in errors.items() if not negligible(e, scales[k])}
    if bad:
        raise InvalidFrameError(f"seed violates frame conditions {bad}, each against its scale")
    if not det > 0.0:
        raise InvalidFrameError("seed frame is not positively oriented (det <= 0)")
    return FrameState(X=X, Y=Y, l=l, x=x)


# -- RK4 marching kernel ------------------------------------------------------

def _coeffs(F, dF, P, Q):
    """One row of u-family coefficients (dF/F, P, Q, -Q/F, P/F) for m lines; P = L, Q = M.

    -Q/F and P/F are rounded as -(Q * (1/F)) and P * (1/F).
    """
    iF = 1.0 / F
    return dF / F, P, Q, -(Q * iF), P * iF


# Frame rows with X and Y exchanged: the v-family of the frame system is the
# u-family on these rows with L and N exchanged.
_SWAP_XY = (1, 0, 2, 3)


class _RK4:
    """Classic RK4 steps of the u-family on component-major states (4, 3, m).

    A state holds the rows X, Y, l, x of m lines, each component one
    contiguous row; a coefficient row (see _coeffs) broadcasts over the
    components.  The stage buffers are allocated once.  Every IEEE operation
    is that of k = (a X + p l, q l, -(q/F) X - (p/F) Y, X) and
    S + (h/6) (k1 + 2 k2 + 2 k3 + k4), in this order, so a line's states do
    not depend on the other lines.
    """

    def __init__(self, m):
        self.k = np.empty((4, 4, 3, m))
        self.stage = np.empty((4, 3, m))
        self.tmp = np.empty((3, m))

    def _rhs(self, S, c, out):
        a, p, q, nqF, pF = c
        X, Y, l = S[0], S[1], S[2]
        np.multiply(a, X, out=out[0])
        out[0] += np.multiply(p, l, out=self.tmp)
        np.multiply(q, l, out=out[1])
        np.multiply(nqF, X, out=out[2])
        out[2] -= np.multiply(pF, Y, out=self.tmp)
        out[3] = X

    def step(self, S, h, c0, cm, c1):
        """The state after one step of size h from S; c0, cm, c1 are the coefficient
        rows at the start, the midpoint and the end of the step."""
        k1, k2, k3, k4 = self.k
        T = self.stage
        self._rhs(S, c0, k1)
        np.add(S, np.multiply(0.5 * h, k1, out=T), out=T)
        self._rhs(T, cm, k2)
        np.add(S, np.multiply(0.5 * h, k2, out=T), out=T)
        self._rhs(T, cm, k3)
        np.add(S, np.multiply(h, k3, out=T), out=T)
        self._rhs(T, c1, k4)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= h / 6.0
        return S + k1


class _Place(NamedTuple):
    """Where a march runs on the full grid, so that its errors name nodes there."""

    stage: str
    u: np.ndarray
    v: np.ndarray
    along_v: bool   # marching index n is j and line m is row first + m; else n is i
    first: int = 0

    def node(self, n, m):
        m += self.first
        return (m, n) if self.along_v else (n, m)


def _midpoints(t, lines, slopes, start, stop):
    """(F, dF, P, Q) at the midpoints of the intervals start..stop-1 of the lines.

    `lines` are the (n, m) arrays F, P, Q, `slopes` their not-a-knot knot
    slopes (dF, dP, dQ); each result is (stop - start, m).  hermite_midpoints
    of the knots start..stop forms every value by the same elementwise
    expression as of the whole lines, so each block gives the same bits.
    """
    k = slice(start, stop + 1)
    (F, P, Q), (dF, dP, dQ) = ([a[k] for a in lines], [a[k] for a in slopes])
    return (hermite_midpoints(t[k], F, dF), hermite_midpoints(t[k], F, dF, nu=1),
            hermite_midpoints(t[k], P, dP), hermite_midpoints(t[k], Q, dQ))


def _refuse_nonpositive_midpoints(t, F, dF, place):
    """ReconstructionAbort at the first spline midpoint, in C order of (interval,
    line), where F <= 0; the midpoints are scanned _BLOCK intervals at a time."""
    for start in range(0, t.size - 1, _BLOCK):
        knots = slice(start, min(start + _BLOCK, t.size - 1) + 1)
        bad = hermite_midpoints(t[knots], F[knots], dF[knots]) <= 0.0
        if not np.any(bad):
            continue
        k, line = map(int, np.argwhere(bad)[0])
        (i, j), (i2, j2) = place.node(start + k, line), place.node(start + k + 1, line)
        um, vm = 0.5 * (place.u[i] + place.u[i2]), 0.5 * (place.v[j] + place.v[j2])
        raise ReconstructionAbort(
            f"F <= 0 in the {place.stage} spline at (u, v) = ({float(um)!r}, {float(vm)!r}), "
            f"between nodes ({i}, {j}) and ({i2}, {j2})", node=(i, j))


def _march(t, i0, F, P, Q, S0, place):
    """Yield (n, S): the states S (4, 3, m) of m lines marched from S0 at node i0 (see _RK4).

    F, P, Q are the lines' u-family coefficients, (n, m) with t along axis 0;
    at the nodes the march reads them as given.  The not-a-knot splines of
    all lines are fitted together, one field at a time, and only their knot
    slopes are kept: dF, the spline's exact derivative, keeps d<X,Y>/dt =
    (dF/F) <X,Y> consistent with the sampled F.  The midpoint coefficients
    are formed for one block of _BLOCK intervals at a time (see _midpoints).
    A spline F <= 0 at a midpoint aborts before the first step, naming its
    place.  (i0, S0) comes first, then the march runs forward to the last
    node and backward from i0 to node 0.  Each node's and each midpoint's
    coefficient row is formed once.  `place` names the nodes in errors; when
    several lines turn non-finite in one step, the lowest line is named.
    """
    lines = (F, P, Q)
    slopes = tuple(notaknot_slopes(t, c) for c in lines)
    _refuse_nonpositive_midpoints(t, F, slopes[0], place)
    nodes = (F, slopes[0], P, Q)
    block, mids = None, None
    rk4 = _RK4(S0.shape[-1])
    yield i0, S0
    forward = zip(range(i0, t.size - 1), range(i0 + 1, t.size))
    backward = zip(range(i0, 0, -1), range(i0 - 1, -1, -1))
    for k, n in itertools.chain(forward, backward):
        if k == i0:
            # each direction starts from the base node
            S, c0 = S0, _coeffs(*(c[k] for c in nodes))
        mid = min(k, n)
        if block != mid - mid % _BLOCK:
            block = mid - mid % _BLOCK
            mids = _midpoints(t, lines, slopes, block, min(block + _BLOCK, t.size - 1))
        c1 = _coeffs(*(c[n] for c in nodes))
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite states abort below
            S = rk4.step(S, t[n] - t[k], c0, _coeffs(*(c[mid - block] for c in mids)), c1)
        c0 = c1
        if not np.isfinite(S).all():
            line = int(np.argmin(np.isfinite(S).all(axis=(0, 1))))
            i, j = place.node(n, line)
            raise ReconstructionAbort(f"non-finite frame state in the {place.stage} march "
                                      f"at node {node_at(place.u, place.v, i, j)}", node=(i, j))
        yield n, S


def _grid_march(u, v, F, L, M, N, i0, j0, S0):
    """Stream the frame states marched from S0 (4, 3) at node (i0, j0), column by column.

    The base line v = v0 is marched first, as one line; the columns then
    march together from it on X/Y-swapped states (see _SWAP_XY).  Yields
    (j, S) in the order of _march, S (4, 3, nu) the swapped component-major
    states of column j.
    """
    line = slice(j0, j0 + 1)
    states = np.empty((4, 3, u.size))
    base = _Place("base line", u, v, False, j0)
    for n, S in _march(u, i0, F[:, line], L[:, line], M[:, line], S0[..., None], base):
        states[..., n] = S[..., 0]
    yield from _march(v, j0, F.T, N.T, M.T, states[_SWAP_XY, :], _Place("columns", u, v, True))


def _slabs(columns, j0):
    """Group a column stream into slabs of _BLOCK columns plus one neighbour each side.

    Yields (cols, S, new): the slab's v-indices in march order, their
    stacked component-major states (k, 4, 3, nu) and the position of its
    first column not in an earlier slab.  Consecutive slabs share two columns, so every
    column except the two ends of a run is inside some slab with both of
    its neighbours.  The forward run starts at column j0; the backward run
    starts from columns j0 + 1 and j0, so its slabs run in decreasing v.
    Each column's state is copied into one slab buffer as it arrives, so
    cols and S are views that the next slab overwrites.
    """
    cols, buf, k, new, seeds = np.empty(_BLOCK + 2, dtype=int), None, 0, 0, []
    for j, S in columns:
        if buf is None:  # after the column march has fitted its splines, not beside them
            buf = np.empty((_BLOCK + 2,) + S.shape)
        if j == j0 - 1:  # the forward run is done
            yield cols[:k], buf[:k], new
            k = new = len(seeds)
            for m, (seed_j, seed_S) in enumerate(reversed(seeds)):
                cols[m], buf[m] = seed_j, seed_S
        cols[k], buf[k] = j, S
        k += 1
        if j0 <= j <= j0 + 1:
            seeds.append((j, S))
        if k == _BLOCK + 2:
            yield cols[:k], buf[:k], new
            cols[:2], buf[:2] = cols[-2:], buf[-2:]
            k, new = 2, 2
    yield cols[:k], buf[:k], new


# -- results and diagnostics --------------------------------------------------

@dataclass
class FormMismatch:
    """Interior-node mismatch between input fields and re-analyzed mesh forms."""

    f_max: float
    f_l2: float
    h_max: float
    h_l2: float
    e_max: float
    g_max: float


@dataclass
class ReconstructionResult:
    """The mesh of a reconstruction and the maxima of its diagnostics."""

    u_grid: np.ndarray
    v_grid: np.ndarray
    mesh: np.ndarray               # (nu, nv, 3)
    eps1: int
    eps2: int
    max_invariant_drift: float     # over all nodes
    max_compat: float              # over interior nodes, |d_v X - d_u Y|
    max_compat_l: float            # over interior nodes, u-equation residual of l
    form_mismatch: FormMismatch
    natural_max_abs: float
    natural_tol: float             # the natural residual's tol (ResidualReport.tol)
    natural_warning: bool          # not within([natural_max_abs], natural_tol)


def _central(Arr, t, axis):
    sl_p = [slice(None)] * Arr.ndim
    sl_m = [slice(None)] * Arr.ndim
    sl_p[axis] = slice(2, None)
    sl_m[axis] = slice(None, -2)
    shape = [1] * Arr.ndim
    shape[axis] = t.size - 2
    dt = (t[2:] - t[:-2]).reshape(shape)
    return (Arr[tuple(sl_p)] - Arr[tuple(sl_m)]) / dt


def _euclid(A):
    """Euclidean lengths of the vectors A (..., 3), summed over their component planes."""
    p = np.moveaxis(A, -1, 0)
    out = np.square(p[0])
    out += np.square(p[1])
    out += np.square(p[2])
    return np.sqrt(out, out=out)


def _interior_form_blocks(mesh, u, v):
    """Fundamental forms of a mesh on its interior nodes, by grid finite differences.

    Yields (cols, jets, FundamentalData) for consecutive blocks of interior
    columns (cols is a slice of v-indices; the rows are 1..nu-2).  Each block's
    jets come from the block plus one neighbour column on either side, so every
    value equals the whole-grid computation's, and the forms are those of the
    jets' interior; jets_from_mesh copies the block into component planes
    once.  The mesh and the grids are checked before the first block.
    """
    mesh = np.asarray(mesh, dtype=float)
    u = check_grid(u, "u_grid", 3)
    v = check_grid(v, "v_grid", 3)
    if mesh.shape != (u.size, v.size, 3):
        raise ValueError(f"mesh shape {mesh.shape} does not match grid {(u.size, v.size, 3)}")

    def blocks():
        for j in range(1, v.size - 1, _BLOCK):
            k = min(j + _BLOCK, v.size - 1)
            jets = jets_from_mesh(mesh[:, j - 1:k + 1], u, v[j - 1:k + 1])
            interior = SurfaceJet2(**{name: getattr(jets, name)[1:-1, 1:-1] for name in
                                      ("x", "x_u", "x_v", "x_uu", "x_uv", "x_vv")})
            try:
                fd = fundamental_forms(interior)
            except (DegenerateMetricError, NotLorentzSurfaceError) as exc:
                raise exc.at(u, v, 1, j, "mesh node") from None
            yield slice(j, k), jets, fd

    return blocks()


def reconstruct(chart, seed=None):
    """March the frame system over a chart and assemble all diagnostics.

    The chart should satisfy the natural equation, the integrability
    condition of the frame system; a residual that fails it warns and sets
    natural_warning (a failed check of the CLI), and the compatibility
    residual max_compat (|d_v X - d_u Y|) then exhibits the inconsistency.
    Non-finite accumulated L, M or N abort before the march.  The columns
    stream from the march in slabs (see _slabs): each slab stores its mesh
    columns and folds its invariant drift and compatibility residuals into
    running maxima before the next is marched.  No frame is kept beyond its
    slab, and of the diagnostics only their maxima are kept.  The march
    holds the knot slopes of its splines and one block of midpoint
    coefficients (see _march).  The form mismatch then runs over blocks of
    interior mesh columns, after the accumulated L, M, N are released:
    reconstruct reads only the chart's F and H, so a caller may pass a
    chart without its other fields.
    """
    chart.validate()
    acc = accumulate_LN(chart)
    u, v = chart.u_grid, chart.v_grid
    for name in "LMN":  # the splines of the march need finite coefficients
        refuse(ReconstructionAbort, ~np.isfinite(getattr(acc, name)),
               f"non-finite accumulated {name}", u[:, None], v)
    i0, j0 = chart.u0_index, chart.v0_index
    F0 = float(chart.F[i0, j0])
    if seed is None:
        seed = initial_frame(F0)
    else:
        # re-validate against this chart's base value of F
        seed = initial_frame(F0, X=seed.X, Y=seed.Y, l=seed.l, x=seed.x)

    nat = natural_residual(chart, acc)
    nat_max_abs, nat_scale, nat_tol, warning = nat.max_abs, nat.scale, nat.tol, not nat.passed
    del nat  # its residual field is not held through the march
    if warning:
        warnings.warn(
            f"chart violates the natural equation (max residual {nat_max_abs:.3g}, "
            f"scale {nat_scale:.3g}); reconstruction diagnostics will reflect this",
            stacklevel=2)

    nu, nv = u.size, v.size
    mesh = np.empty((nu, nv, 3))
    # per-slab maxima; a maximum is exact, so their maximum is the whole grid's,
    # and a NaN or inf in any slab propagates as in ndarray.max
    drift, compat, compat_l = [], [], []
    columns = _grid_march(u, v, chart.F, acc.L, acc.M, acc.N, i0, j0, seed.as_array())
    # diagnostics that overflow on huge finite states are recorded, and fail a report
    with np.errstate(over="ignore", invalid="ignore"):
        for cols, S, new in _slabs(columns, j0):
            # views with axes (column, row, component), so that each component
            # is a contiguous row; the frame rows of the march are X/Y-swapped
            Y, X, l, x = S.transpose(1, 0, 3, 2)
            fresh = cols[new:]
            if fresh.size:
                mesh[:, fresh] = x[new:].swapaxes(0, 1)
                drift.append(functools.reduce(np.maximum, _frame_errors(
                    X[new:], Y[new:], l[new:], chart.F[:, fresh].T).values()).max())
            if cols.size < 3:
                continue
            # a slab in decreasing v gives the same central differences bit for bit:
            # IEEE a - b = -(b - a) and (-x) / (-y) = x / y exactly
            mid = cols[1:-1]
            D = _central(X[:, 1:-1], v[cols], axis=0) - _central(Y[1:-1], u, axis=1)
            compat.append(_euclid(D).max())
            Fi = chart.F[1:-1, mid].T[..., None]
            Dl = _central(l[1:-1], u, axis=1) \
                + (acc.M[1:-1, mid].T[..., None] / Fi) * X[1:-1, 1:-1] \
                + (acc.L[1:-1, mid].T[..., None] / Fi) * Y[1:-1, 1:-1]
            compat_l.append(_euclid(Dl).max())
        del acc  # the form mismatch reads only the mesh, F and H

        dF = np.empty((nu - 2, nv - 2))
        dH = np.empty((nu - 2, nv - 2))
        e_max, g_max = [], []
        for cols, _, fd in _interior_form_blocks(mesh, u, v):
            inner = slice(cols.start - 1, cols.stop - 1)
            dF[:, inner] = np.abs(fd.F - chart.F[1:-1, cols])
            dH[:, inner] = np.abs(fd.H - chart.H[1:-1, cols])
            e_max.append(np.max(np.abs(fd.E)))
            g_max.append(np.max(np.abs(fd.G)))
        mismatch = FormMismatch(
            f_max=float(dF.max()), f_l2=float(np.sqrt(np.mean(dF**2))),
            h_max=float(dH.max()), h_l2=float(np.sqrt(np.mean(dH**2))),
            e_max=float(np.max(e_max)), g_max=float(np.max(g_max)))

    return ReconstructionResult(
        u_grid=u.copy(), v_grid=v.copy(), mesh=mesh,
        eps1=chart.eps1, eps2=chart.eps2,
        max_invariant_drift=float(np.max(drift)), max_compat=float(np.max(compat)),
        max_compat_l=float(np.max(compat_l)), form_mismatch=mismatch,
        natural_max_abs=nat_max_abs, natural_tol=nat_tol, natural_warning=bool(warning))


def _cmc_chart(F, H, u, v, eps1, eps2):
    nu, nv = F.shape
    return Chart(u_grid=u, v_grid=v, F=F, H=np.broadcast_to(float(H), (nu, nv)),
                 u0_index=(nu - 1) // 2, v0_index=(nv - 1) // 2,
                 eps1=eps1, eps2=eps2).validate()


def _refuse_violation(res, which):
    """NaturalEquationError when the residual report `res` fails."""
    if not res.passed:
        raise NaturalEquationError(
            f"K violates the {which} natural equation (max residual {res.max_abs:.3g}, "
            f"tol {res.tol:.3g})")


def cmc_pair(K, H, u_grid, v_grid, seed=None):
    """The two constant-mean-curvature surfaces sharing (K, H).

    F comes from F = 1/sqrt(|H^2 - K|); the sign product eps1*eps2 =
    sign(H^2 - K) admits exactly two sign pairs, and both are
    reconstructed with the same seed.  Raises ChartError when is_minimal(H, K)
    (minimal_from_K rebuilds that surface), and NaturalEquationError before
    any march when K violates the constant-H natural equation (no surface).
    """
    if is_minimal(H, K):
        raise ChartError("--pair requires a non-zero H: a minimal surface is fixed "
                         "by K up to motion, so it has no pair")
    # cmc_residual checks the grids and K's shape for all that follows
    _refuse_violation(cmc_residual(K, H, u_grid, v_grid), "constant-H")
    F, eps_product = F_from_K_cmc(K, H)
    pairs = ((1, 1), (-1, -1)) if eps_product == 1 else ((1, -1), (-1, 1))
    return tuple(reconstruct(_cmc_chart(F, H, u_grid, v_grid, *eps), seed=seed) for eps in pairs)


def minimal_from_K(K, u_grid, v_grid, seed=None):
    """Minimal surface with prescribed Gauss curvature K (unique up to motion).

    Uses H = 0, F = 1/sqrt(|K|) and the sign pair (+1, sign(-K)); the other
    admissible pair gives the image under a non-proper motion.  Raises
    NaturalEquationError when K violates the minimal natural equation.
    """
    _refuse_violation(minimal_residual(K, u_grid, v_grid), "minimal")
    F, eps_product = F_from_K_cmc(K, 0.0)
    return reconstruct(_cmc_chart(F, 0.0, u_grid, v_grid, 1, eps_product), seed=seed)


class CongruenceVerdict(Enum):
    CONGRUENT = "congruent"
    NON_PROPER = "congruent_up_to_non_proper_motion"
    DISTINCT = "not_congruent"


@dataclass
class CongruenceReport:
    verdict: CongruenceVerdict
    mismatch: dict      # max |coefficient difference| / scale per field F, L, M, N
    mismatch_flipped: dict
    tol: float


def _extent(mesh):
    """The Euclidean diagonal of the bounding box of a mesh (nu, nv, 3)."""
    mesh = np.asarray(mesh, dtype=float)
    return float(np.linalg.norm([np.ptp(mesh[..., k]) for k in range(3)]))


def _form_scales(jets, fd, extent):
    """The scale of each of F, L, M, N at every node: |x_u| |x_v| for F, and
    |l| (|x_uu| + |x_u|^2 / R), |l| (|x_uv| + sqrt(|x_uu| |x_vv|) + |x_u| |x_v| / R),
    |l| (|x_vv| + |x_v|^2 / R) for L, M, N (Euclidean lengths, R the mesh's extent).

    `fd` holds the forms of the interior of `jets`, a block of _interior_form_blocks,
    whose whole contiguous planes give the lengths.  Each scale bounds its
    coefficient and scales with it under x -> lam x, u -> a u and v -> b v.  The
    R terms keep a scale on a flat patch, where every second derivative is
    rounding noise; sqrt(|x_uu| |x_vv|) keeps one for M where only x_uv is
    (H = 0).  L and N are judged against their own second derivatives, so a
    mesh whose u and v tangents differ in length does not swamp either.
    """
    a, b, uu, uv, vv = map(_euclid, (jets.x_u, jets.x_v, jets.x_uu, jets.x_uv, jets.x_vv))
    l = _euclid(fd.l)
    inner = (slice(1, -1), slice(1, -1))
    ab = a * b
    return {"F": ab[inner],
            "L": l * (uu + a * a / extent)[inner],
            "M": l * (uv + np.sqrt(uu * vv) + ab / extent)[inner],
            "N": l * (vv + b * b / extent)[inner]}


def congruence_check(mesh_a, mesh_b, u_grid, v_grid, tol=1e-6):
    """Intrinsic congruence test on two meshes over the same grid.

    Both meshes are re-analyzed by grid finite differences, one block of
    columns at a time, and compared through (F, L, M, N) on interior nodes,
    each difference relative to the larger of the two meshes' scales of that
    coefficient at the node (see _form_scales), so the verdict does not depend
    on the size of the surface.  All four matching within the relative `tol`
    means congruent up to a proper motion; F matching while (L, M, N) match
    with a global sign flip indicates a non-proper motion.  `tol` is a
    parameter because two standards are in use: 1e-6, the default, for a
    rebuilt mesh against its closed form, and 1e-4 for the two members of a
    CMC pair (`lorsurf reconstruct --pair`).  The report records it.
    """
    diff = dict.fromkeys("FLMN", -np.inf)
    summ = dict.fromkeys("LMN", -np.inf)
    blocks_a = _interior_form_blocks(mesh_a, u_grid, v_grid)
    blocks_b = _interior_form_blocks(mesh_b, u_grid, v_grid)
    extent_a, extent_b = _extent(mesh_a), _extent(mesh_b)
    for (_, ja, fa), (_, jb, fb) in zip(blocks_a, blocks_b):
        sa, sb = _form_scales(ja, fa, extent_a), _form_scales(jb, fb, extent_b)
        for name in diff:
            a, b, scale = getattr(fa, name), getattr(fb, name), np.maximum(sa[name], sb[name])
            diff[name] = np.maximum(diff[name], np.max(relative(a - b, scale)))
            if name in summ:
                summ[name] = np.maximum(summ[name], np.max(relative(a + b, scale)))
    mismatch = {name: float(m) for name, m in diff.items()}
    flipped = {"F": mismatch["F"]}
    flipped.update({name: float(m) for name, m in summ.items()})
    if within(mismatch.values(), tol):
        verdict = CongruenceVerdict.CONGRUENT
    elif within(flipped.values(), tol):
        verdict = CongruenceVerdict.NON_PROPER
    else:
        verdict = CongruenceVerdict.DISTINCT
    return CongruenceReport(verdict=verdict, mismatch=mismatch,
                            mismatch_flipped=flipped, tol=tol)
