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

Frames are never re-orthonormalized during the march: invariant drift and
the cross-derivative residual d_v X - d_u Y are diagnostics of input
consistency, and projecting them away would mask violations of the natural
equation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import minkowski as mk
from .chart import Chart
from .errors import InvalidFrameError, NaturalEquationError, ReconstructionAbort
from .natural import (F_from_K_cmc, accumulate_LN, cmc_residual, minimal_residual,
                      natural_residual, natural_scale)
from .stencils import check_grid
from .surfaces import SurfaceJet2, fundamental_forms, jets_from_mesh

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


def initial_frame(F0, X=None, Y=None, l=None, x=None, tol=1e-10):
    """Initial frame for the march, defaulting to the standard null seed.

    The standard seed is X = (1, 1, 0), Y = (F0/2)(-1, 1, 0), l = (0, 0, 1)
    at the origin.  Custom seeds must satisfy X^2 = Y^2 = 0, <X, Y> = F0,
    l^2 = 1, <X, l> = <Y, l> = 0 and det(X, Y, l) > 0 (positive
    orientation); each condition is checked to `tol` * (1 + |F0|).
    """
    F0 = float(F0)
    if not F0 > 0.0:
        raise InvalidFrameError(f"F0 must be positive, got {F0!r}")
    if X is None and Y is None and l is None:
        X = np.array([1.0, 1.0, 0.0])
        Y = 0.5 * F0 * np.array([-1.0, 1.0, 0.0])
        l = np.array([0.0, 0.0, 1.0])
    elif X is None or Y is None or l is None:
        raise InvalidFrameError("custom seeds must supply X, Y and l together")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    l = np.asarray(l, dtype=float)
    x = np.zeros(3) if x is None else np.asarray(x, dtype=float)
    allowed = tol * (1.0 + abs(F0))
    errors = _frame_errors(X, Y, l, F0)
    bad = {k: float(e) for k, e in errors.items() if e > allowed}
    if bad:
        raise InvalidFrameError(f"seed violates frame conditions {bad} (tol {allowed:.3g})")
    if not float(mk.det3(X, Y, l)) > 0.0:
        raise InvalidFrameError("seed frame is not positively oriented (det <= 0)")
    return FrameState(X=X, Y=Y, l=l, x=x)


# -- RK4 marching kernels -----------------------------------------------------

def _rhs_u(S, F, dF, P, Q):
    """u-family right-hand side; P = L drives X, Q = M."""
    X, Y, l = S[..., 0, :], S[..., 1, :], S[..., 2, :]
    a = np.asarray(dF / F)[..., None]
    p = np.asarray(P)[..., None]
    q = np.asarray(Q)[..., None]
    iF = np.asarray(1.0 / F)[..., None]
    out = np.empty_like(S)
    out[..., 0, :] = a * X + p * l
    out[..., 1, :] = q * l
    out[..., 2, :] = -(q * iF) * X - (p * iF) * Y
    out[..., 3, :] = X
    return out


# Frame rows with X and Y exchanged: the v-family of the frame system is the
# u-family on these rows with L and N exchanged.
_SWAP_XY = (1, 0, 2, 3)


def _rk4_step(S, h, rhs, c0, cm, c1):
    k1 = rhs(S, *c0)
    k2 = rhs(S + 0.5 * h * k1, *cm)
    k3 = rhs(S + 0.5 * h * k2, *cm)
    k4 = rhs(S + h * k3, *c1)
    return S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _sample_coeffs(t, F, P, Q):
    """Coefficient samples (F, dF, P, Q) at nodes and interval midpoints.

    F, P, Q are arrays with the marching direction along axis 0 (1-D for a
    single line, 2-D (n, m) for m simultaneous lines).  dF is the exact
    derivative of the interpolating spline, which keeps d<X,Y>/dt = (dF/F)
    <X,Y> consistent with the sampled F.
    """
    from scipy.interpolate import CubicSpline

    mids = 0.5 * (t[:-1] + t[1:])
    sF = CubicSpline(t, F, axis=0)
    dF = sF.derivative()
    nodes = (F.copy(), dF(t), P.copy(), Q.copy())
    smid = (sF(mids), dF(mids),
            CubicSpline(t, P, axis=0)(mids), CubicSpline(t, Q, axis=0)(mids))
    for arr, label in ((nodes[0], "node"), (smid[0], "midpoint")):
        bad = arr <= 0.0
        if np.any(bad):
            k = int(np.argwhere(bad.reshape(bad.shape[0], -1).any(axis=1))[0][0])
            raise ReconstructionAbort(f"F <= 0 at marching {label} index {k}", node=k)
    return nodes, smid


def _march(S0, t, i0, nodes, mids, rhs, out, write):
    """March S0 from node i0 to both ends; write(out, k, S) stores states."""
    write(out, i0, S0)
    S = S0
    for k in range(i0, t.size - 1):
        h = t[k + 1] - t[k]
        S = _rk4_step(S, h, rhs,
                      tuple(c[k] for c in nodes), tuple(c[k] for c in mids),
                      tuple(c[k + 1] for c in nodes))
        if not np.all(np.isfinite(S)):
            raise ReconstructionAbort(f"non-finite frame state at marching index {k + 1}",
                                      node=k + 1)
        write(out, k + 1, S)
    S = S0
    for k in range(i0, 0, -1):
        h = t[k - 1] - t[k]
        S = _rk4_step(S, h, rhs,
                      tuple(c[k] for c in nodes), tuple(c[k - 1] for c in mids),
                      tuple(c[k - 1] for c in nodes))
        if not np.all(np.isfinite(S)):
            raise ReconstructionAbort(f"non-finite frame state at marching index {k - 1}",
                                      node=k - 1)
        write(out, k - 1, S)


def _integrate_grid(u, v, F, L, M, N, i0, j0, seed, first="u"):
    """Full grid of frame states (nu, nv, 4, 3) for a given marching order."""
    if first == "v":
        # Marching the v-family is the u-family march of the transposed chart
        # with X and Y (and L and N) exchanged; swap, recurse, swap back.
        swapped = FrameState(X=seed.Y, Y=seed.X, l=seed.l, x=seed.x)
        states = _integrate_grid(v, u, F.T, N.T, M.T, L.T, j0, i0, swapped, first="u")
        states = states.transpose(1, 0, 2, 3).copy()
        return states[:, :, _SWAP_XY, :]

    nu, nv = u.size, v.size
    states = np.empty((nu, nv, 4, 3))

    base_nodes, base_mids = _sample_coeffs(u, F[:, j0], L[:, j0], M[:, j0])
    base = np.empty((nu, 4, 3))
    _march(seed.as_array(), u, i0, base_nodes, base_mids, _rhs_u, base,
           lambda out, k, S: out.__setitem__(k, S))

    # column sweep: coefficient samples along v for every column at once; the
    # u-family kernel marches the X/Y-swapped state, swapped back on write
    col_nodes, col_mids = _sample_coeffs(v, F.T, N.T, M.T)
    _march(base[:, _SWAP_XY], v, j0, col_nodes, col_mids, _rhs_u, states,
           lambda out, k, S: out.__setitem__((slice(None), k), S[:, _SWAP_XY]))
    return states


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
    u_grid: np.ndarray
    v_grid: np.ndarray
    mesh: np.ndarray               # (nu, nv, 3)
    X: np.ndarray
    Y: np.ndarray
    l: np.ndarray
    eps1: int
    eps2: int
    invariant_drift: np.ndarray    # (nu, nv)
    max_invariant_drift: float
    compat_residual: np.ndarray    # (nu-2, nv-2), |d_v X - d_u Y|
    max_compat: float
    compat_residual_l: np.ndarray  # (nu-2, nv-2), u-equation residual of l
    max_compat_l: float
    form_mismatch: FormMismatch
    natural_max_abs: float
    natural_warning: bool
    transpose_diff: Optional[float] = None


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
    return np.sqrt(np.sum(A * A, axis=-1))


def _interior_forms(mesh, u, v):
    """Fundamental forms of a mesh on its interior nodes, by grid finite differences."""
    jets = jets_from_mesh(mesh, u, v)
    interior = SurfaceJet2(**{k: getattr(jets, k)[1:-1, 1:-1] for k in
                              ("x", "x_u", "x_v", "x_uu", "x_uv", "x_vv")})
    return fundamental_forms(interior)


def reconstruct(chart, seed=None, transpose_probe=False, warn_rel=1e-3):
    """March the frame system over a chart and assemble all diagnostics.

    The chart should satisfy the natural equation; a residual above
    `warn_rel` * scale only warns (the resulting diagnostics then exhibit
    the inconsistency, which is the point of the probe).
    """
    chart.validate()
    acc = accumulate_LN(chart)
    u, v = chart.u_grid, chart.v_grid
    i0, j0 = chart.u0_index, chart.v0_index
    F0 = float(chart.F[i0, j0])
    if seed is None:
        seed = initial_frame(F0)
    else:
        # re-validate against this chart's base value of F
        seed = initial_frame(F0, X=seed.X, Y=seed.Y, l=seed.l, x=seed.x)

    nat = natural_residual(chart, acc)
    scale = natural_scale(acc)
    warning = nat.max_abs > warn_rel * scale
    if warning:
        warnings.warn(
            f"chart violates the natural equation (max residual {nat.max_abs:.3g}, "
            f"scale {scale:.3g}); reconstruction diagnostics will reflect this",
            stacklevel=2)

    states = _integrate_grid(u, v, chart.F, acc.L, acc.M, acc.N, i0, j0, seed, first="u")
    X, Y, l, mesh = (states[:, :, 0, :], states[:, :, 1, :],
                     states[:, :, 2, :], states[:, :, 3, :])

    drift = np.stack(list(_frame_errors(X, Y, l, chart.F).values())).max(axis=0)

    D = _central(X, v, axis=1)[1:-1, :, :] - _central(Y, u, axis=0)[:, 1:-1, :]
    compat = _euclid(D)
    Fi = chart.F[1:-1, 1:-1, None]
    Dl = _central(l, u, axis=0)[:, 1:-1, :] \
        + (acc.M[1:-1, 1:-1, None] / Fi) * X[1:-1, 1:-1] \
        + (acc.L[1:-1, 1:-1, None] / Fi) * Y[1:-1, 1:-1]
    compat_l = _euclid(Dl)

    fd = _interior_forms(mesh, u, v)
    dF = np.abs(fd.F - chart.F[1:-1, 1:-1])
    dH = np.abs(fd.H - chart.H[1:-1, 1:-1])
    mismatch = FormMismatch(
        f_max=float(dF.max()), f_l2=float(np.sqrt(np.mean(dF**2))),
        h_max=float(dH.max()), h_l2=float(np.sqrt(np.mean(dH**2))),
        e_max=float(np.max(np.abs(fd.E))), g_max=float(np.max(np.abs(fd.G))))

    transpose_diff = None
    if transpose_probe:
        alt = _integrate_grid(u, v, chart.F, acc.L, acc.M, acc.N, i0, j0, seed, first="v")
        transpose_diff = float(np.max(_euclid(alt[:, :, 3, :] - mesh)))

    return ReconstructionResult(
        u_grid=u.copy(), v_grid=v.copy(), mesh=mesh, X=X, Y=Y, l=l,
        eps1=chart.eps1, eps2=chart.eps2,
        invariant_drift=drift, max_invariant_drift=float(drift.max()),
        compat_residual=compat, max_compat=float(compat.max()),
        compat_residual_l=compat_l, max_compat_l=float(compat_l.max()),
        form_mismatch=mismatch,
        natural_max_abs=nat.max_abs, natural_warning=bool(warning),
        transpose_diff=transpose_diff)


def _cmc_chart(F, H, u, v, eps1, eps2):
    nu, nv = u.size, v.size
    return Chart(u_grid=u, v_grid=v, F=F, H=np.full((nu, nv), float(H)),
                 u0_index=(nu - 1) // 2, v0_index=(nv - 1) // 2,
                 eps1=eps1, eps2=eps2).validate()


def cmc_pair(K, H, u_grid, v_grid, seed=None, force=False):
    """The two constant-mean-curvature surfaces sharing (K, H).

    F comes from F = 1/sqrt(|H^2 - K|); the sign product eps1*eps2 =
    sign(H^2 - K) admits exactly two sign pairs, and both are
    reconstructed with the same seed.  Raises NaturalEquationError when K
    violates the constant-H natural equation (unless `force`).
    """
    H = float(H)
    if H == 0.0:
        raise ValueError("H must be non-zero; use minimal_from_K for minimal surfaces")
    u = check_grid(np.asarray(u_grid, dtype=float), "u_grid", 3)
    v = check_grid(np.asarray(v_grid, dtype=float), "v_grid", 3)
    K = np.asarray(K, dtype=float)
    res = cmc_residual(K, H, u, v)
    scale = 1.0 + H * H + float(np.max(np.abs(K)))
    if res.max_abs > 1e-3 * scale and not force:
        raise NaturalEquationError(
            f"K violates the constant-H natural equation (max residual {res.max_abs:.3g}); "
            "pass force=True to reconstruct anyway")
    F, eps_product = F_from_K_cmc(K, H)
    pairs = ((1, 1), (-1, -1)) if eps_product == 1 else ((1, -1), (-1, 1))
    results = []
    for eps1, eps2 in pairs:
        chart = _cmc_chart(F, H, u, v, eps1, eps2)
        results.append(reconstruct(chart, seed=seed))
    return tuple(results)


def minimal_from_K(K, u_grid, v_grid, seed=None, force=False):
    """Minimal surface with prescribed Gauss curvature K (unique up to motion).

    Uses H = 0, F = 1/sqrt(|K|) and the sign pair (+1, sign(-K)); the other
    admissible pair gives the image under a non-proper motion.  Refuses
    when K violates the minimal natural equation unless `force`.
    """
    u = check_grid(np.asarray(u_grid, dtype=float), "u_grid", 3)
    v = check_grid(np.asarray(v_grid, dtype=float), "v_grid", 3)
    K = np.asarray(K, dtype=float)
    res = minimal_residual(K, u, v)
    scale = 1.0 + float(np.max(np.abs(K)))
    if res.max_abs > 1e-3 * scale and not force:
        raise NaturalEquationError(
            f"K violates the minimal natural equation (max residual {res.max_abs:.3g}); "
            "pass force=True to reconstruct anyway")
    F, eps_product = F_from_K_cmc(K, 0.0)
    chart = _cmc_chart(F, 0.0, u, v, 1, eps_product)
    return reconstruct(chart, seed=seed)


class CongruenceVerdict(Enum):
    CONGRUENT = "congruent"
    NON_PROPER = "congruent_up_to_non_proper_motion"
    DISTINCT = "not_congruent"


@dataclass
class CongruenceReport:
    verdict: CongruenceVerdict
    mismatch: dict      # max |coefficient difference| per field F, L, M, N
    mismatch_flipped: dict
    tol: float


def congruence_check(mesh_a, mesh_b, u_grid, v_grid, tol=1e-6):
    """Intrinsic congruence test on two meshes over the same grid.

    Both meshes are re-analyzed by grid finite differences and compared
    through (F, L, M, N) on interior nodes.  All four matching within tol
    means congruent up to a proper motion; F matching while (L, M, N)
    match with a global sign flip indicates a non-proper motion.
    """
    u = check_grid(np.asarray(u_grid, dtype=float), "u_grid", 3)
    v = check_grid(np.asarray(v_grid, dtype=float), "v_grid", 3)
    fa = _interior_forms(np.asarray(mesh_a, dtype=float), u, v)
    fb = _interior_forms(np.asarray(mesh_b, dtype=float), u, v)
    mismatch = {name: float(np.max(np.abs(getattr(fa, name) - getattr(fb, name))))
                for name in ("F", "L", "M", "N")}
    flipped = {"F": mismatch["F"]}
    flipped.update({name: float(np.max(np.abs(getattr(fa, name) + getattr(fb, name))))
                    for name in ("L", "M", "N")})
    if max(mismatch.values()) <= tol:
        verdict = CongruenceVerdict.CONGRUENT
    elif max(flipped.values()) <= tol:
        verdict = CongruenceVerdict.NON_PROPER
    else:
        verdict = CongruenceVerdict.DISTINCT
    return CongruenceReport(verdict=verdict, mismatch=mismatch,
                            mismatch_flipped=flipped, tol=tol)
