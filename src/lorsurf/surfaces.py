"""Two-jets of parametrized surfaces and their fundamental forms.

A surface is supplied as a :class:`SurfaceProvider`: a callable returning
the position and all partials up to second order at (u, v), plus a
rectangular domain and an optional singular-set predicate.  Analytic
providers come from :mod:`lorsurf.corpus`; purely positional surfaces are
wrapped by :func:`jet_from_position`, which differentiates by central
finite differences.

All computations broadcast: scalar (u, v) give scalar coefficient fields,
meshgrid input gives coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import minkowski as mk
from .errors import (
    DegenerateMetricError,
    DomainError,
    NotIsotropicError,
    NotLorentzSurfaceError,
)
from .stencils import check_grid, gradient, second_derivative

__all__ = [
    "SurfaceJet2",
    "FundamentalData",
    "SurfaceProvider",
    "jet_from_position",
    "jets_from_mesh",
    "fundamental_forms",
    "SurfaceKind",
    "KindReport",
    "classify",
    "kind_field",
    "is_isotropic",
    "PseudoArcReport",
    "pseudo_arc_check",
    "swap_parameters",
    "renumber_if_needed",
]


@dataclass
class SurfaceJet2:
    """Position and partial derivatives of an immersion at (u, v).

    Every field has shape (..., 3); x_uv is the single symmetric mixed
    partial.
    """

    x: np.ndarray
    x_u: np.ndarray
    x_v: np.ndarray
    x_uu: np.ndarray
    x_uv: np.ndarray
    x_vv: np.ndarray

    def swapped(self):
        """The same jet with the roles of u and v exchanged."""
        return SurfaceJet2(x=self.x, x_u=self.x_v, x_v=self.x_u,
                           x_uu=self.x_vv, x_uv=self.x_uv, x_vv=self.x_uu)


@dataclass
class FundamentalData:
    """First/second fundamental form coefficients, invariants and unit normal."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    K: np.ndarray
    H: np.ndarray
    l: np.ndarray


@dataclass
class SurfaceProvider:
    """Jet source on a rectangular parameter domain.

    jet(u, v) must accept broadcasting numpy arrays.  `stencil_margin` is
    the reach of any internal finite-difference stencil; evaluation is
    rejected closer than that to the domain boundary.
    """

    jet: Callable[[np.ndarray, np.ndarray], SurfaceJet2]
    domain: tuple  # (u_min, u_max, v_min, v_max)
    singular_set: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    stencil_margin: float = 0.0

    def __call__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u_min, u_max, v_min, v_max = self.domain
        m = self.stencil_margin
        bad = (u < u_min + m) | (u > u_max - m) | (v < v_min + m) | (v > v_max - m)
        if np.any(bad):
            where = np.argwhere(np.atleast_1d(bad))[0]
            raise DomainError(
                f"evaluation outside domain {self.domain} (first offender at flat index {tuple(where)})")
        if self.singular_set is not None:
            sing = np.asarray(self.singular_set(u, v))
            if np.any(sing):
                where = np.argwhere(np.atleast_1d(sing))[0]
                raise DomainError(f"evaluation on singular set (first offender at flat index {tuple(where)})")
        return self.jet(u, v)

    def singular_nodes(self, u_grid, v_grid):
        """Indices (i, j) of grid nodes hitting the singular set."""
        if self.singular_set is None:
            return np.empty((0, 2), dtype=int)
        U, V = np.meshgrid(u_grid, v_grid, indexing="ij")
        return np.argwhere(np.asarray(self.singular_set(U, V)))

    def refuse_singular_nodes(self, u_grid, v_grid, what="the singular set"):
        """DomainError naming the first grid nodes that hit the singular set, if any."""
        nodes = self.singular_nodes(u_grid, v_grid)
        if nodes.size:
            shown = ", ".join(f"({i},{j})" for i, j in nodes[:8])
            more = "" if len(nodes) <= 8 else f" and {len(nodes) - 8} more"
            raise DomainError(f"grid touches {what} at nodes {shown}{more}")


def jet_from_position(f, domain, h=None, singular_set=None):
    """Wrap a position map f(u, v) -> (..., 3) in a finite-difference provider.

    First partials use the central two-point formula with step h, second
    partials the standard 5-point/cross stencils.  h defaults to
    1e-4 * (domain diameter).
    """
    u_min, u_max, v_min, v_max = domain
    if h is None:
        h = 1e-4 * float(np.hypot(u_max - u_min, v_max - v_min))
    if not h > 0:
        raise ValueError("finite-difference step h must be positive")

    def jet(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        fc = np.asarray(f(u, v), dtype=float)
        fpu = np.asarray(f(u + h, v), dtype=float)
        fmu = np.asarray(f(u - h, v), dtype=float)
        fpv = np.asarray(f(u, v + h), dtype=float)
        fmv = np.asarray(f(u, v - h), dtype=float)
        fpp = np.asarray(f(u + h, v + h), dtype=float)
        fpm = np.asarray(f(u + h, v - h), dtype=float)
        fmp = np.asarray(f(u - h, v + h), dtype=float)
        fmm = np.asarray(f(u - h, v - h), dtype=float)
        return SurfaceJet2(
            x=fc,
            x_u=(fpu - fmu) / (2.0 * h),
            x_v=(fpv - fmv) / (2.0 * h),
            x_uu=(fpu - 2.0 * fc + fmu) / h**2,
            x_vv=(fpv - 2.0 * fc + fmv) / h**2,
            x_uv=(fpp - fpm - fmp + fmm) / (4.0 * h**2),
        )

    return SurfaceProvider(jet=jet, domain=tuple(map(float, domain)),
                           singular_set=singular_set, stencil_margin=h)


def jets_from_mesh(mesh, u_grid, v_grid):
    """Grid finite-difference jets of a sampled position field.

    mesh has shape (nu, nv, 3).  Central stencils in the interior; border
    derivatives are one-sided and less accurate, so downstream form
    comparisons should restrict to the interior.
    """
    mesh = np.asarray(mesh, dtype=float)
    u = check_grid(u_grid, "u_grid", 3)
    v = check_grid(v_grid, "v_grid", 3)
    if mesh.shape != (u.size, v.size, 3):
        raise ValueError(f"mesh shape {mesh.shape} does not match grid {(u.size, v.size, 3)}")
    x_u = gradient(mesh, u, axis=0)
    x_v = gradient(mesh, v, axis=1)
    return SurfaceJet2(
        x=mesh,
        x_u=x_u,
        x_v=x_v,
        x_uu=second_derivative(mesh, u, axis=0),
        x_vv=second_derivative(mesh, v, axis=1),
        x_uv=gradient(x_u, v, axis=1),
    )


def fundamental_forms(jet, tol=1e-12):
    """Fundamental form coefficients, unit normal and invariants from a 2-jet.

    Requires a Lorentz surface point: x_u, x_v independent with spacelike
    normal direction, i.e. <w, w> > 0 for w = cross(x_u, x_v).  K and H use
    the general-coordinate formulas; in null coordinates they reduce to
    K = (M^2 - LN)/F^2 and H = M/F.
    """
    for name in ("x", "x_u", "x_v", "x_uu", "x_uv", "x_vv"):
        if not np.all(np.isfinite(getattr(jet, name))):
            raise ValueError(f"non-finite values in jet field {name}")
    E = mk.inner(jet.x_u, jet.x_u)
    F = mk.inner(jet.x_u, jet.x_v)
    G = mk.inner(jet.x_v, jet.x_v)
    w = mk.cross(jet.x_u, jet.x_v)
    ww = mk.inner(w, w)  # equals F^2 - EG by the Lagrange identity
    scale = np.maximum(np.abs(E), np.maximum(np.abs(F), np.abs(G)))
    disc = E * G - F * F
    degenerate = np.abs(disc) <= tol * scale**2
    if np.any(degenerate):
        where = tuple(np.argwhere(np.atleast_1d(degenerate))[0])
        raise DegenerateMetricError(f"EG - F^2 vanishes at index {where}")
    nonlorentz = ww <= tol * scale**2
    if np.any(nonlorentz):
        where = tuple(np.argwhere(np.atleast_1d(nonlorentz))[0])
        raise NotLorentzSurfaceError(f"normal direction not spacelike at index {where}")
    l = w / np.sqrt(ww)[..., None]
    L = mk.inner(jet.x_uu, l)
    M = mk.inner(jet.x_uv, l)
    N = mk.inner(jet.x_vv, l)
    K = (L * N - M * M) / disc
    H = (E * N - 2.0 * F * M + G * L) / (2.0 * disc)
    return FundamentalData(E=E, F=F, G=G, L=L, M=M, N=N, K=K, H=H, l=l)


class SurfaceKind(Enum):
    FIRST = "general_first_kind"
    SECOND = "general_second_kind"
    DEGENERATE = "not_general_type"


@dataclass
class KindReport:
    kind: SurfaceKind
    h2_minus_k: float
    ln_over_f2: float
    tol: float


def _default_kind_tol(fd):
    return 1e-8 * (1.0 + np.asarray(fd.H) ** 2 + np.abs(fd.K))


def classify(fd, tol=None, iso_tol=1e-8):
    """Classify one point as first kind, second kind or not of general type.

    The sign of H^2 - K decides; the report also carries LN/F^2, which must
    agree with H^2 - K (they coincide identically in null coordinates).
    """
    if not np.all(is_isotropic(fd, iso_tol)):
        raise NotIsotropicError("classification requires null coordinates (|E|, |G| <= tol, F > 0)")
    E, F, G = float(fd.E), float(fd.F), float(fd.G)
    L, M, N = float(fd.L), float(fd.M), float(fd.N)
    if tol is None:
        tol = float(_default_kind_tol(fd))
    h2k = float(fd.H) ** 2 - float(fd.K)
    ln_f2 = L * N / F**2
    # first-order contamination of H^2 - K by nonzero E, G, plus a quadratic cushion
    allowed = tol + 8.0 * abs(M) * (abs(N) * abs(E) + abs(L) * abs(G)) / F**3 \
        + 8.0 * (abs(E) + abs(G)) ** 2 * (L * L + M * M + N * N) / F**4
    if abs(h2k - ln_f2) > allowed:
        raise ValueError(
            f"H^2 - K = {h2k:.6g} disagrees with LN/F^2 = {ln_f2:.6g} beyond tolerance {allowed:.3g}")
    if h2k > tol:
        kind = SurfaceKind.FIRST
    elif h2k < -tol:
        kind = SurfaceKind.SECOND
    else:
        kind = SurfaceKind.DEGENERATE
    return KindReport(kind=kind, h2_minus_k=h2k, ln_over_f2=ln_f2, tol=tol)


def kind_field(fd, tol=None):
    """Vectorized kind indicator: +1 first kind, -1 second kind, 0 degenerate."""
    if tol is None:
        tol = _default_kind_tol(fd)
    h2k = np.asarray(fd.H) ** 2 - np.asarray(fd.K)
    return np.where(h2k > tol, 1, np.where(h2k < -tol, -1, 0)).astype(np.int8)


def is_isotropic(fd, tol=1e-8):
    """Elementwise test for null coordinates: |E| <= tol, |G| <= tol, F > tol."""
    return (np.abs(fd.E) <= tol) & (np.abs(fd.G) <= tol) & (fd.F > tol)


@dataclass
class PseudoArcReport:
    """Deviation of <x_uu, x_uu> and <x_vv, x_vv> from 1 along the base lines."""

    max_dev_u: float
    max_dev_v: float
    passed: bool
    degenerate_u: bool
    degenerate_v: bool
    tol: float


def pseudo_arc_check(provider, u0, v0, samples, tol=1e-8, v_samples=None):
    """Check whether (u, v) are natural parameters of the base null curves.

    Evaluates <x_uu, x_uu> along v = v0 at `samples` and <x_vv, x_vv> along
    u = u0 at `v_samples` (defaults to `samples`).  Both must equal 1 within
    tol for the coordinates to be canonical with initial point (u0, v0); a
    value <= tol flags a degenerate null curve (surface not of general type
    along that line).
    """
    su = np.asarray(samples, dtype=float)
    sv = su if v_samples is None else np.asarray(v_samples, dtype=float)
    jet_u = provider(su, np.full_like(su, v0))
    jet_v = provider(np.full_like(sv, u0), sv)
    q_u = mk.inner(jet_u.x_uu, jet_u.x_uu)
    q_v = mk.inner(jet_v.x_vv, jet_v.x_vv)
    deg_u = bool(np.any(q_u <= tol))
    deg_v = bool(np.any(q_v <= tol))
    dev_u = float(np.max(np.abs(q_u - 1.0)))
    dev_v = float(np.max(np.abs(q_v - 1.0)))
    return PseudoArcReport(
        max_dev_u=dev_u, max_dev_v=dev_v,
        passed=not (deg_u or deg_v) and dev_u <= tol and dev_v <= tol,
        degenerate_u=deg_u, degenerate_v=deg_v, tol=tol)


def swap_parameters(provider):
    """Provider for the renumbered parametrization (u, v) -> (v, u)."""
    u_min, u_max, v_min, v_max = provider.domain
    swapped_singular = None
    if provider.singular_set is not None:
        inner_singular = provider.singular_set
        swapped_singular = lambda u, v: inner_singular(v, u)
    return SurfaceProvider(
        jet=lambda u, v: provider.jet(v, u).swapped(),
        domain=(v_min, v_max, u_min, u_max),
        singular_set=swapped_singular,
        stencil_margin=provider.stencil_margin)


def reverse_u(provider):
    """Provider for the direction-reversed parametrization (u, v) -> (-u, v).

    This flips the sign of F (and of L, N, H via the orientation flip of the
    normal), so it restores the F > 0 convention where F < 0.
    """
    u_min, u_max, v_min, v_max = provider.domain
    reversed_singular = None
    if provider.singular_set is not None:
        inner_singular = provider.singular_set
        reversed_singular = lambda u, v: inner_singular(-u, v)

    def jet(u, v):
        j = provider.jet(-np.asarray(u, dtype=float), v)
        return SurfaceJet2(x=j.x, x_u=-j.x_u, x_v=j.x_v,
                           x_uu=j.x_uu, x_uv=-j.x_uv, x_vv=j.x_vv)

    return SurfaceProvider(jet=jet, domain=(-u_max, -u_min, v_min, v_max),
                           singular_set=reversed_singular,
                           stencil_margin=provider.stencil_margin)


def renumber_if_needed(provider, u0, v0):
    """Enforce the F > 0 convention at the base point.

    Returns (provider, reversed).  F is symmetric in (x_u, x_v), so a
    numeration swap cannot change its sign; when F(u0, v0) < 0 the u
    direction is reversed instead (an isotropic change with u'v' < 0, which
    maps F to -F), and the caller must use the base point (-u0, v0)
    afterwards.
    """
    fd = fundamental_forms(provider(u0, v0))
    if float(fd.F) < 0.0:
        return reverse_u(provider), True
    return provider, False
