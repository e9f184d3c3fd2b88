"""Two-jets of parametrized surfaces and their fundamental forms.

A surface is supplied as a :class:`SurfaceProvider`: a callable returning
the position and all partials up to second order at (u, v), plus a
rectangular domain and an optional singular-set predicate.  Analytic
providers come from :mod:`lorsurf.corpus`; purely positional surfaces are
wrapped by :func:`jet_from_position`, which differentiates by central
finite differences.

All computations broadcast: scalar (u, v) give scalar coefficient fields,
meshgrid input gives coefficient arrays.  The grid jets of a sampled mesh
(:func:`jets_from_mesh`) are held component-major, and
:func:`fundamental_forms` computes on component planes; both keep every
floating-point operation of the component-last formulas in its order, so
the forms are the same bits.
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
    NotLorentzSurfaceError,
    negligible,
    refuse,
)
from .stencils import _diffs, _stencils, check_grid

__all__ = [
    "SurfaceJet2",
    "FundamentalData",
    "SurfaceProvider",
    "jet_from_position",
    "jets_from_mesh",
    "fundamental_forms",
    "SurfaceKind",
    "kind_field",
    "is_minimal",
    "ISO_TOL",
    "is_isotropic",
    "swap_parameters",
]

KIND_TOL = 1e-8  # the relative size at which H^2 - K vanishes against H^2 + |K|
ISO_TOL = 1e-8  # the relative size at which E and G vanish and F does not (is_isotropic)
# the relative size, against max(|E|, |F|, |G|)^2, at which fundamental_forms finds
# EG - F^2 vanishing or <w, w> not positive
METRIC_TOL = 1e-12


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
        self.check(u, v)
        return self.jet(u, v)

    def check(self, u, v):
        """DomainError at the first point outside the domain or on the singular set."""
        self.check_domain(u, v)
        if self.singular_set is not None:
            refuse(DomainError, self.singular_set(u, v), "evaluation on singular set", u, v)

    def check_domain(self, u, v):
        """DomainError at the first point outside the domain box, less the stencil margin."""
        u_min, u_max, v_min, v_max = self.domain
        m = self.stencil_margin
        bad = (u < u_min + m) | (u > u_max - m) | (v < v_min + m) | (v > v_max - m)
        refuse(DomainError, bad, f"evaluation outside domain {self.domain}", u, v)

    def singular_nodes(self, u_grid, v_grid):
        """Indices (i, j) of grid nodes hitting the singular set."""
        if self.singular_set is None:
            return np.empty((0, 2), dtype=int)
        U, V = np.meshgrid(u_grid, v_grid, indexing="ij")
        return np.argwhere(np.asarray(self.singular_set(U, V)))


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
    comparisons should restrict to the interior.  The mesh is copied once
    into component planes (3, nu, nv); x_u and x_uu come from one set of
    node differences along u, x_v and x_vv from one set along v, and x_uv
    is the v-derivative of x_u.  The derivatives are (nu, nv, 3) views of
    component-major arrays, the same bits as gradient and second_derivative
    of the mesh give.
    """
    mesh = np.asarray(mesh, dtype=float)
    u = check_grid(u_grid, "u_grid", 3)
    v = check_grid(v_grid, "v_grid", 3)
    if mesh.shape != (u.size, v.size, 3):
        raise ValueError(f"mesh shape {mesh.shape} does not match grid {(u.size, v.size, 3)}")
    planes = np.moveaxis(mesh, -1, 0).copy()
    # the u differences come before the outputs, as in gradient: the other order
    # places the heap so that recon-801's peak RSS rose ~5 MB with the same allocations
    diffs_u = _diffs(planes, u, 1)
    x_u, x_v, x_uu, x_uv, x_vv = jets = np.empty((5,) + planes.shape)
    _stencils(diffs_u, 1, first=x_u, second=x_uu)
    del diffs_u
    _stencils(_diffs(planes, v, 2), 2, first=x_v, second=x_vv)
    _stencils(_diffs(x_u, v, 2), 2, first=x_uv)
    return SurfaceJet2(mesh, *np.moveaxis(jets, 1, -1))


def fundamental_forms(jet):
    """Fundamental form coefficients, unit normal and invariants from a 2-jet.

    Requires a Lorentz surface point: x_u, x_v independent with spacelike
    normal direction, i.e. <w, w> > 0 for w = cross(x_u, x_v).  With s =
    max(|E|, |F|, |G|), DegenerateMetricError names the first node where
    EG - F^2 is negligible against s^2 at METRIC_TOL, and
    NotLorentzSurfaceError the first where <w, w> <= METRIC_TOL * s^2.
    K and H use the general-coordinate formulas; in null coordinates they reduce to
    K = (M^2 - LN)/F^2 and H = M/F.  The products run on component planes
    (views with the component axis first), so the jets of jets_from_mesh are
    read contiguously; the unit normal l is a (..., 3) view of its planes.
    """
    for name in ("x", "x_u", "x_v", "x_uu", "x_uv", "x_vv"):
        if not np.all(np.isfinite(getattr(jet, name))):
            raise ValueError(f"non-finite values in jet field {name}")
    x_u, x_v, x_uu, x_uv, x_vv = (np.moveaxis(np.asarray(getattr(jet, name), dtype=float), -1, 0)
                                  for name in ("x_u", "x_v", "x_uu", "x_uv", "x_vv"))
    E = mk.inner_planes(x_u, x_u)
    F = mk.inner_planes(x_u, x_v)
    G = mk.inner_planes(x_v, x_v)
    w = mk.cross_planes(x_u, x_v)
    ww = mk.inner_planes(w, w)  # equals F^2 - EG by the Lagrange identity
    scale = np.maximum(np.abs(E), np.maximum(np.abs(F), np.abs(G)))
    disc = E * G - F * F
    refuse(DegenerateMetricError, negligible(disc, scale**2, METRIC_TOL), "EG - F^2 vanishes")
    refuse(NotLorentzSurfaceError, ww <= METRIC_TOL * scale**2, "normal direction not spacelike")
    l = w
    l /= np.sqrt(ww)
    L = mk.inner_planes(x_uu, l)
    M = mk.inner_planes(x_uv, l)
    N = mk.inner_planes(x_vv, l)
    K = (L * N - M * M) / disc
    H = (E * N - 2.0 * F * M + G * L) / (2.0 * disc)
    return FundamentalData(E=E, F=F, G=G, L=L, M=M, N=N, K=K, H=H, l=np.moveaxis(l, 0, -1))


class SurfaceKind(Enum):
    FIRST = "general_first_kind"
    SECOND = "general_second_kind"
    DEGENERATE = "not_general_type"

    @classmethod
    def of(cls, code):
        """The kind that kind_field encodes as +1, -1 or 0."""
        return {1: cls.FIRST, -1: cls.SECOND, 0: cls.DEGENERATE}[int(code)]


def _curvature_scale(H, K):
    """H^2 + |K|, the scale of H^2 - K and of K; its square root is the scale of H."""
    return H**2 + np.abs(K)


def kind_field(H, K):
    """The kind of each node: +1 first kind, -1 second kind, 0 not of general type.

    The one test of the paper's condition H^2 - K != 0: 0 where H^2 - K is
    negligible against H^2 + |K| at KIND_TOL, or is NaN.  H and K broadcast
    (a scalar H with a K field).
    """
    H, K = np.asarray(H, dtype=float), np.asarray(K, dtype=float)
    h2k = H**2 - K
    zero = negligible(h2k, _curvature_scale(H, K), KIND_TOL) | np.isnan(h2k)
    return np.where(zero, 0, np.sign(h2k)).astype(np.int8)


def is_minimal(H, K):
    """True when H = 0 on the whole field: max|H| is negligible against
    max sqrt(H^2 + |K|).  H and K broadcast; this is a minimal surface."""
    return bool(negligible(np.max(np.abs(H)), np.sqrt(np.max(_curvature_scale(H, K)))))


def is_isotropic(fd, jet):
    """Elementwise test for null coordinates at ISO_TOL: E, G negligible against |x_u|^2,
    |x_v|^2 (Euclidean jet lengths), and F positive and not negligible against |x_u||x_v|."""
    a, b = (np.linalg.norm(t, axis=-1) for t in (jet.x_u, jet.x_v))
    return (negligible(fd.E, a * a, ISO_TOL) & negligible(fd.G, b * b, ISO_TOL) & (fd.F > 0.0)
            & ~negligible(fd.F, a * b, ISO_TOL))


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
