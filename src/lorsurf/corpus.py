"""Reference Lorentz surfaces with hand-differentiated 2-jets and closed forms.

Six null-parametrized surfaces serve as regression oracles: two minimal
Enneper-type surfaces (first and second kind), the Lorentz sphere (constant
mean curvature but degenerate, H^2 = K), the two constant-mean-curvature
cylinders forming a Bonnet pair, and a hyperbolic cone with non-constant
mean curvature whose canonicalization is known in closed form.

Jets are explicit closed-form derivatives, not finite differences, so the
corpus is an independent oracle for the numerical machinery.  All entries
satisfy E = G = 0 identically on their domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import _signed_chart, grid_index
from .errors import UnknownSurfaceError
from .minkowski import vec
from .stencils import check_grid
from .surfaces import SurfaceJet2, SurfaceKind, SurfaceProvider

__all__ = ["ReferenceForms", "CorpusEntry", "names", "get", "reference_chart"]

_SQRT3 = np.sqrt(3.0)


def _field(fn):
    """Vectorize a closed form on broadcasting (u, v), e.g. a grid's open axes.

    A field that varies over the broadcast shape of u and v is a new array;
    one that does not (a constant) is a read-only np.broadcast_to view of
    that shape, with zero strides and no buffer of its own.
    """
    def g(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        f = np.asarray(fn(u, v), dtype=float)
        shape = np.broadcast_shapes(u.shape, v.shape)
        return f if f.shape == shape else np.broadcast_to(f, shape)
    return g


@dataclass
class ReferenceForms:
    """Closed-form coefficient fields; E and G vanish identically."""

    F: Callable
    L: Callable
    M: Callable
    N: Callable
    K: Callable
    H: Callable


@dataclass
class CorpusEntry:
    name: str
    position: Callable
    provider: SurfaceProvider
    reference: ReferenceForms
    default_domain: tuple
    kind: SurfaceKind
    notes: str


# -- Enneper-type minimal surface of the first kind --------------------------

def _enneper1_pos(u, v):
    u3, v3 = u**3, v**3  # once each: numpy's power is slow on negative bases
    return vec((u3 - v3 + 3 * u - 3 * v) / 6.0,
               (-u3 + v3 + 3 * u - 3 * v) / 6.0,
               (u * u - v * v) / 2.0)


def _enneper1_jet(u, v):
    zero = np.zeros_like(np.asarray(u, dtype=float) + np.asarray(v, dtype=float))
    return SurfaceJet2(
        x=_enneper1_pos(u, v),
        x_u=vec((u * u + 1) / 2.0, (1 - u * u) / 2.0, u + zero),
        x_v=vec(-(v * v + 1) / 2.0, (v * v - 1) / 2.0, -v + zero),
        x_uu=vec(u + zero, -u + zero, 1.0 + zero),
        x_uv=vec(zero, zero, zero),
        x_vv=vec(-v + zero, v + zero, -1.0 + zero))


# -- Enneper-type minimal surface of the second kind -------------------------

def _enneper2_pos(u, v):
    u3, v3 = u**3, v**3  # once each: numpy's power is slow on negative bases
    return vec((u3 - v3 + 3 * u - 3 * v) / 6.0,
               (-u3 + v3 + 3 * u - 3 * v) / 6.0,
               (u * u + v * v) / 2.0)


def _enneper2_jet(u, v):
    zero = np.zeros_like(np.asarray(u, dtype=float) + np.asarray(v, dtype=float))
    return SurfaceJet2(
        x=_enneper2_pos(u, v),
        x_u=vec((u * u + 1) / 2.0, (1 - u * u) / 2.0, u + zero),
        x_v=vec(-(v * v + 1) / 2.0, (v * v - 1) / 2.0, v + zero),
        x_uu=vec(u + zero, -u + zero, 1.0 + zero),
        x_uv=vec(zero, zero, zero),
        x_vv=vec(-v + zero, v + zero, 1.0 + zero))


# -- Lorentz sphere (CMC, H^2 - K = 0) ----------------------------------------

def _sphere_pos(u, v):
    p, q = u - v, u + v
    S = 1.0 / np.cosh(q)
    return vec(np.sinh(p) * S, np.cosh(p) * S, np.tanh(q))


def _sphere_jet(u, v):
    p, q = u - v, u + v
    S = 1.0 / np.cosh(q)
    T = np.tanh(q)
    sh, ch = np.sinh(p), np.cosh(p)
    return SurfaceJet2(
        x=_sphere_pos(u, v),
        x_u=vec(S * (ch - sh * T), S * (sh - ch * T), S * S),
        x_v=vec(S * (-ch - sh * T), S * (-sh - ch * T), S * S),
        x_uu=vec(2 * S * T * (T * sh - ch), 2 * S * T * (T * ch - sh), -2 * S * S * T),
        x_uv=vec(-2 * S**3 * sh, -2 * S**3 * ch, -2 * S * S * T),
        x_vv=vec(2 * S * T * (T * sh + ch), 2 * S * T * (T * ch + sh), -2 * S * S * T))


# -- Lorentz cylinder (CMC pair member with L = M = N = 1) --------------------

def _cylinder_pos(u, v):
    q = u + v
    return vec(u - v, np.cos(q), np.sin(q))


def _cylinder_jet(u, v):
    q = u + v
    s, c = np.sin(q), np.cos(q)
    one = np.ones_like(q)
    d2 = vec(0.0 * q, -c, -s)
    return SurfaceJet2(
        x=_cylinder_pos(u, v),
        x_u=vec(one, -s, c),
        x_v=vec(-one, -s, c),
        x_uu=d2, x_uv=d2, x_vv=d2)


# -- Hyperbolic cylinder (CMC pair member with L = N = -1, M = 1) -------------

def _hcylinder_pos(u, v):
    p = u - v
    return vec(np.sinh(p), np.cosh(p), u + v)


def _hcylinder_jet(u, v):
    p = u - v
    sh, ch = np.sinh(p), np.cosh(p)
    one = np.ones_like(p)
    zero = np.zeros_like(p)
    return SurfaceJet2(
        x=_hcylinder_pos(u, v),
        x_u=vec(ch, sh, one),
        x_v=vec(-ch, -sh, one),
        x_uu=vec(sh, ch, zero),
        x_uv=vec(-sh, -ch, zero),
        x_vv=vec(sh, ch, zero))


# -- Hyperbolic cone (non-constant H; canonicalization known in closed form) --

def _cone_pos(u, v):
    p, q = u - v, u + v
    A = np.exp(q / 2.0)
    return vec(A * np.sinh(p), _SQRT3 * A, A * np.cosh(p))


def _cone_jet(u, v):
    p, q = u - v, u + v
    A = np.exp(q / 2.0)
    sh, ch = np.sinh(p), np.cosh(p)
    return SurfaceJet2(
        x=_cone_pos(u, v),
        x_u=vec(A * (sh / 2 + ch), _SQRT3 * A / 2, A * (ch / 2 + sh)),
        x_v=vec(A * (sh / 2 - ch), _SQRT3 * A / 2, A * (ch / 2 - sh)),
        x_uu=vec(A * (5 * sh / 4 + ch), _SQRT3 * A / 4, A * (5 * ch / 4 + sh)),
        x_uv=vec(-3 * A * sh / 4, _SQRT3 * A / 4, -3 * A * ch / 4),
        x_vv=vec(A * (5 * sh / 4 - ch), _SQRT3 * A / 4, A * (5 * ch / 4 - sh)))


_PROVIDER_BOX = (-50.0, 50.0, -50.0, 50.0)  # parametrizations are global; the
                                            # default_domain is only the recommended box


def _entry(name, pos, jet, domain, reference, kind, notes, singular=None):
    provider = SurfaceProvider(jet=jet, domain=_PROVIDER_BOX, singular_set=singular)
    return CorpusEntry(name=name, position=pos, provider=provider,
                       reference=reference, default_domain=domain, kind=kind, notes=notes)


_SING_BAND = 1e-6  # guard band around lines where F vanishes

_REGISTRY = {
    "enneper1": _entry(
        "enneper1", _enneper1_pos, _enneper1_jet, (1.0, 2.0, -1.0, 0.0),
        ReferenceForms(
            F=_field(lambda u, v: 0.5 * (u - v) ** 2),
            L=_field(lambda u, v: 1.0),
            M=_field(lambda u, v: 0.0),
            N=_field(lambda u, v: 1.0),
            K=_field(lambda u, v: -4.0 / (u - v) ** 4),
            H=_field(lambda u, v: 0.0)),
        SurfaceKind.FIRST,
        "minimal Enneper-type surface; coordinates already canonical (L = N = 1)",
        singular=lambda u, v: np.abs(u - v) <= _SING_BAND),
    "enneper2": _entry(
        "enneper2", _enneper2_pos, _enneper2_jet, (0.5, 1.5, 0.5, 1.5),
        ReferenceForms(
            F=_field(lambda u, v: 0.5 * (u + v) ** 2),
            L=_field(lambda u, v: 1.0),
            M=_field(lambda u, v: 0.0),
            N=_field(lambda u, v: -1.0),
            K=_field(lambda u, v: 4.0 / (u + v) ** 4),
            H=_field(lambda u, v: 0.0)),
        SurfaceKind.SECOND,
        "minimal Enneper-type surface of second kind; canonical with L = 1, N = -1",
        singular=lambda u, v: np.abs(u + v) <= _SING_BAND),
    "lorentz_sphere": _entry(
        "lorentz_sphere", _sphere_pos, _sphere_jet, (-1.0, 1.0, -1.0, 1.0),
        ReferenceForms(
            F=_field(lambda u, v: 2.0 / np.cosh(u + v) ** 2),
            L=_field(lambda u, v: 0.0),
            M=_field(lambda u, v: 2.0 / np.cosh(u + v) ** 2),
            N=_field(lambda u, v: 0.0),
            K=_field(lambda u, v: 1.0),
            H=_field(lambda u, v: 1.0)),
        SurfaceKind.DEGENERATE,
        "constant mean curvature but H^2 - K = 0: not of general type, no canonical coordinates"),
    "cylinder": _entry(
        "cylinder", _cylinder_pos, _cylinder_jet, (0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi),
        ReferenceForms(
            F=_field(lambda u, v: 2.0),
            L=_field(lambda u, v: 1.0),
            M=_field(lambda u, v: 1.0),
            N=_field(lambda u, v: 1.0),
            K=_field(lambda u, v: 0.0),
            H=_field(lambda u, v: 0.5)),
        SurfaceKind.FIRST,
        "CMC cylinder; the zero solution of the constant-H natural equation (eps = +1, +1)"),
    "hyperbolic_cylinder": _entry(
        "hyperbolic_cylinder", _hcylinder_pos, _hcylinder_jet,
        (0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi),
        ReferenceForms(
            F=_field(lambda u, v: 2.0),
            L=_field(lambda u, v: -1.0),
            M=_field(lambda u, v: 1.0),
            N=_field(lambda u, v: -1.0),
            K=_field(lambda u, v: 0.0),
            H=_field(lambda u, v: 0.5)),
        SurfaceKind.FIRST,
        "second member of the CMC pair sharing (K, H) with the cylinder (eps = -1, -1)"),
    "hyperbolic_cone": _entry(
        "hyperbolic_cone", _cone_pos, _cone_jet, (-1.0, 1.0, -1.0, 1.0),
        ReferenceForms(
            F=_field(lambda u, v: 2.0 * np.exp(u + v)),
            L=_field(lambda u, v: 0.5 * _SQRT3 * np.exp(0.5 * (u + v))),
            M=_field(lambda u, v: -0.5 * _SQRT3 * np.exp(0.5 * (u + v))),
            N=_field(lambda u, v: 0.5 * _SQRT3 * np.exp(0.5 * (u + v))),
            K=_field(lambda u, v: 0.0),
            H=_field(lambda u, v: -0.25 * _SQRT3 * np.exp(-0.5 * (u + v)))),
        SurfaceKind.FIRST,
        "non-constant mean curvature; raw coordinates not canonical, closed-form canonicalization known"),
}


def names():
    return list(_REGISTRY)


def get(name):
    """Look up a corpus entry by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSurfaceError(
            f"unknown surface {name!r}; available: {', '.join(_REGISTRY)}") from None


def reference_chart(name, u_grid, v_grid, u0=None, v0=None):
    """Sample an entry's closed-form fields onto a chart (exact at nodes).

    The grid must lie in the entry's domain and avoid its singular set (the
    provider's DomainError).  eps1, eps2 come from the signs
    of the reference L and N at the base point, which defaults to the grid
    node nearest the domain center.  The closed forms are evaluated on the
    grid's open axes, so a constant field is a read-only zero-stride view
    (see _field): copy it before writing into it.
    """
    entry = get(name)
    u_grid = check_grid(np.asarray(u_grid, dtype=float), "u_grid")
    v_grid = check_grid(np.asarray(v_grid, dtype=float), "v_grid")
    U, V = u_grid[:, None], v_grid[None, :]
    entry.provider.check(U, V)
    i0 = (u_grid.size - 1) // 2 if u0 is None else grid_index(u_grid, u0, "u_grid")
    j0 = (v_grid.size - 1) // 2 if v0 is None else grid_index(v_grid, v0, "v_grid")
    ref = entry.reference
    return _signed_chart(u_grid, v_grid, i0, j0, F=ref.F(U, V), H=ref.H(U, V), L=ref.L(U, V),
                         M=ref.M(U, V), N=ref.N(U, V), K=ref.K(U, V), metadata={"source": name})
