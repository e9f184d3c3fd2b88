"""Rectangular parameter charts carrying sampled scalar fields.

A :class:`Chart` stores F and H (optionally L, M, N, K) on a rectangular
grid together with the base point indices and the signs eps1, eps2.  Field
arrays are indexed [i, j] with axis 0 <-> u and axis 1 <-> v; the on-disk
layout (row index = v) is handled by :mod:`lorsurf.chartio`.
:meth:`Chart.interpolator` resamples a field with the numpy bicubic
not-a-knot interpolant of :mod:`lorsurf.splines`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (ChartError, DegenerateMetricError, DomainError, NotGeneralTypeError,
                     NotLorentzSurfaceError, negligible, node_at, refuse)
from .splines import grid_interpolant
from .stencils import _BLOCK, check_grid
from .surfaces import KIND_TOL, fundamental_forms

__all__ = ["Chart", "grid_index", "grid_through", "base_signs", "chart_from_provider"]

_OPTIONAL_FIELDS = ("L", "M", "N", "K")


# the relative size, against the span of a grid, within which a value is a node
NODE_TOL = 1e-9


def same_node(a, b, span):
    """The "same node" rule: a and b name one node of a grid spanning `span` where
    a - b is negligible against span at NODE_TOL (never at a NaN)."""
    return negligible(np.subtract(a, b), span, NODE_TOL)


def grid_index(grid, value, name="grid"):
    """Index of `value` in a coordinate array; it must be a node (so it is finite)."""
    grid = np.asarray(grid, dtype=float)
    i = int(np.argmin(np.abs(grid - value)))
    if not same_node(grid[i], value, grid[-1] - grid[0]):
        raise DomainError(f"{name}: base value {float(value)!r} is not a grid node")
    return i


def grid_through(base, lo, hi, n):
    """Uniform grid of about n nodes on [lo, hi] containing `base` as a node.

    It has n - 1 or n nodes, so at least 2 for n >= 3; n = 2 gives one node
    unless `base` is an end of the range.  This is the canonical grid of
    `lorsurf canonicalize`, through the image of the base point.
    """
    h = (hi - lo) / (n - 1)
    k1 = int(np.floor((base - lo) / h + 1e-12))
    k2 = int(np.floor((hi - base) / h + 1e-12))
    return base + h * np.arange(-k1, k2 + 1)


def base_signs(L0, M0, N0):
    """(eps1, eps2), the signs of L and N at a base point in null coordinates; None if
    LN = (H^2 - K) F^2 is negligible against M^2 + |M^2 - LN| = (H^2 + |K|) F^2 at KIND_TOL:
    not of general type there (kind_field's rule), so no canonical coordinates based there."""
    LN, M2 = L0 * N0, M0 * M0
    if negligible(LN, M2 + abs(M2 - LN), KIND_TOL):
        return None
    return int(np.sign(L0)), int(np.sign(N0))


@dataclass
class Chart:
    u_grid: np.ndarray
    v_grid: np.ndarray
    F: np.ndarray
    H: np.ndarray
    u0_index: int
    v0_index: int
    eps1: int
    eps2: int
    L: Optional[np.ndarray] = None
    M: Optional[np.ndarray] = None
    N: Optional[np.ndarray] = None
    K: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    @property
    def u0(self):
        return float(self.u_grid[self.u0_index])

    @property
    def v0(self):
        return float(self.v_grid[self.v0_index])

    @property
    def shape(self):
        return (self.u_grid.size, self.v_grid.size)

    def validate(self):
        """Check grid monotonicity, shapes, finiteness, F > 0 and eps values."""
        self.u_grid = check_grid(self.u_grid, "u_grid")
        self.v_grid = check_grid(self.v_grid, "v_grid")
        shape = self.shape
        u = self.u_grid[:, None]
        for name in ("F", "H") + _OPTIONAL_FIELDS:
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ChartError(f"field {name} has shape {arr.shape}, expected {shape}")
            refuse(ChartError, ~np.isfinite(arr), f"field {name} is non-finite", u, self.v_grid)
            setattr(self, name, arr)
        refuse(ChartError, self.F <= 0.0, "F must be positive everywhere", u, self.v_grid)
        if not (0 <= self.u0_index < shape[0] and 0 <= self.v0_index < shape[1]):
            raise ChartError("base point indices outside the grid")
        if self.eps1 not in (-1, 1) or self.eps2 not in (-1, 1):
            raise ChartError("eps1 and eps2 must be +1 or -1")
        return self

    def with_fields(self, **kwargs):
        return replace(self, **kwargs)

    def interpolator(self, name):
        """Bicubic not-a-knot interpolant of a stored field (lorsurf.splines.grid_interpolant).

        It is a function of increasing u and v arrays returning the field on
        their grid; with 2 or 3 nodes on an axis its degree there is 1 or 2.
        """
        arr = getattr(self, name)
        if arr is None:
            raise ChartError(f"chart has no field {name}")
        return grid_interpolant(self.u_grid, self.v_grid, arr)


def _signed_chart(u_grid, v_grid, i0, j0, **fields):
    """The validated chart of `fields` based at node (i0, j0), with eps1, eps2 = base_signs;
    NotGeneralTypeError names the node when L or N vanishes there."""
    signs = base_signs(*(fields[k][i0, j0] for k in "LMN"))
    if signs is None:
        raise NotGeneralTypeError(
            f"L or N vanishes at the base point {node_at(u_grid, v_grid, i0, j0)}", node=(i0, j0))
    return Chart(u_grid=u_grid, v_grid=v_grid, u0_index=i0, v0_index=j0,
                 eps1=signs[0], eps2=signs[1], **fields).validate()


def chart_from_provider(provider, u_grid, v_grid, u0, v0):
    """Sample a provider's fundamental forms into a chart.

    The grid must avoid the provider's domain boundary and singular set.
    eps1, eps2 are the signs of L and N at the base point (see base_signs),
    where the surface must be of general type.  The provider and the
    forms run on blocks of _BLOCK grid rows, and an error inside a block
    names its full-grid node, so the first failing block decides.
    """
    u_grid = check_grid(np.asarray(u_grid, dtype=float), "u_grid")
    v_grid = check_grid(np.asarray(v_grid, dtype=float), "v_grid")
    i0 = grid_index(u_grid, u0, "u_grid")
    j0 = grid_index(v_grid, v0, "v_grid")
    names = ("F", "H", "L", "M", "N", "K")
    fields = {name: np.empty((u_grid.size, v_grid.size)) for name in names}
    for start in range(0, u_grid.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        U, V = np.meshgrid(u_grid[rows], v_grid, indexing="ij")
        try:
            fd = fundamental_forms(provider(U, V))
        except (DomainError, DegenerateMetricError, NotLorentzSurfaceError) as exc:
            raise exc.at(u_grid, v_grid, start, 0, "grid node") from None
        for name in names:
            fields[name][rows] = getattr(fd, name)
    return _signed_chart(u_grid, v_grid, i0, j0, **fields)
