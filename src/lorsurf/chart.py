"""Rectangular parameter charts carrying sampled scalar fields.

A :class:`Chart` stores F and H (optionally L, M, N, K) on a rectangular
grid together with the base point indices and the signs eps1, eps2.  Field
arrays are indexed [i, j] with axis 0 <-> u and axis 1 <-> v; the on-disk
layout (row index = v) is handled by :mod:`lorsurf.chartio`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ChartError, DomainError, NotGeneralTypeError
from .stencils import check_grid
from .surfaces import fundamental_forms

__all__ = ["Chart", "grid_index", "chart_from_provider"]

_OPTIONAL_FIELDS = ("L", "M", "N", "K")


def grid_index(grid, value, name="grid"):
    """Index of `value` in a coordinate array; it must be a node."""
    grid = np.asarray(grid, dtype=float)
    i = int(np.argmin(np.abs(grid - value)))
    span = grid[-1] - grid[0]
    if abs(grid[i] - value) > 1e-9 * max(span, 1.0):
        raise DomainError(f"{name}: base value {float(value)!r} is not a grid node")
    return i


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
    canonical: bool = False
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
        for name in ("F", "H") + _OPTIONAL_FIELDS:
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ChartError(f"field {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                where = tuple(np.argwhere(~np.isfinite(arr))[0])
                raise ChartError(f"field {name} is non-finite at node {where}")
            setattr(self, name, arr)
        bad = np.argwhere(self.F <= 0.0)
        if bad.size:
            i, j = bad[0]
            raise ChartError(
                f"F must be positive everywhere; F[{i},{j}] = {float(self.F[i, j])!r} "
                f"at (u, v) = ({float(self.u_grid[i])!r}, {float(self.v_grid[j])!r})")
        if not (0 <= self.u0_index < shape[0] and 0 <= self.v0_index < shape[1]):
            raise ChartError("base point indices outside the grid")
        if self.eps1 not in (-1, 1) or self.eps2 not in (-1, 1):
            raise ChartError("eps1 and eps2 must be +1 or -1")
        return self

    def with_fields(self, **kwargs):
        return replace(self, **kwargs)

    def interpolator(self, name):
        """Bicubic spline of a stored field (degree capped by grid size)."""
        from scipy.interpolate import RectBivariateSpline

        arr = getattr(self, name)
        if arr is None:
            raise ChartError(f"chart has no field {name}")
        kx = min(3, self.u_grid.size - 1)
        ky = min(3, self.v_grid.size - 1)
        return RectBivariateSpline(self.u_grid, self.v_grid, arr, kx=kx, ky=ky)


def chart_from_provider(provider, u_grid, v_grid, u0, v0, include_K=True):
    """Sample a provider's fundamental forms into a chart.

    The grid must avoid the provider's singular set.  eps1, eps2 are read
    off as the signs of L and N at the base point; if either vanishes there
    the surface is not of general type at the base point and no chart with
    well-defined signs exists.
    """
    u_grid = check_grid(np.asarray(u_grid, dtype=float), "u_grid")
    v_grid = check_grid(np.asarray(v_grid, dtype=float), "v_grid")
    provider.refuse_singular_nodes(u_grid, v_grid)
    i0 = grid_index(u_grid, u0, "u_grid")
    j0 = grid_index(v_grid, v0, "v_grid")
    U, V = np.meshgrid(u_grid, v_grid, indexing="ij")
    fd = fundamental_forms(provider(U, V))
    scale = 1e-10 * (1.0 + np.abs(fd.L[i0, j0]) + np.abs(fd.N[i0, j0]))
    if abs(fd.L[i0, j0]) <= scale or abs(fd.N[i0, j0]) <= scale:
        raise NotGeneralTypeError(
            f"L or N vanishes at the base point ({float(u_grid[i0])!r}, {float(v_grid[j0])!r})")
    chart = Chart(
        u_grid=u_grid, v_grid=v_grid,
        F=fd.F, H=fd.H, L=fd.L, M=fd.M, N=fd.N,
        K=fd.K if include_K else None,
        u0_index=i0, v0_index=j0,
        eps1=int(np.sign(fd.L[i0, j0])), eps2=int(np.sign(fd.N[i0, j0])))
    return chart.validate()
