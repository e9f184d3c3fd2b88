"""Exception hierarchy shared by all lorsurf modules, and where errors happen.

Each class carries the CLI's `exit_code` and the `label` of its message.
Most errors say that a node breaks a precondition; `refuse` finds the first
such node of a mask and names it, and `LorsurfError.at` moves an error found
on a block of a grid to its node on the full grid.  `within` is the one pass
rule of every verdict, `negligible` the one zero rule, and `finite` the test
that a report trusts its numbers.
"""

import math

import numpy as np

ZERO_TOL = 1e-10  # negligible's default relative size


def finite(x):
    """False if x holds a non-finite float anywhere in its dicts, lists and tuples."""
    if isinstance(x, dict):
        return all(finite(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(finite(v) for v in x)
    return not isinstance(x, float) or math.isfinite(x)


def within(values, tol):
    """The pass rule: every value is finite and <= tol, and tol is finite."""
    return math.isfinite(tol) and all(math.isfinite(x) and x <= tol for x in values)


def relative(x, scale):
    """|x| / scale elementwise, 0 where x = 0 (0 / 0 included): x in units of its scale."""
    x = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x / scale)


def negligible(x, scale, rel=ZERO_TOL):
    """The zero rule: x vanishes where relative(x, scale) <= rel (never at a NaN), with
    `scale` in the units of x at the same node or over the same field (README, "Zero rule")."""
    return relative(x, scale) <= rel


def node_at(u_grid, v_grid, i, j):
    """Name full-grid node (i, j) and its (u, v) for an error message."""
    return f"({i}, {j}), (u, v) = ({float(u_grid[i])!r}, {float(v_grid[j])!r})"


def refuse(cls, bad, reason, u=None, v=None):
    """Raise `cls` at the first True node of the mask `bad`, if there is one.

    The node is a tuple of plain ints.  It is named `at node (i, j), (u, v) =
    (...)` when parameter values u, v that broadcast against `bad` are given,
    and `at index (i, j)` otherwise.
    """
    bad = np.atleast_1d(bad)
    if not bad.any():
        return
    node = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))
    if u is None:
        where = f"index {node}"
    else:
        u, v = (np.broadcast_to(t, bad.shape)[node] for t in (u, v))
        where = f"node {node}, (u, v) = ({float(u)!r}, {float(v)!r})"
    raise cls(f"{reason} at {where}", node=node, reason=reason)


class LorsurfError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2
    label = "error"

    def __init__(self, message="", node=None, reason=None):
        super().__init__(message)
        self.node = node  # plain-int index of the first offending node, when known
        self.reason = message if reason is None else reason  # the message without its place

    def at(self, u_grid, v_grid, di=0, dj=0, what="node"):
        """This error moved to full-grid node node + (di, dj) and named there as `what`."""
        i, j = self.node[0] + di, self.node[1] + dj
        return type(self)(f"{self.reason} at {what} {node_at(u_grid, v_grid, i, j)}",
                          node=(i, j), reason=self.reason)


class DomainError(LorsurfError):
    """Evaluation requested outside a provider's domain or on its singular set."""


class DegenerateMetricError(LorsurfError):
    """EG - F^2 vanishes: the first fundamental form is degenerate."""


class NotLorentzSurfaceError(LorsurfError):
    """The normal direction is not spacelike (induced metric not Lorentzian)."""


class NotGeneralTypeError(LorsurfError):
    """H^2 - K vanishes or changes sign, or L or N vanishes: no canonical coordinates exist."""

    exit_code = 1
    label = "not of general type"


class MapRangeError(LorsurfError):
    """Requested target grid lies outside a coordinate map's range."""


class StencilError(LorsurfError):
    """Grid too small for the finite-difference stencils of this operation."""


class InvalidFrameError(LorsurfError):
    """A custom initial frame violates the null-frame conditions."""


class NaturalEquationError(LorsurfError):
    """Input fields violate the natural equation beyond tolerance: they chart no surface."""

    exit_code = 1
    label = "natural equation violated"


class ReconstructionAbort(LorsurfError):
    """Frame integration aborted (F <= 0 or non-finite state)."""

    exit_code = 1
    label = "reconstruction aborted"


class ChartError(LorsurfError):
    """Malformed chart data or chart/report file."""


class UnknownSurfaceError(LorsurfError, KeyError):
    """Corpus lookup with an unknown surface name."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it
