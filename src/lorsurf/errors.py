"""Exception hierarchy shared by all lorsurf modules.

Each class carries the CLI's `exit_code` and the `label` of its message.
"""


class LorsurfError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2
    label = "error"

    def __init__(self, message="", node=None):
        super().__init__(message)
        self.node = node  # plain-int index of the first offending node, when known


class DomainError(LorsurfError):
    """Evaluation requested outside a provider's domain or on its singular set."""


class DegenerateMetricError(LorsurfError):
    """EG - F^2 vanishes: the first fundamental form is degenerate."""


class NotLorentzSurfaceError(LorsurfError):
    """The normal direction is not spacelike (induced metric not Lorentzian)."""


class NotIsotropicError(LorsurfError):
    """Operation requires null coordinates (E = G = 0, F > 0)."""


class NotGeneralTypeError(LorsurfError):
    """L or N vanishes (H^2 - K = 0): no canonical coordinates exist here."""

    exit_code = 1
    label = "not of general type"


class MapRangeError(LorsurfError):
    """Requested target grid lies outside a coordinate map's range."""


class StencilError(LorsurfError):
    """Grid too small for the finite-difference stencils of this operation."""


class DegeneracyError(LorsurfError):
    """|H^2 - K| or |K| below tolerance at some node."""


class InvalidFrameError(LorsurfError):
    """A custom initial frame violates the null-frame conditions."""


class NaturalEquationError(LorsurfError):
    """Input fields violate the natural equation beyond tolerance; refusing."""


class ReconstructionAbort(LorsurfError):
    """Frame integration aborted (F <= 0 or non-finite state)."""

    exit_code = 1
    label = "reconstruction aborted"


class ChartError(LorsurfError):
    """Malformed chart data or chart/report file."""


class UnknownSurfaceError(LorsurfError, KeyError):
    """Corpus lookup with an unknown surface name."""
