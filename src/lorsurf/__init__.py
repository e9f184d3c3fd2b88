"""Lorentz surfaces in Minkowski 3-space.

Numerical toolkit for surfaces with indefinite induced metric in R^3_1,
parametrized by null (isotropic) coordinates: fundamental forms and
curvature invariants, canonical coordinates built by quadrature, residuals
of the natural integro-differential equation linking F and H, and
constructive reconstruction of a surface from (F, H, eps1, eps2) through
its Frenet-type frame system.
"""

from .canonical import (
    CANONICAL_TOL,
    CanonicalReport,
    MonotoneMap,
    canonical_gauge_transform,
    canonical_maps,
    canonical_maps_from_lines,
    reparametrize_provider,
    resample_to_canonical,
    verify_canonical,
)
from .chart import Chart, chart_from_provider, grid_index, grid_through
from .chartio import read_chart, write_chart, write_mesh_csv, write_mesh_obj
from .corpus import get, names, reference_chart
from .errors import (
    ChartError,
    DegenerateMetricError,
    DomainError,
    InvalidFrameError,
    LorsurfError,
    MapRangeError,
    NaturalEquationError,
    NotGeneralTypeError,
    NotLorentzSurfaceError,
    ReconstructionAbort,
    StencilError,
    UnknownSurfaceError,
)
from .minkowski import (
    boost,
    cross,
    det3,
    inner,
    spatial_rotation,
    vec,
)
from .natural import (
    MIN_ORDER,
    REL_TOL,
    F_from_K_cmc,
    ResidualReport,
    accumulate_LN,
    cmc_residual,
    convergence_order,
    minimal_residual,
    natural_residual,
)
from .reconstruct import (
    CongruenceReport,
    CongruenceVerdict,
    FrameState,
    ReconstructionResult,
    cmc_pair,
    congruence_check,
    initial_frame,
    minimal_from_K,
    reconstruct,
)
from .surfaces import (
    ISO_TOL,
    FundamentalData,
    SurfaceJet2,
    SurfaceKind,
    SurfaceProvider,
    fundamental_forms,
    is_isotropic,
    is_minimal,
    jet_from_position,
    jets_from_mesh,
    kind_field,
    swap_parameters,
)

__version__ = "0.1.0"
