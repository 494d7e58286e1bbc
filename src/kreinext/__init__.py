"""Self-adjoint extensions of restricted operators with finite boundary data.

Builds the Weyl family and deficiency maps of interval, metric-graph,
point-interaction and spin point-interaction models, evaluates the Krein
resolvent of any extension labelled by a (projector, operator) pair,
converts among the equivalent extension parametrizations, and computes
point spectra with eigenfunctions, validated against independent
finite-difference and closed-form oracles.
"""

from .krein import (
    BoundaryReport,
    DirichletExclusions,
    ExcludedPointError,
    ExtensionParams,
    ExtensionSingularError,
    GreenCombination,
    GridTooCoarseError,
    HalfLineExclusions,
    ModelConsistencyError,
    SmoothFunction,
    TraceMaps,
    UnsupportedModelError,
    ValidationReport,
    WeylSystem,
    apply_resolvent,
    apply_resolvent_green,
    boundary_condition_residuals,
    conjugation_residual,
    difference_identity_residual,
    green_identity_residual,
    green_norm,
    is_regular_point,
    kernel_basis,
    krein_correction,
    range_basis,
    secular_matrix,
    validate_params,
)
from .linalg import (
    hermitian_eig,
    min_singular,
    projector_from_span,
)
from .models import (
    GraphModel,
    IntervalModel,
    PointModel,
    SpinPointModel,
    VertexGroup,
    cosine_mode,
    graph_traces,
    graph_weyl,
    interval_green,
    interval_traces,
    interval_weyl,
    point_gamma,
    point_green_regular_part,
    point_renormalized_trace,
    point_weyl,
    poly_bump,
    sine_mode,
    spin_weyl,
    vertex_params,
    zero_function,
)
from .oracle import (
    FDSpec,
    bisect_root,
    fd_graph_spectrum,
    fd_interval_spectrum,
    single_point_eigenvalue,
)
from .parametrize import (
    BoundaryPair,
    PairConditionError,
    PairConditions,
    SelfAdjointRelation,
    VonNeumannBlock,
    check_pair_conditions,
    is_selfadjoint_relation,
    pair_from_params,
    params_from_pair,
    relation_from_pair,
    relation_from_params,
    subspace_equal,
    von_neumann_block,
)
from .spectral import (
    EigenpairReport,
    EigenResult,
    SearchOptions,
    SpectrumResult,
    eigenfunction,
    eigenvalue_search,
    validate_eigenpair,
)

__version__ = "0.1.0"
