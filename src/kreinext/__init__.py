"""Self-adjoint extensions of restricted operators with finite boundary data.

Builds the Weyl family and deficiency maps of interval, metric-graph,
point-interaction and spin point-interaction models, evaluates the Krein
resolvent of any extension labelled by a (projector, operator) pair,
converts among the equivalent extension parametrizations, and computes
point spectra with eigenfunctions, validated against independent
finite-difference and closed-form oracles.
"""

from .krein import (
    ExcludedPointError,
    ExtensionParams,
    ExtensionSingularError,
    GreenCombination,
    ModelConsistencyError,
    Resolvent,
    UnsupportedModelError,
    ValidationReport,
    WeylSystem,
    apply_resolvent,
    apply_resolvent_green,
    green_norm,
    krein_correction,
    secular_matrix,
    validate_params,
)
from .models import (
    DirichletExclusions,
    EdgeWeylSystem,
    GraphModel,
    GridMismatchError,
    GridTooCoarseError,
    HalfLineExclusions,
    IntervalModel,
    PointModel,
    PointWeylSystem,
    SampledKernels,
    SmoothFunction,
    SpinPointModel,
    VertexGroup,
    cosine_mode,
    graph_weyl,
    interval_weyl,
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
    simpson_gram,
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
    relation_gap,
    defect_gram,
    von_neumann_block,
)
from .spectral import (
    EigenpairReport,
    EigenResult,
    SpectrumResult,
    eigenfunction,
    eigenvalue_search,
    validate_eigenpair,
)
from .verify import (
    BoundaryReport,
    boundary_condition_residuals,
    conjugation_residual,
    difference_identity_residual,
    green_identity_residual,
)

__version__ = "0.1.0"
