"""Numerical laboratory for cotype functionals on discrete tori.

Measures shift-versus-edge energy ratios for maps of Z_m^n into finite
metric spaces and normed targets, verifies the finite inequalities that
govern them, and reproduces the embedding and distortion consequences
at desk scale.
"""
from .checks import CSV_COLUMNS, InequalityCheck, make_check
from .cotype import (
    BReport,
    CotypeReport,
    ScanResult,
    b_functionals,
    b_quantity_search,
    contraction_principle_check,
    contraction_rhs_bound,
    cotype_functionals,
    edge_sum_check,
    exhaustive_b,
    expected_random_gamma,
    gamma_exhaustive_two_point,
    gamma_hilbert_exact,
    gamma_search,
    grid_distortion_bound,
    hilbert_gamma_power_iteration,
    linear_exponential_witness,
    m_parameter_experiment,
    mod_inequality_check,
    random_two_point_mc,
    shift_growth_bound,
    tensor_submultiplicativity_check,
)
from .embeddings import (
    GeodesicPath,
    VSet,
    coarse_obstruction_check,
    diag_geodesic_through,
    extract_grid,
    frechet_cycle,
    grid_lower_bound_check,
    grid_to_torus,
    sparse_anchors,
    sparse_frechet_cycle,
    torus_to_grid_full,
)
from .errors import (
    AlphaOutOfRangeError,
    AsymmetryError,
    BudgetExceededError,
    CotypeLabError,
    DimensionMismatchError,
    EmptySeriesError,
    EvenKError,
    HypothesisFailedError,
    InvariantViolationError,
    KTooLargeError,
    MetricValidationError,
    NegativeDistanceError,
    NonFiniteValuesError,
    NonzeroDiagonalError,
    NotFoundError,
    NotInjectiveError,
    OddEllError,
    OddMError,
    PreconditionViolationError,
    SchemaViolationError,
    TriangleViolationError,
    UnknownCommandError,
    UnreachableError,
    ZeroOffDiagonalError,
)
from .gridops import random_point_values, random_vector_values, sign_patterns
from .harmonic import (
    GridFunction,
    SpectralCoefficients,
    avg_others,
    central_diff,
    edge_diff,
    fourier_forward,
    fourier_inverse,
    parseval_residual,
    rad_identity_residual,
    roundtrip_residual,
    scale_of,
    symbol_avg_others,
    symbol_central_diff,
    symbol_edge_diff,
    walsh_char,
)
from .plotting import emit_plot
from .smoothing import (
    SmoothingIndexSet,
    adversarial_approx_search,
    adversarial_cancellation_search,
    check_lemma_approx,
    check_lemma_cancellation,
    check_lemma_cancellation_all,
    smoothing_apply,
    smoothing_set,
)
from .spaces import (
    EmbeddingRecord,
    FiniteMetricSpace,
    ModuliTables,
    TorusDomain,
    diag_distance,
    distortion,
    grid_points,
    load_metric_space,
    moduli,
    points_space,
    snowflake,
    torus_space,
    two_point_space,
    validate_metric,
)
from .targets import NormTarget, as_target
from .verify import (
    cotype_suite,
    embeddings_suite,
    harmonic_suite,
    run_suite,
    smoothing_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
