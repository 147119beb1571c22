"""Spectral-Galerkin laboratory for a 2D boundary-degenerate wave equation.

The model is phi_tt - Div(A grad phi) = f on the unit square with
A = diag(1, r^alpha), 0 < alpha < 1, homogeneous Dirichlet data.  The
package computes the weighted radial eigenbasis, evolves truncated modal
states exactly in time, certifies Hardy-Poincare constants (including the
logarithmic blow-up of the critical truncated constants), realizes the
Carleman weight identities as grid residuals, and runs boundary
observability experiments around the estimate with interior remainder.
"""

from .carleman import (
    ComponentIntegrals,
    ConjugationReport,
    SmoothModalSolution,
    SmoothMode,
    bessel_mode,
    build_weight_field,
    carleman_component_integrals,
    carleman_constant_scan,
    conjugation_order_study,
    conjugation_residual,
)
from .errors import (
    BetaOutOfRange,
    ConfigError,
    ConvergenceFailure,
    DegenerateCellTouched,
    DegenWaveError,
    DeltaOutOfRange,
    DivergentWeight,
    GridMismatch,
    InsufficientData,
    InvalidMeshSpec,
    NonFiniteReport,
    NonPositiveInput,
    ParameterOutOfRange,
    TimeTooShort,
    TruncationTooSmall,
)
from .hardy import (
    BlowupFit,
    HardyReport,
    best_subcritical_constant,
    blowup_rate_fit,
    critical_truncated_constant,
    exact_critical_constant,
    subcritical_bound,
)
from .observability import (
    EnsembleStats,
    ObservabilityRecord,
    ObstructionScan,
    default_beta,
    default_horizon,
    hidden_trace_stability,
    high_mode_obstruction_scan,
    observability_ratio,
)
from .params import (
    CarlemanParams,
    CutoffSpec,
    DegeneracyParams,
    DomainSpec,
    beta_upper_bound,
    eval_cutoff,
    observation_time_threshold,
    theta_cutoff,
    theta_strips,
    time_cutoff,
    validate_carleman_params,
)
from .radial import (
    RadialBasis,
    RadialMesh,
    WeightedMatrices,
    assemble_weighted_system,
    bessel_radial_mode,
    build_graded_mesh,
    build_log_mesh,
    build_uniform_mesh,
    elliptic_identity_residual,
    refine_smallest_eigenpair,
    solve_eigenpairs,
    solve_radial_basis,
)
from .waves import (
    EnergyReport,
    ModalCoefficients,
    TraceReport,
    cosine_overlap_matrix,
    data_norms,
    duhamel_forcing,
    energy,
    energy_series,
    evolve,
    full_trace_norm_closed,
    modal_state,
    observation_norms,
    project_initial_data,
    random_state,
    sine_overlap_matrix,
)

__version__ = "0.1.0"
