"""Repeated-interaction quantum systems: exact dynamics, van Hove limits, asymptotics."""

from .linops import (
    BranchCutCollisionError,
    SpectralCluster,
    SpectralDecomposition,
    Superoperator,
    choi_matrix,
    commutator_superop,
    derivation_superop,
    kron,
    largest_gap_bisector,
    matrix_exp,
    matrix_log_unitary,
    spectral_decompose,
    superop_norm,
)
from .dynamics import (
    ChainState,
    H1Report,
    NoAsymptoticStateError,
    RISModel,
    check_H1,
    dyson_term,
    dyson_term_quadrature,
    dyson_truncation_bound,
    full_generator,
    gibbs_state,
    interaction_dynamics,
    reduced_map_T,
    restricted_dynamics,
    system_free_evolution,
)
from .vanhove import (
    ConvergenceReport,
    EffectiveGenerator,
    cesaro_average,
    converge_lambda,
    converge_lambda_interpolated,
    converge_tau,
    effective_generator_fast_repetition,
    effective_generator_weak_coupling,
    log_generator_A0,
    second_order_term,
    spectral_average,
)
from .asymptotic import (
    AsymptoticReport,
    JordanDefectError,
    KatoReport,
    LimitProjection,
    OrderComparison,
    asymptotic_periodic_state,
    compare_orders,
    effective_asymptotic_state,
    kato_structure_check,
    limit_projection,
    parametrized_tau_experiment,
    peripheral_spectrum,
    trace_distance,
)
from .spin import (
    SpinGeneratorReport,
    SpinParams,
    build_spin_model,
    closed_form_deltas,
    closed_form_generator_checks,
    fast_repetition_deltas,
    spin_asymptotic_state,
)

__version__ = "0.1.0"
