"""Repeated-interaction quantum systems: exact dynamics, van Hove limits, asymptotics."""

from .linops import (
    BranchCutCollisionError,
    Superoperator,
    kron,
    largest_gap_bisector,
    matrix_exp,
    superop_norm,
)
from .dynamics import (
    ChainState,
    H1Report,
    NoAsymptoticStateError,
    RISModel,
    check_H1,
    dyson_check,
    dyson_term,
    dyson_term_quadrature,
    dyson_truncation_bound,
    gibbs_state,
    interaction_dynamics,
    reduced_map_T,
    restricted_dynamics,
    system_free_evolution,
)
from .vanhove import (
    ConvergenceReport,
    EffectiveGenerator,
    converge_lambda,
    converge_lambda_interpolated,
    converge_tau,
    effective_generator_fast_repetition,
    effective_generator_weak_coupling,
    second_order_term,
)
from .asymptotic import (
    AsymptoticReport,
    JordanDefectError,
    KatoReport,
    LimitProjection,
    asymptotic_periodic_state,
    effective_asymptotic_state,
    kato_structure_check,
    limit_projection,
    trace_distance,
)
from .spin import (
    SpinParams,
    build_spin_model,
    closed_form_deltas,
    fast_repetition_deltas,
    spin_asymptotic_state,
)

__version__ = "0.1.0"
