"""Robust quantum-walk search on complete bipartite graphs.

Simulators (full arc space, naive dense, invariant subspace), the robust
coin/oracle angle schedules, closed-form success probabilities, and the
verification suites that tie them together.
"""

from .analysis import (
    CompareRow,
    closed_form_ph,
    closed_form_ph_one_side,
    closed_form_ph_two_sides,
    sweep,
)
from .chebyshev import (
    GammaParams,
    arccot,
    chebyshev_t,
    collapse_phases,
    gamma_params,
)
from .fullspace import (
    BipartiteInstance,
    StateVector,
    SuccessSeries,
    apply_coin,
    apply_oracle,
    apply_shift,
    initial_state,
    run,
    success_probability,
)
from .reduced import (
    ReducedModel,
    build_model,
    coin_matrix,
    global_phase_deviation,
    mixer_a,
    oracle_matrix,
    reduced_initial_state,
    rotation_r,
    run_reduced,
    shift_matrix,
    verify_identities,
    verify_reduction,
    zero_bar,
)
from .schedule import (
    AngleSchedule,
    build_schedule,
    oscillatory_schedule,
    scenario_from_counts,
    step_bound,
    step_bound_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSchedule",
    "BipartiteInstance",
    "CompareRow",
    "GammaParams",
    "ReducedModel",
    "StateVector",
    "SuccessSeries",
    "apply_coin",
    "apply_oracle",
    "apply_shift",
    "arccot",
    "build_model",
    "build_schedule",
    "chebyshev_t",
    "closed_form_ph",
    "closed_form_ph_one_side",
    "closed_form_ph_two_sides",
    "coin_matrix",
    "collapse_phases",
    "gamma_params",
    "global_phase_deviation",
    "initial_state",
    "mixer_a",
    "oracle_matrix",
    "oscillatory_schedule",
    "reduced_initial_state",
    "rotation_r",
    "run",
    "run_reduced",
    "scenario_from_counts",
    "shift_matrix",
    "step_bound",
    "step_bound_threshold",
    "success_probability",
    "sweep",
    "verify_identities",
    "verify_reduction",
    "zero_bar",
]
