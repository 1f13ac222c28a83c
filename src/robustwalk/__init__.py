"""Robust quantum-walk search on complete bipartite graphs.

Simulators (full arc space, naive dense, invariant subspace), the robust
coin/oracle angle schedules, closed-form success probabilities, and the
verification suites that tie them together.  The package namespace holds the
calls a user needs; engine internals stay in their submodules.
"""

from .analysis import closed_form_ph, sweep
from .fullspace import BipartiteInstance, run
from .reduced import ReducedModel, build_model, run_reduced
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
    "ReducedModel",
    "build_model",
    "build_schedule",
    "closed_form_ph",
    "oscillatory_schedule",
    "run",
    "run_reduced",
    "scenario_from_counts",
    "step_bound",
    "step_bound_threshold",
    "sweep",
]
