import robustwalk

PUBLIC = [
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


def test_public_names_are_pinned():
    assert robustwalk.__all__ == PUBLIC
    assert len(PUBLIC) == 38


def test_every_public_name_resolves():
    for name in robustwalk.__all__:
        assert getattr(robustwalk, name) is not None, name
