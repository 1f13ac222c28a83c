import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustwalk import fullspace
from robustwalk.analysis import (
    closed_form_ph,
    closed_form_ph_one_side,
    closed_form_ph_two_sides,
    sweep,
)
from robustwalk.chebyshev import chebyshev_t, gamma_params
from robustwalk.dense import run_dense
from robustwalk.fullspace import BipartiteInstance
from robustwalk.reduced import build_model, run_reduced
from robustwalk.schedule import build_schedule, oscillatory_schedule

FIG_COUNTS = (600, 1000, 10, 0)


def test_one_side_full_marking_odd_h_is_certain():
    for h in (3, 7, 11):
        assert closed_form_ph_one_side(h, 0.3, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_two_sides_full_marking_odd_h_is_certain():
    assert closed_form_ph_two_sides(5, 0.2, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_fig_instance_closed_form_value():
    # frozen from the hyperbolic evaluation at h=15, eps=0.1, ratio 10/600
    p = closed_form_ph_one_side(15, 0.1, 10 / 600)
    assert p == pytest.approx(0.9409898488019464, rel=1e-12)
    assert p >= 0.9


def test_two_sides_beyond_bound_has_squared_floor():
    # bound ceil(ln(2/sqrt(0.1)) sqrt(200) + 1) = 28 <= 29
    p = closed_form_ph_two_sides(29, 0.1, 10 / 600, 5 / 1000)
    assert p >= 1 - 0.01


def test_closed_form_rejects_bad_inputs():
    with pytest.raises(ValueError):
        closed_form_ph_one_side(2, 0.1, 0.5)
    with pytest.raises(ValueError):
        closed_form_ph_one_side(5, 0.1, 0.0)
    with pytest.raises(ValueError):
        closed_form_ph_two_sides(5, 0.1, 0.5, 1.5)
    with pytest.raises(ValueError):
        closed_form_ph(5, 0.1, 4, 4, 0, 0)
    with pytest.raises(ValueError, match="integers"):
        closed_form_ph(5, 0.1, 10, 10, 1.5, 0)


def test_closed_form_matches_simulation_small_grid():
    for counts in ((9, 6, 2, 0), (6, 9, 0, 3), (7, 5, 2, 2)):
        model = build_model(*counts)
        for eps in (0.1, 0.5, 1.0):
            for h in range(3, 12):
                _, series = run_reduced(model, build_schedule(h, eps))
                assert abs(series.final() - closed_form_ph(h, eps, *counts)) <= 1e-9


def test_closed_form_below_bound_reports_shortfall():
    # below the step bound the Chebyshev argument exceeds 1 and the
    # probability legitimately drops under the floor
    p = closed_form_ph_one_side(3, 0.1, 1 / 400)
    assert p < 0.9


def test_one_minus_p_bounded_by_epsilon_inside_interval():
    # eps T_h(y)^2 <= eps whenever |y| <= 1
    for h in (5, 9, 15):
        for eps in (0.05, 0.4, 1.0):
            g = gamma_params(h, eps)
            for x in np.linspace(0.0, g.gamma, 25):
                shortfall = eps * chebyshev_t(h, float(x) * g.inv_gamma) ** 2
                assert shortfall <= eps * (1 + 1e-12)
                ratio = 1.0 - x * x
                if ratio > 0.0:
                    assert 1.0 - closed_form_ph_one_side(h, eps, ratio) <= eps * (1 + 1e-9)


def test_oscillatory_violates_floor_on_fig_instance():
    model = build_model(*FIG_COUNTS)
    _, series = run_reduced(model, oscillatory_schedule(60))
    assert min(series.entries[16:61]) < 0.9


def test_sweep_single_row():
    rows = sweep(run_reduced, build_model(8, 6, 2, 0), epsilon=0.2, h_max=3)
    assert [r.h for r in rows] == [1, 2, 3]
    assert None not in (rows[-1].p_robust, rows[-1].p_oscillatory, rows[-1].p_closed_form)


def test_sweep_leaves_uncomputed_curves_empty():
    model = build_model(8, 6, 2, 0)
    rows = sweep(run_reduced, model, epsilon=0.2, h_max=5, robust=False)
    assert [r.h for r in rows] == [1, 2, 3, 4, 5]
    assert all(r.p_robust is None and r.p_closed_form is None for r in rows)
    assert all(r.p_oscillatory is not None for r in rows)
    rows = sweep(run_reduced, model, epsilon=0.2, h_max=5, oscillatory=False)
    assert all(r.p_oscillatory is None for r in rows)
    # no robust schedule exists below h = 3
    assert [r.p_robust is None for r in rows] == [True, True, False, False, False]


def test_sweep_reads_the_marking_from_its_target():
    # the closed form takes (N_l, N_r, n_l, n_r) from the instance or model
    # that the walk runs on, so the two cannot disagree
    instance = BipartiteInstance(8, 6, {1, 4}, {0})
    reduced_rows = sweep(run_reduced, build_model(8, 6, 2, 1), 0.5, 12)
    for run in (fullspace.run, run_dense):
        rows = sweep(run, instance, 0.5, 12)
        assert [r.h for r in rows] == [r.h for r in reduced_rows] == list(range(1, 13))
        for row, reduced_row in zip(rows[2:], reduced_rows[2:]):
            assert row.p_closed_form == closed_form_ph(row.h, 0.5, 8, 6, 2, 1)
            assert abs(row.p_robust - reduced_row.p_robust) <= 1e-10
            assert abs(row.p_oscillatory - reduced_row.p_oscillatory) <= 1e-10
    # a right-only model: the counts are read from the right side
    for row in sweep(run_reduced, build_model(7, 5, 0, 2), 0.1, 10)[2:]:
        assert row.p_closed_form == closed_form_ph(row.h, 0.1, 7, 5, 0, 2)
        assert row.p_closed_form != closed_form_ph(row.h, 0.1, 7, 5, 2, 0)
        assert abs(row.p_robust - row.p_closed_form) <= 1e-9


def test_sweep_fig_shapes():
    from robustwalk.schedule import scenario_from_counts, step_bound

    for counts in ((600, 1000, 10, 0), (1000, 600, 10, 0)):
        N_l, N_r, n_l, n_r = counts
        rows = sweep(run_reduced, build_model(*counts), epsilon=0.1, h_max=40)[2:]
        for row in rows:
            assert row.p_robust == pytest.approx(row.p_closed_form, abs=1e-9)
        bound = step_bound(N_l, N_r, scenario_from_counts(n_l, n_r), 0.1)
        tail = [r for r in rows if r.h >= bound]
        assert min(r.p_robust for r in tail) >= 0.9 - 1e-9
        assert min(r.p_oscillatory for r in tail) < 0.9


# a marked fraction: a float in [1e-6, 1], or 1/n for n up to 10**6
FRACTIONS = st.one_of(st.floats(1e-6, 1.0), st.integers(1, 10**6).map(lambda n: 1 / n))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(3, 400), st.floats(1e-4, 1.0), FRACTIONS, FRACTIONS)
def test_two_sided_marking_never_needs_more_steps(h, epsilon, r_l, r_r):
    # the lemma in the analysis module docstring; the gap tends to 0 as one
    # fraction does, hence the small tolerance
    p_two = closed_form_ph_two_sides(h, epsilon, r_l, r_r)
    p_one = max(closed_form_ph_one_side(h, epsilon, r_l), closed_form_ph_one_side(h, epsilon, r_r))
    assert p_two - p_one >= -1e-12
