"""Property-based checks: engine equivalence and side symmetry over arbitrary
marked sets and angles, and the 1 - epsilon floor of the closed form and of
the simulation above the step bound.

Derandomized, so that every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustwalk import dense, fullspace, reduced
from robustwalk.analysis import closed_form_ph
from robustwalk.fullspace import BipartiteInstance
from robustwalk.schedule import AngleSchedule, build_schedule, scenario_from_counts, step_bound

ANGLE = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)


@st.composite
def instances(draw):
    N_l = draw(st.integers(1, 12))
    N_r = draw(st.integers(1, 12))
    marked_left = draw(st.frozensets(st.integers(0, N_l - 1)))
    marked_right = draw(st.frozensets(st.integers(0, N_r - 1), min_size=0 if marked_left else 1))
    return BipartiteInstance(N_l, N_r, marked_left, marked_right)


@st.composite
def schedules(draw):
    h = draw(st.integers(0, 12))
    alphas = np.array(draw(st.lists(ANGLE, min_size=h, max_size=h)))
    betas = np.array(draw(st.lists(ANGLE, min_size=h, max_size=h)))
    return AngleSchedule(alphas, betas)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(instances(), schedules())
def test_full_dense_reduced_series_agree(inst, sched):
    model = reduced.build_model(inst.N_l, inst.N_r, inst.n_l, inst.n_r)
    full = fullspace.run(inst, sched)[1].probabilities()
    naive = dense.run_dense(inst, sched)[1].probabilities()
    small = reduced.run_reduced(model, sched)[1].probabilities()
    assert len(full) == len(naive) == len(small) == sched.h + 1
    np.testing.assert_allclose(full, naive, rtol=0, atol=1e-10)
    np.testing.assert_allclose(full, small, rtol=0, atol=1e-10)
    # the walk does not depend on which side is called left, nor on which ids are marked
    mirrored = BipartiteInstance(inst.N_r, inst.N_l, inst.marked_right, inst.marked_left)
    relabeled = BipartiteInstance.from_counts(inst.N_l, inst.N_r, inst.n_l, inst.n_r)
    for variant in (mirrored, relabeled):
        np.testing.assert_allclose(fullspace.run(variant, sched)[1].probabilities(), full, rtol=0, atol=1e-12)


@st.composite
def counted_graphs(draw):
    N_l = draw(st.integers(1, 3000))
    N_r = draw(st.integers(1, 3000))
    n_l = draw(st.integers(0, N_l))
    n_r = draw(st.integers(0 if n_l else 1, N_r))
    return N_l, N_r, n_l, n_r


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(counted_graphs(), st.floats(0.01, 1.0), st.booleans())
@example((600, 1000, 10, 0), 0.1, False)
def test_closed_form_keeps_floor_from_bound(counts, epsilon, unknown):
    N_l, N_r, n_l, n_r = counts
    scenario = (1, 1) if unknown else scenario_from_counts(n_l, n_r)
    bound = step_bound(N_l, N_r, scenario, epsilon)
    for h in range(max(bound, 3), 3 * bound + 1):
        assert closed_form_ph(h, epsilon, *counts) >= 1.0 - epsilon - 1e-9, h


@st.composite
def floor_runs(draw):
    """Counts, epsilon and 5 step counts h in [bound, 3 bound]."""
    N_l = draw(st.integers(1, 10**4))
    N_r = draw(st.integers(1, 10**4))
    n_l = draw(st.integers(0, min(N_l, 50)))
    n_r = draw(st.integers(0 if n_l else 1, min(N_r, 50)))
    epsilon = draw(st.floats(0.01, 1.0))
    bound = step_bound(N_l, N_r, scenario_from_counts(n_l, n_r), epsilon)
    hs = draw(st.lists(st.integers(max(bound, 3), 3 * bound), min_size=5, max_size=5))
    return (N_l, N_r, n_l, n_r), epsilon, hs


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(floor_runs())
def test_simulation_keeps_floor_from_bound(run):
    counts, epsilon, hs = run
    model = reduced.build_model(*counts)
    for h in hs:
        p = reduced.run_reduced(model, build_schedule(h, epsilon))[1].final()
        assert p >= 1.0 - epsilon - 1e-9, h
        assert abs(p - closed_form_ph(h, epsilon, *counts)) <= 1e-9, h
