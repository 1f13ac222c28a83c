"""Property-based engine equivalence over arbitrary marked sets and angles.

Derandomized, so that every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robustwalk import dense, fullspace, reduced
from robustwalk.fullspace import BipartiteInstance
from robustwalk.schedule import AngleSchedule

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
    return AngleSchedule(h, None, alphas, betas, "odd" if h % 2 else "even", None, "oscillatory")


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
