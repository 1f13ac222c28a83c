import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustwalk import dense, fullspace, reduced
from robustwalk.fullspace import (
    BipartiteInstance,
    StateVector,
    apply_coin,
    apply_oracle,
    apply_shift,
    initial_state,
    run,
    success_probability,
)
from robustwalk.schedule import AngleSchedule, build_schedule, oscillatory_schedule

from dense_reference import coin_matrix, oracle_matrix


def random_state(rng, N_l, N_r):
    lr = rng.normal(size=(N_l, N_r)) + 1j * rng.normal(size=(N_l, N_r))
    rl = rng.normal(size=(N_l, N_r)) + 1j * rng.normal(size=(N_l, N_r))
    s = StateVector(lr.astype(complex), rl.astype(complex))
    n = s.norm()
    return StateVector(s.lr / n, s.rl / n)


def f_ordered(s):
    """A copy with rl F-ordered, a layout the results must not depend on."""
    return StateVector(np.array(s.lr, order="C"), np.array(s.rl, order="F"))


def c_ordered(s):
    """A copy with both blocks C-ordered, the way initial_state stores them."""
    return StateVector(np.array(s.lr, order="C"), np.array(s.rl, order="C"))


def random_schedule(rng, h):
    return AngleSchedule(rng.uniform(-np.pi, np.pi, h), rng.uniform(-np.pi, np.pi, h))


def test_initial_state_single_edge():
    s = initial_state(BipartiteInstance(1, 1))
    assert s.lr.shape == (1, 1) and s.rl.shape == (1, 1)
    np.testing.assert_allclose(s.lr[0, 0], 1 / np.sqrt(2))
    np.testing.assert_allclose(s.rl[0, 0], 1 / np.sqrt(2))


def test_initial_state_uniform():
    s = initial_state(BipartiteInstance(6, 4))
    np.testing.assert_allclose(s.lr, 1 / np.sqrt(48))
    np.testing.assert_allclose(s.rl, 1 / np.sqrt(48))


def test_initial_state_normalized_random_sizes():
    rng = np.random.default_rng(1)
    for _ in range(5):
        N_l, N_r = rng.integers(1, 51, size=2)
        assert initial_state(BipartiteInstance(int(N_l), int(N_r))).norm() == pytest.approx(1.0, abs=1e-12)


def test_norm_of_a_large_uniform_state():
    # 10^6 arcs per block: one BLAS dot product over a block is 4e-13 off
    assert abs(initial_state(BipartiteInstance(1000, 1000)).norm() - 1.0) <= 1e-13


def test_instance_validation():
    with pytest.raises(ValueError):
        BipartiteInstance(0, 3)
    with pytest.raises(ValueError):
        BipartiteInstance(3, 3, frozenset({3}), frozenset())
    with pytest.raises(ValueError):
        BipartiteInstance(3, 3, frozenset(), frozenset({-1}))
    # a non-integer id is rejected, not truncated into a duplicate of id 1
    with pytest.raises(ValueError, match="integers"):
        BipartiteInstance(3, 3, {1.5, 1})
    # a side size that is not an integer is rejected at construction, not in the engines
    for N_l, N_r in ((600.5, 10), (np.float64(3.0), 2)):
        with pytest.raises(ValueError, match="side sizes must be integers"):
            BipartiteInstance(N_l, N_r, {1})
    inst = BipartiteInstance(3, 3, {np.int64(1)}, {np.intp(0)})
    assert inst.left_ids.tolist() == [1] and inst.right_ids.tolist() == [0]


def test_shift_is_involution():
    rng = np.random.default_rng(2)
    s = random_state(rng, 4, 7)
    t = apply_shift(apply_shift(s.copy()))
    np.testing.assert_array_equal(t.lr, s.lr)
    np.testing.assert_array_equal(t.rl, s.rl)


def test_shift_moves_single_arc():
    s = StateVector(np.zeros((3, 2), dtype=complex), np.zeros((3, 2), dtype=complex))
    s.lr[1, 0] = 1.0
    t = apply_shift(s)
    assert t.rl[1, 0] == 1.0
    assert np.count_nonzero(t.lr) == 0
    assert t.norm() == pytest.approx(1.0)


def test_coin_pi_is_grover_reflection():
    rng = np.random.default_rng(3)
    s = random_state(rng, 5, 3)
    t = apply_coin(s.copy(), np.pi)
    want_lr = 2.0 * s.lr.mean(axis=1, keepdims=True) - s.lr
    want_rl = 2.0 * s.rl.mean(axis=0, keepdims=True) - s.rl
    np.testing.assert_allclose(t.lr, want_lr, atol=1e-14)
    np.testing.assert_allclose(t.rl, want_rl, atol=1e-14)


def test_coin_zero_negates():
    rng = np.random.default_rng(4)
    s = random_state(rng, 3, 4)
    t = apply_coin(s.copy(), 0.0)
    np.testing.assert_allclose(t.lr, -s.lr, atol=1e-15)
    np.testing.assert_allclose(t.rl, -s.rl, atol=1e-15)


def test_coin_unitary_random_angles():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_state(rng, 6, 5)
        t = apply_coin(s, rng.uniform(-2 * np.pi, 2 * np.pi))
        assert abs(t.norm() - 1.0) <= 1e-12


def test_oracle_pi_flips_marked_positions():
    inst = BipartiteInstance(3, 2, frozenset({1}), frozenset())
    rng = np.random.default_rng(6)
    s = random_state(rng, 3, 2)
    t = apply_oracle(s.copy(), np.pi, inst)
    np.testing.assert_allclose(t.lr[1, :], -s.lr[1, :], atol=1e-15)
    np.testing.assert_allclose(t.lr[0, :], s.lr[0, :], atol=1e-15)
    np.testing.assert_allclose(t.rl, s.rl, atol=1e-15)


def test_oracle_zero_and_unmarked_are_identity():
    inst = BipartiteInstance(3, 2, frozenset({1}), frozenset({0}))
    empty = BipartiteInstance(3, 2)
    rng = np.random.default_rng(7)
    s = random_state(rng, 3, 2)
    for t in (apply_oracle(s.copy(), 0.0, inst), apply_oracle(s.copy(), 1.3, empty)):
        np.testing.assert_allclose(t.lr, s.lr, atol=1e-15)
        np.testing.assert_allclose(t.rl, s.rl, atol=1e-15)


def test_oracle_inverse_pairs():
    inst = BipartiteInstance(4, 3, frozenset({0, 2}), frozenset({1}))
    rng = np.random.default_rng(8)
    s = random_state(rng, 4, 3)
    t = apply_oracle(apply_oracle(s.copy(), 0.7, inst), -0.7, inst)
    np.testing.assert_allclose(t.lr, s.lr, atol=1e-14)
    np.testing.assert_allclose(t.rl, s.rl, atol=1e-14)


def test_operators_update_and_return_their_input():
    inst = BipartiteInstance(4, 3, frozenset({0, 2}), frozenset({1}))
    rng = np.random.default_rng(12)
    for op in (apply_shift, lambda s: apply_coin(s, 0.8), lambda s: apply_oracle(s, 0.7, inst)):
        s = random_state(rng, 4, 3)
        assert op(s) is s


def test_in_place_operators_match_their_definitions():
    # bit-identical to the out-of-place formulas on the same input, in the
    # layout initial_state uses; the rl coin mean adds blocks of rows
    # pairwise, so there the formula holds within 3 ulps
    inst = BipartiteInstance(5, 3, frozenset({1, 4}), frozenset({2}))
    rng = np.random.default_rng(13)
    s = c_ordered(random_state(rng, 5, 3))
    alpha, beta = 1.1, -0.4
    c = 1.0 - np.exp(-1j * alpha)
    t = apply_coin(s.copy(), alpha)
    np.testing.assert_array_equal(t.lr, c * s.lr.mean(axis=1, keepdims=True) - s.lr)
    ulp = np.spacing(np.abs(s.rl).max())
    np.testing.assert_allclose(t.rl, c * s.rl.mean(axis=0, keepdims=True) - s.rl, rtol=0, atol=3 * ulp)
    t = s.copy()
    lr, rl = t.lr, t.rl
    t = apply_shift(t)
    np.testing.assert_array_equal(t.lr, s.rl)
    np.testing.assert_array_equal(t.rl, s.lr)
    # the shift swaps the blocks: both stay C-ordered and nothing is copied
    assert t.lr.flags.c_contiguous and t.rl.flags.c_contiguous
    assert np.shares_memory(t.lr, rl) and np.shares_memory(t.rl, lr)
    t = apply_oracle(s.copy(), beta, inst)
    phase = np.exp(1j * beta)
    np.testing.assert_array_equal(t.lr[[1, 4]], s.lr[[1, 4]] * phase)
    np.testing.assert_array_equal(t.lr[[0, 2, 3]], s.lr[[0, 2, 3]])
    np.testing.assert_array_equal(t.rl[:, [2]], s.rl[:, [2]] * phase)
    np.testing.assert_array_equal(t.rl[:, [0, 1]], s.rl[:, [0, 1]])


def test_initial_state_layout_survives_steps():
    inst = BipartiteInstance.from_counts(40, 7, 2, 1)
    s = initial_state(inst)
    for _ in range(3):
        assert s.lr.flags.c_contiguous and s.rl.flags.c_contiguous
        apply_shift(apply_coin(apply_oracle(s, 0.3, inst), 0.9))
    assert s.copy().rl.flags.c_contiguous


def test_coin_rl_mean_matches_fsum():
    # 3000 neighbors per right position: adding the rows of rl one by one
    # (a plain axis-0 mean) is 8.7 ulps off here, the blocked mean 1 ulp
    N_l, N_r = 3000, 4
    rng = np.random.default_rng(14)
    rl = (1.0 + 0.25 * rng.normal(size=(N_l, N_r))) + 1j * (2.0 + 0.25 * rng.normal(size=(N_l, N_r)))
    s = StateVector(np.zeros((N_l, N_r), dtype=complex), rl.copy())
    alpha = 1.1
    c = 1.0 - np.exp(-1j * alpha)
    mean = np.array([complex(math.fsum(col.real), math.fsum(col.imag)) / N_l for col in rl.T])
    got = apply_coin(s, alpha).rl
    ulp = np.spacing(np.abs(rl).max())
    np.testing.assert_allclose(got, c * mean - rl, rtol=0, atol=3 * ulp)


@pytest.mark.parametrize("N_l, N_r", [(1, 7), (31, 7), (32, 7), (33, 7), (3 * 32 + 5, 7), (389, 7), (64, 2000)])
def test_coin_rl_mean_across_block_edges(N_l, N_r):
    # the coin sums rl in 32-row blocks: one partial block, one full block,
    # a partial last block, odd block counts carried through the pairwise
    # additions, and a BLAS product over 2000 columns
    rng = np.random.default_rng(16)
    rl = (1.0 + 0.25 * rng.normal(size=(N_l, N_r))) + 1j * (2.0 + 0.25 * rng.normal(size=(N_l, N_r)))
    s = StateVector(np.zeros((N_l, N_r), dtype=complex), rl.copy())
    alpha = 1.1
    c = 1.0 - np.exp(-1j * alpha)
    mean = np.array([complex(math.fsum(col.real), math.fsum(col.imag)) / N_l for col in rl.T])
    got = apply_coin(s, alpha).rl
    ulp = np.spacing(np.abs(rl).max())
    np.testing.assert_allclose(got, c * mean - rl, rtol=0, atol=3 * ulp)


def test_coin_block_size_keeps_rl_mean_within_3_ulps():
    # BLAS adds a block's rows in sequence: over 100 draws of 101-129 rows,
    # 32-row blocks never miss a math.fsum mean by 3 ulps, 128-row blocks did
    # in about a fifth of the draws
    rng = np.random.default_rng(17)
    alpha = 1.1
    c = 1.0 - np.exp(-1j * alpha)
    misses = 0
    for _ in range(100):
        N_l, N_r = int(rng.integers(101, 130)), 7
        rl = (1.0 + 0.25 * rng.normal(size=(N_l, N_r))) + 1j * (2.0 + 0.25 * rng.normal(size=(N_l, N_r)))
        s = StateVector(np.zeros((N_l, N_r), dtype=complex), rl.copy())
        mean = np.array([complex(math.fsum(col.real), math.fsum(col.imag)) / N_l for col in rl.T])
        err = np.abs(apply_coin(s, alpha).rl - (c * mean - rl)).max()
        misses += err > 3 * np.spacing(np.abs(rl).max())
    assert misses <= 2


def test_layouts_give_the_same_results(monkeypatch):
    # 70 rows of rl are three coin blocks, so the block sums are added pairwise
    _check_layouts_agree(monkeypatch, 70)


def test_layouts_give_the_same_results_over_ten_blocks(monkeypatch):
    _check_layouts_agree(monkeypatch, 300)


def _check_layouts_agree(monkeypatch, N_l):
    inst = BipartiteInstance(N_l, 9, frozenset({3, 41}), frozenset({5}))
    rng = np.random.default_rng(15)
    s = random_state(rng, N_l, 9)
    ops = (apply_shift, lambda x: apply_coin(x, 0.8), lambda x: apply_oracle(x, -1.3, inst))
    # each operator is bit-identical across layouts, so a summation order that
    # depends on the layout shows; success_probability's dot products are not
    for op in ops:
        a, b = op(c_ordered(s)), op(f_ordered(s))
        np.testing.assert_array_equal(a.lr, b.lr)
        np.testing.assert_array_equal(a.rl, b.rl)
        assert success_probability(a, inst) == pytest.approx(success_probability(b, inst), rel=0, abs=1e-15)
    sched = build_schedule(9, 0.2)
    _, c_series = run(inst, sched)
    original = fullspace.initial_state
    monkeypatch.setattr(fullspace, "initial_state", lambda instance: f_ordered(original(instance)))
    _, f_series = run(inst, sched)
    np.testing.assert_allclose(c_series.probabilities(), f_series.probabilities(), rtol=0, atol=1e-15)


@st.composite
def states_and_instances(draw):
    N_l, N_r = draw(st.integers(1, 80)), draw(st.integers(1, 12))
    inst = BipartiteInstance(
        N_l, N_r, draw(st.frozensets(st.integers(0, N_l - 1))), draw(st.frozensets(st.integers(0, N_r - 1)))
    )
    s = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), N_l, N_r)
    return inst, f_ordered(s) if draw(st.booleans()) else s


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(states_and_instances(), st.floats(-2 * np.pi, 2 * np.pi), st.floats(-2 * np.pi, 2 * np.pi))
def test_each_operator_preserves_the_norm(case, alpha, beta):
    inst, s = case
    for op in (apply_shift, lambda x: apply_coin(x, alpha), lambda x: apply_oracle(x, beta, inst)):
        assert abs(op(s.copy()).norm() - 1.0) <= 1e-13


def test_success_probability_extremes():
    full = BipartiteInstance(3, 2, frozenset(range(3)), frozenset(range(2)))
    none = BipartiteInstance(3, 2)
    rng = np.random.default_rng(9)
    s = random_state(rng, 3, 2)
    assert success_probability(s, full) == pytest.approx(1.0, abs=1e-12)
    assert success_probability(s, none) == 0.0


def test_success_probability_uniform_counting():
    # direct arc count: P0 = (n_l N_r + n_r N_l - n_l n_r) / (N_l N_r)
    inst = BipartiteInstance(2, 2, frozenset({0}), frozenset())
    assert success_probability(initial_state(inst), inst) == pytest.approx(0.5, abs=1e-12)
    for N_l, N_r, n_l, n_r in ((5, 4, 2, 1), (3, 7, 0, 2), (6, 6, 6, 0)):
        inst = BipartiteInstance.from_counts(N_l, N_r, n_l, n_r)
        hits = 0
        for u in range(N_l):
            for v in range(N_r):
                hits += 2 * int(u in inst.marked_left or v in inst.marked_right)
        want = hits / (2 * N_l * N_r)
        assert success_probability(initial_state(inst), inst) == pytest.approx(want, abs=1e-12)


def test_run_empty_schedule_reports_initial_probability():
    inst = BipartiteInstance.from_counts(4, 3, 1, 1)
    empty = AngleSchedule(np.zeros(0), np.zeros(0))
    _, series = run(inst, empty)
    assert series.entries == [success_probability(initial_state(inst), inst)]


def test_run_matches_dense_small_oscillatory():
    inst = BipartiteInstance.from_counts(2, 2, 1, 0)
    sched = oscillatory_schedule(6)
    _, structured = run(inst, sched)
    _, naive = dense.run_dense(inst, sched)
    np.testing.assert_allclose(structured.probabilities(), naive.probabilities(), atol=1e-12)


def test_run_matches_dense_random_instances():
    rng = np.random.default_rng(10)
    for _ in range(6):
        N_l, N_r = (int(x) for x in rng.integers(1, 7, size=2))
        n_l = int(rng.integers(0, N_l + 1))
        n_r = int(rng.integers(0 if n_l else 1, N_r + 1))
        inst = BipartiteInstance.from_counts(N_l, N_r, n_l, n_r)
        sched = random_schedule(rng, 8)
        _, structured = run(inst, sched)
        _, naive = dense.run_dense(inst, sched)
        np.testing.assert_allclose(structured.probabilities(), naive.probabilities(), atol=1e-12)


def test_dense_operators_are_unitary():
    inst = BipartiteInstance.from_counts(3, 4, 2, 1)
    d = dense.dimension(inst)
    eye = np.eye(d)
    for m in (
        dense.shift_matrix(inst),
        coin_matrix(inst, 0.9),
        oracle_matrix(inst, -2.1),
    ):
        np.testing.assert_allclose(m @ m.conj().T, eye, atol=1e-12)


def test_permutation_equivariance():
    # relabeling marked ids within a side leaves the series unchanged
    sched = build_schedule(6, 0.2)
    a = BipartiteInstance(5, 4, frozenset({0, 1}), frozenset({0}))
    b = BipartiteInstance(5, 4, frozenset({2, 4}), frozenset({3}))
    _, sa = run(a, sched)
    _, sb = run(b, sched)
    np.testing.assert_allclose(sa.probabilities(), sb.probabilities(), atol=1e-12)


def test_norm_preserved_over_long_random_run():
    rng = np.random.default_rng(11)
    inst = BipartiteInstance.from_counts(7, 5, 2, 1)
    state, _ = run(inst, random_schedule(rng, 100))
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


# Each helper scales one operator of an engine by 1.001 and returns the
# engine's run function.

def _stretch_full(monkeypatch):
    original = fullspace.apply_shift

    def stretched(state):
        out = original(state)
        return StateVector(1.001 * out.lr, 1.001 * out.rl)

    monkeypatch.setattr(fullspace, "apply_shift", stretched)
    return run


def _stretch_reduced(monkeypatch):
    original = reduced.shift_matrix
    monkeypatch.setattr(reduced, "shift_matrix", lambda model: 1.001 * original(model))
    return lambda inst, sched: reduced.run_reduced(reduced.build_model(inst.N_l, inst.N_r, inst.n_l, inst.n_r), sched)


def _stretch_dense(monkeypatch):
    original = dense.shift_matrix
    monkeypatch.setattr(dense, "shift_matrix", lambda inst: 1.001 * original(inst))
    return dense.run_dense


@pytest.mark.parametrize("stretch", [_stretch_full, _stretch_reduced, _stretch_dense], ids=["full", "reduced", "dense"])
def test_non_unitary_step_is_caught_naming_the_step(monkeypatch, stretch):
    engine = stretch(monkeypatch)
    inst = BipartiteInstance.from_counts(4, 3, 1, 1)
    with pytest.raises(AssertionError, match=r"norm drifted to .* at step 1$"):
        engine(inst, build_schedule(5, 0.1))
