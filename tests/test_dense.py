import numpy as np
import pytest

from robustwalk import dense
from robustwalk.fullspace import BipartiteInstance
from robustwalk.schedule import build_schedule

from dense_reference import coin_matrix, oracle_matrix

# Arc-by-arc definitions of the dense operators, one arc (or arc pair) at a
# time; the vectorized builders must reproduce them entry for entry.


def shift_by_arcs(inst):
    d = dense.dimension(inst)
    S = np.zeros((d, d), dtype=complex)
    for u in range(inst.N_l):
        for v in range(inst.N_r):
            i = dense.left_arc(inst, u, v)
            j = dense.right_arc(inst, v, u)
            S[j, i] = 1.0
            S[i, j] = 1.0
    return S


def coin_projector_by_arcs(inst):
    d = dense.dimension(inst)
    P = np.zeros((d, d), dtype=complex)
    for u in range(inst.N_l):
        for v in range(inst.N_r):
            for w in range(inst.N_r):
                P[dense.left_arc(inst, u, v), dense.left_arc(inst, u, w)] = 1.0 / inst.N_r
    for v in range(inst.N_r):
        for u in range(inst.N_l):
            for w in range(inst.N_l):
                P[dense.right_arc(inst, v, u), dense.right_arc(inst, v, w)] = 1.0 / inst.N_l
    return P


def marked_positions_by_arcs(inst):
    marked = np.zeros(dense.dimension(inst), dtype=bool)
    for u in inst.marked_left:
        for v in range(inst.N_r):
            marked[dense.left_arc(inst, u, v)] = True
    for v in inst.marked_right:
        for u in range(inst.N_l):
            marked[dense.right_arc(inst, v, u)] = True
    return marked


def marked_arc_mask_by_arcs(inst):
    mask = np.zeros(dense.dimension(inst), dtype=bool)
    for u in range(inst.N_l):
        for v in range(inst.N_r):
            hit = u in inst.marked_left or v in inst.marked_right
            mask[dense.left_arc(inst, u, v)] = hit
            mask[dense.right_arc(inst, v, u)] = hit
    return mask


INSTANCES = [
    BipartiteInstance(1, 1),
    BipartiteInstance(1, 1, frozenset({0}), frozenset()),
    BipartiteInstance(2, 3, frozenset(), frozenset({2})),
    BipartiteInstance(4, 3, frozenset({0, 3}), frozenset({1})),
    BipartiteInstance(3, 5, frozenset({2}), frozenset({0, 4})),
    BipartiteInstance(5, 2, frozenset(range(5)), frozenset({1})),
]


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda i: f"{i.N_l}x{i.N_r}")
def test_operator_builds_match_arc_by_arc_definitions(inst):
    np.testing.assert_array_equal(dense.shift_matrix(inst), shift_by_arcs(inst))
    np.testing.assert_array_equal(dense.coin_projector(inst), coin_projector_by_arcs(inst))
    np.testing.assert_array_equal(dense.marked_positions(inst), marked_positions_by_arcs(inst))
    np.testing.assert_array_equal(dense.marked_arc_mask(inst), marked_arc_mask_by_arcs(inst))


@pytest.mark.parametrize("inst", [INSTANCES[3], INSTANCES[2]], ids=["two-sided", "one-sided"])
def test_run_dense_matches_definitional_matrices(inst):
    schedule = build_schedule(5, 0.1)
    psi = dense.initial_vector(inst)
    expected = [psi]
    S = dense.shift_matrix(inst)
    for alpha, beta in zip(schedule.alphas, schedule.betas):
        psi = S @ coin_matrix(inst, alpha) @ oracle_matrix(inst, beta) @ psi
        expected.append(psi)
    state, series = dense.run_dense(inst, schedule)
    np.testing.assert_allclose(state, expected[-1], rtol=0, atol=1e-13)
    mask = dense.marked_arc_mask(inst)
    probabilities = [float(np.sum(np.abs(e[mask]) ** 2)) for e in expected]
    np.testing.assert_allclose(series.probabilities(), probabilities, rtol=0, atol=1e-13)
