import math

import numpy as np
import pytest

from robustwalk import fullspace, reduced
from robustwalk.fullspace import BipartiteInstance
from robustwalk.reduced import (
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
from robustwalk.schedule import AngleSchedule, build_schedule, gamma_grids, oscillatory_schedule

from reduced_embedding import (
    conjugate_into_reduced,
    flatten,
    mirror_instance,
    project_onto_reduced,
    reduced_basis_vectors,
    subspace_leakage,
)

DIM4_COUNTS = (5, 4, 1, 0)
DIM8_COUNTS = (5, 4, 2, 1)
RIGHT_ONLY_COUNTS = (4, 6, 0, 2)
# basis shapes conjugated against the full-space operators
CLOSURE_COUNTS = [DIM4_COUNTS, DIM8_COUNTS, (7, 5, 3, 0), (6, 5, 2, 2), (3, 7, 1, 4), RIGHT_ONLY_COUNTS]


def models():
    return [build_model(*DIM4_COUNTS), build_model(*DIM8_COUNTS)]


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def coin_pair_block(model, marked, unmarked):
    """Projector entries on the pair |marked>, |unmarked>: r, sqrt(r(1-r)), 1-r."""
    i, j = model.labels.index(marked), model.labels.index(unmarked)
    return model.projector[i, i], model.projector[i, j], model.projector[j, j]


def test_build_model_one_side():
    m = build_model(600, 1000, 10, 0)
    assert m.dim == 4
    assert [m.size(k) for k in "uvs"] == [10, 590, 1000]
    assert coin_pair_block(m, "su", "sv") == pytest.approx(
        (10 / 600, math.sqrt(10 * 590) / 600, 590 / 600), abs=1e-15
    )


def test_build_model_all_left_marked():
    m = build_model(4, 4, 4, 0)
    assert (m.size("u"), m.size("v")) == (4, 0)
    assert coin_pair_block(m, "su", "sv") == (1.0, 0.0, 0.0)


def test_build_model_two_sides():
    m = build_model(600, 1000, 10, 5)
    assert m.dim == 8
    assert [m.size(k) for k in "uvts"] == [10, 590, 5, 995]
    assert coin_pair_block(m, "ut", "us") == pytest.approx(
        (5 / 1000, math.sqrt(5 * 995) / 1000, 995 / 1000), abs=1e-15
    )


def test_build_model_keeps_right_only_counts():
    m = build_model(7, 3, 0, 2)
    assert (m.N_l, m.N_r, m.n_l, m.n_r) == (7, 3, 0, 2)
    assert m.labels == ("tv", "vt", "vs", "sv")
    assert m.dim == 4


def test_build_model_rejects_empty_marking():
    with pytest.raises(ValueError):
        build_model(5, 5, 0, 0)
    with pytest.raises(ValueError):
        build_model(5, 5, 6, 0)
    with pytest.raises(ValueError):
        build_model(0, 5, 0, 1)
    with pytest.raises(ValueError, match="integers"):
        build_model(10, 10, 1.5, 0)
    with pytest.raises(ValueError, match="side sizes must be integers"):
        build_model(600.5, 1000, 10, 0)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_initial_state_all_marked_left():
    model = build_model(4, 6, 4, 0)
    v = reduced_initial_state(model)
    want = {"us": 1 / math.sqrt(2), "su": 1 / math.sqrt(2), "vs": 0, "sv": 0}
    np.testing.assert_allclose([v[model.labels.index(k)] for k in want], list(want.values()), atol=1e-15)


def test_initial_states_normalized():
    for m in models():
        assert np.linalg.norm(reduced_initial_state(m)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("counts", CLOSURE_COUNTS)
def test_initial_state_is_projection_of_uniform_state(counts):
    inst = BipartiteInstance.from_counts(*counts)
    model = build_model(*counts)
    basis = reduced_basis_vectors(inst)
    coeffs = project_onto_reduced(fullspace.initial_state(inst), basis)
    np.testing.assert_allclose(coeffs, reduced_initial_state(model), atol=1e-12)
    # nothing of the uniform state lies outside the subspace
    flat = flatten(fullspace.initial_state(inst))
    residual = flat - sum(c * flatten(b) for c, b in zip(coeffs, basis))
    assert np.linalg.norm(residual) <= 1e-12


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_oracle_at_zero_is_identity():
    for m in models():
        np.testing.assert_allclose(oracle_matrix(m, 0.0), np.eye(m.dim), atol=1e-15)


def test_operators_unitary_random_draws():
    rng = np.random.default_rng(12)
    for m in models():
        eye = np.eye(m.dim)
        for _ in range(1000):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            for build in (coin_matrix, oracle_matrix, rotation_r, mixer_a):
                u = build(m, theta)
                np.testing.assert_allclose(u @ u.conj().T, eye, atol=1e-12)
        s = shift_matrix(m)
        np.testing.assert_allclose(s @ s, eye, atol=1e-15)


@pytest.mark.parametrize("build", [coin_matrix, oracle_matrix])
def test_angle_array_builds_scalar_stack(build):
    angles = np.random.default_rng(16).uniform(-2 * np.pi, 2 * np.pi, 70)
    for m in models():
        stack = build(m, angles)
        assert stack.shape == (len(angles), m.dim, m.dim)
        np.testing.assert_array_equal(stack, np.stack([build(m, float(a)) for a in angles]))
        assert build(m, float(angles[0])).shape == (m.dim, m.dim)
        assert build(m, angles[:0]).shape == (0, m.dim, m.dim)


@pytest.mark.parametrize("counts", CLOSURE_COUNTS)
def test_subspace_closure_and_leakage(counts):
    # conjugating the full-space operators into the embedded basis reproduces
    # the reduced matrices, with no amplitude escaping the subspace
    inst = BipartiteInstance.from_counts(*counts)
    model = build_model(*counts)
    basis = reduced_basis_vectors(inst)
    rng = np.random.default_rng(13)
    for _ in range(5):
        alpha = rng.uniform(-2 * np.pi, 2 * np.pi)
        beta = rng.uniform(-2 * np.pi, 2 * np.pi)
        cases = [
            (lambda s: fullspace.apply_shift(s), shift_matrix(model)),
            (lambda s: fullspace.apply_coin(s, alpha), coin_matrix(model, alpha)),
            (lambda s: fullspace.apply_oracle(s, beta, inst), oracle_matrix(model, beta)),
        ]
        for op, reduced_mat in cases:
            np.testing.assert_allclose(conjugate_into_reduced(op, basis), reduced_mat, atol=1e-12)
            assert subspace_leakage(op, basis) <= 1e-12


def test_reduced_helpers_leave_basis_unchanged():
    # the full-space operators update their input in place
    inst = BipartiteInstance.from_counts(*DIM8_COUNTS)
    basis = reduced_basis_vectors(inst)
    before = [b.copy() for b in basis]
    for op in (
        fullspace.apply_shift,
        lambda s: fullspace.apply_coin(s, 0.9),
        lambda s: fullspace.apply_oracle(s, -1.2, inst),
    ):
        conjugate_into_reduced(op, basis)
        subspace_leakage(op, basis)
    for b, want in zip(basis, before):
        np.testing.assert_array_equal(b.lr, want.lr)
        np.testing.assert_array_equal(b.rl, want.rl)


def test_coin_pi_matches_conjugated_grover_coin():
    inst = BipartiteInstance.from_counts(*DIM4_COUNTS)
    model = build_model(*DIM4_COUNTS)
    basis = reduced_basis_vectors(inst)
    got = conjugate_into_reduced(lambda s: fullspace.apply_coin(s, np.pi), basis)
    np.testing.assert_allclose(got, coin_matrix(model, np.pi), atol=1e-12)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_run_reduced_matches_fullspace_one_side():
    inst = BipartiteInstance.from_counts(5, 4, 1, 0)
    sched = build_schedule(7, 0.1)
    _, full = fullspace.run(inst, sched)
    _, red = run_reduced(build_model(5, 4, 1, 0), sched)
    np.testing.assert_allclose(full.probabilities(), red.probabilities(), atol=1e-10)


def test_run_reduced_matches_fullspace_two_sides_even_h():
    inst = BipartiteInstance.from_counts(4, 5, 2, 1)
    sched = build_schedule(8, 0.1)
    _, full = fullspace.run(inst, sched)
    _, red = run_reduced(build_model(4, 5, 2, 1), sched)
    np.testing.assert_allclose(full.probabilities(), red.probabilities(), atol=1e-10)


def test_run_reduced_mirrored_matches_fullspace():
    inst = BipartiteInstance.from_counts(5, 4, 0, 2)
    sched = build_schedule(6, 0.3)
    _, full = fullspace.run(inst, sched)
    _, red = run_reduced(build_model(5, 4, 0, 2), sched)
    np.testing.assert_allclose(full.probabilities(), red.probabilities(), atol=1e-10)
    # the mirrored instance itself walks to the same series
    _, mirrored = fullspace.run(mirror_instance(inst), sched)
    np.testing.assert_allclose(full.probabilities(), mirrored.probabilities(), atol=1e-12)


@pytest.mark.parametrize("counts", [DIM4_COUNTS, DIM8_COUNTS, (5, 4, 0, 2)], ids=["dim4", "dim8", "mirrored"])
@pytest.mark.parametrize("h", [0, 1, 63, 64, 65, 200])
def test_run_reduced_matches_per_step_products_across_chunks(counts, h):
    model = build_model(*counts)
    rng = np.random.default_rng(h)
    sched = AngleSchedule(*rng.uniform(-2 * np.pi, 2 * np.pi, (2, h)))
    psi = reduced_initial_state(model)
    want = [reduced.reduced_success_probability(psi, model)]
    for a, b in zip(sched.alphas, sched.betas):
        psi = shift_matrix(model) @ (coin_matrix(model, a) @ (oracle_matrix(model, b) @ psi))
        want.append(reduced.reduced_success_probability(psi, model))
    state, series = run_reduced(model, sched)
    assert len(series.entries) == h + 1
    np.testing.assert_allclose(series.probabilities(), want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(state, psi, rtol=0, atol=1e-13)


@pytest.mark.parametrize("step", [1, 64, 65, 100])
def test_drift_names_the_step_past_a_chunk(monkeypatch, step):
    # the first step, the last of the first block, the first of the second
    # and the last of the partial block of a 100-step run
    original = reduced.coin_matrix
    built = []

    def scale_one_step(model, alphas):
        stack = original(model, alphas)
        k = step - 1 - len(built)
        if 0 <= k < len(stack):
            stack[k] *= 1.001
        built.extend(alphas)
        return stack

    monkeypatch.setattr(reduced, "coin_matrix", scale_one_step)
    with pytest.raises(AssertionError, match=rf"^norm drifted to 1\.00[0-9]* at step {step}$") as caught:
        run_reduced(build_model(*DIM8_COUNTS), oscillatory_schedule(100))
    assert "np.float64" not in str(caught.value)


@pytest.mark.parametrize("counts", [DIM4_COUNTS, DIM8_COUNTS], ids=["dim4", "dim8"])
def test_block_hit_masses_equal_the_per_state_mass_bit_for_bit(counts):
    model = build_model(*counts)
    rng = np.random.default_rng(11)
    states = rng.normal(size=(2000, model.dim)) + 1j * rng.normal(size=(2000, model.dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    masses = reduced.reduced_success_probabilities(states, model)
    assert all(type(p) is float for p in masses)
    np.testing.assert_array_equal(masses, [reduced.reduced_success_probability(psi, model) for psi in states])


@pytest.mark.parametrize("counts", [DIM4_COUNTS, DIM8_COUNTS, (5, 4, 0, 2)], ids=["dim4", "dim8", "mirrored"])
def test_run_reduced_equals_a_per_step_loop_bit_for_bit(counts):
    model = build_model(*counts)
    sched = build_schedule(150, 0.1)
    psi = reduced_initial_state(model)
    want = [reduced.reduced_success_probability(psi, model)]
    S = shift_matrix(model)
    for start in range(0, sched.h, 64):
        chunk = slice(start, start + 64)
        for M in S @ coin_matrix(model, sched.alphas[chunk]) @ oracle_matrix(model, sched.betas[chunk]):
            psi = M @ psi
            want.append(reduced.reduced_success_probability(psi, model))
    state, series = run_reduced(model, sched)
    assert series.entries == want
    np.testing.assert_array_equal(state, psi)


def test_epsilon_one_equals_oscillatory():
    model = build_model(9, 7, 2, 0)
    for h in (5, 8):
        robust = build_schedule(h, 1.0)
        osc = oscillatory_schedule(h)
        _, a = run_reduced(model, robust)
        _, b = run_reduced(model, osc)
        np.testing.assert_allclose(a.probabilities(), b.probabilities(), atol=1e-12)
        # interior steps share the evolution operator exactly
        for k in range(2, h):
            step_r = shift_matrix(model) @ coin_matrix(model, robust.alpha(k)) @ oracle_matrix(model, robust.beta(k))
            step_o = shift_matrix(model) @ coin_matrix(model, np.pi) @ oracle_matrix(model, np.pi)
            np.testing.assert_allclose(step_r, step_o, atol=1e-12)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("counts", [DIM4_COUNTS, DIM8_COUNTS, RIGHT_ONLY_COUNTS])
def test_identities_hold(counts):
    devs = verify_identities(build_model(*counts), trials=100, seed=21)
    for name, dev in devs.items():
        assert dev <= 1e-10, f"{name}: {dev}"


def test_identity_checker_catches_faults():
    def bad_coin(model, alpha):
        m = coin_matrix(model, alpha)
        m[0, 0] = -m[0, 0]
        return m

    devs = verify_identities(build_model(*DIM4_COUNTS), trials=5, seed=3, coin_builder=bad_coin)
    assert devs["C=ARA"] > 1e-6


def test_trivial_word_shuffle():
    for m in models():
        s = shift_matrix(m)
        np.testing.assert_allclose(s @ s @ s, s, atol=1e-15)


def test_identities_reject_zero_trials():
    with pytest.raises(ValueError):
        verify_identities(build_model(*DIM4_COUNTS), trials=0)


# ---------------------------------------------------------------------------
# rotation / mixer specifics
# ---------------------------------------------------------------------------

def test_rotation_inverse_pair():
    for m in models():
        theta = 1.234
        np.testing.assert_allclose(
            rotation_r(m, theta) @ rotation_r(m, -theta), np.eye(m.dim), atol=1e-12
        )


def test_mixer_at_zero_angle_and_zero_mixing():
    # an unmarked model, whose mixer would be the identity, is rejected at
    # construction like every model the counts do not describe
    with pytest.raises(ValueError, match="at least one marked"):
        ReducedModel(N_l=5, N_r=4, n_l=0, n_r=0)
    with pytest.raises(ValueError, match="integers"):
        ReducedModel(5, 4, 1.5, 0)
    with pytest.raises(ValueError, match="out of range"):
        ReducedModel(5, 4, 7, 0)


def test_mixer_phase_steering():
    rng = np.random.default_rng(14)
    for m in models():
        for _ in range(10):
            a, b = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            np.testing.assert_allclose(
                mixer_a(m, a + b),
                rotation_r(m, b) @ mixer_a(m, a) @ rotation_r(m, -b),
                atol=1e-12,
            )


def test_global_phase_deviation_helper():
    rng = np.random.default_rng(15)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    w = np.exp(1j * 0.77) * v
    assert global_phase_deviation(v, w) <= 1e-15
    w2 = v.copy()
    w2[0] += 0.1
    assert global_phase_deviation(v, w2 / np.linalg.norm(w2)) > 1e-3


# ---------------------------------------------------------------------------
# product-form reduction
# ---------------------------------------------------------------------------

def test_stage_one_component_pattern():
    # the mixer cascade leaves the us component at 0 and vs at 1/sqrt(2)
    from robustwalk.chebyshev import collapse_phases
    from robustwalk.reduced import _anchored_values, _mixer_product

    model = build_model(6, 5, 2, 0)
    values = _anchored_values(5, gamma_grids(5, 0.1)[0].gamma)
    state = _mixer_product(model, values) @ zero_bar(model)
    assert abs(state[model.labels.index("us")]) <= 1e-12
    assert state[model.labels.index("vs")] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("counts", [DIM4_COUNTS, DIM8_COUNTS, RIGHT_ONLY_COUNTS])
@pytest.mark.parametrize("h", [3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_reduction_form_matches_stepped_state(counts, h, eps):
    deviation = verify_reduction(build_model(*counts), build_schedule(h, eps))
    assert deviation <= 1e-9, deviation


def test_reduction_rejects_oscillatory_schedule():
    with pytest.raises(ValueError):
        verify_reduction(build_model(*DIM4_COUNTS), oscillatory_schedule(5))
    # a robust walk needs h >= 3, also for a hand-built robust-labelled schedule
    with pytest.raises(ValueError, match="h >= 3"):
        gamma_grids(2, 0.1)
    with pytest.raises(ValueError, match="h >= 3"):
        verify_reduction(build_model(*DIM4_COUNTS), AngleSchedule(np.zeros(2), np.zeros(2), 0.1))
