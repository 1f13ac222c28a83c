import dataclasses

import numpy as np

from robustwalk import verification
from robustwalk.analysis import closed_form_ph
from robustwalk.reduced import build_model, run_reduced, verify_reduction
from robustwalk.schedule import build_schedule
from robustwalk.verification import (
    closed_form_suite,
    engine_suite,
    identity_suite,
    reduction_suite,
    small_instances,
)


def main_text_betas(alphas):
    """The paper's main-text odd-h oracle-angle map, which swaps the parity
    roles of the Appendix C map; i = 1 and i = h-1 keep their Appendix C
    assignments."""
    h = len(alphas)
    a = np.concatenate([[0.0], alphas])  # 1-indexed
    b = np.zeros(h + 1)
    for i in range(3, h - 1, 2):
        b[i] = -a[h + 2 - i]
    for i in range(2, h - 2, 2):
        b[i] = -a[h - i]
    b[1] = -a[h - 1]
    b[h - 1] = -a[3]
    return b[1:]


def test_rejected_convention_fails_closed_form():
    # the alternative oracle-angle assignment visibly breaks the closed form,
    # so the closed-form suite guards the implemented map
    counts = (7, 5, 2, 0)
    model = build_model(*counts)
    appendix_c = build_schedule(5, 0.1)
    main_text = dataclasses.replace(appendix_c, betas=main_text_betas(appendix_c.alphas))
    assert not np.array_equal(main_text.betas, appendix_c.betas)
    _, series = run_reduced(model, main_text)
    assert abs(series.final() - closed_form_ph(5, 0.1, *counts)) > 1e-3


def test_identity_suite_passes():
    for result in identity_suite(trials=50, seed=5):
        assert result.ok, result


def test_reduction_suite_passes(monkeypatch):
    cases = []

    def record(model, schedule):
        cases.append((model.dim, schedule.h, schedule.epsilon))
        return verify_reduction(model, schedule)

    monkeypatch.setattr(verification, "verify_reduction", record)
    result = reduction_suite()
    assert result.ok, result
    # h = 3..9 at two epsilons in each of dimensions 4 and 8
    assert len(cases) == len(set(cases)) == 28
    assert {dim for dim, _, _ in cases} == {4, 8}
    assert {h for _, h, _ in cases} == set(range(3, 10))


def test_engine_suite_sampled():
    result = engine_suite(sample=12, seed=9)
    assert result.ok, result


def test_closed_form_suite_counts_points():
    result = closed_form_suite()
    assert result.ok, result
    # h = 3..20 at four epsilons on five count sets
    assert result.detail.startswith("360 grid points")


def test_small_instance_enumeration_caps_dimension():
    instances = small_instances()
    # the engine grid: 24 steps per instance in each engine (12 robust, 12 oscillatory)
    assert len(instances) == 1332
    assert all(2 * inst.N_l * inst.N_r <= 128 for inst in instances)
    assert all(inst.n_l + inst.n_r >= 1 for inst in instances)
    # every admissible size pair appears
    pairs = {(inst.N_l, inst.N_r) for inst in instances}
    assert (1, 64) in pairs and (8, 8) in pairs and (64, 1) in pairs
