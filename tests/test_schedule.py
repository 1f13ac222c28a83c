import itertools
import math

import numpy as np
import pytest

from robustwalk.chebyshev import arccot, gamma_params
from robustwalk.schedule import (
    AngleSchedule,
    build_schedule,
    gamma_grids,
    oscillatory_schedule,
    scenario_from_counts,
    step_bound,
    step_bound_threshold,
)


def test_epsilon_one_gives_pi_coin_angles():
    s = build_schedule(5, 1.0)
    for k in range(2, 6):
        assert s.alpha(k) == pytest.approx(math.pi, abs=1e-12)
    for k in range(1, 5):
        assert s.beta(k) == pytest.approx(-math.pi, abs=1e-12)
    assert s.alpha(1) == 0.0
    assert s.beta(5) == 0.0


def test_odd_alpha_frozen_value():
    # frozen: 2 arccot(tan(2 pi/5) sqrt(1 - gamma^2)) at eps = 0.1
    s = build_schedule(5, 0.1)
    assert s.alpha(2) == pytest.approx(1.5009092962580386, rel=1e-12)
    # every step against the scalar formula, j = 2 floor(k/2), on the h grid for
    # odd h; for even h the (h+1)-grid on even k and the (h-1)-grid on odd k
    for h, eps in itertools.product(range(3, 41), (0.05, 0.1, 0.5, 1.0)):
        s = build_schedule(h, eps)
        assert s.alpha(1) == 0.0
        for k in range(2, h + 1):
            n = h if h % 2 else (h + 1 if k % 2 == 0 else h - 1)
            g = gamma_params(n, eps)
            j = 2 * (k // 2)
            want = 2.0 * arccot(math.tan(j * math.pi / n) * math.sqrt(1.0 - g.gamma**2))
            assert s.alpha(k) == pytest.approx(want, abs=1e-14), (h, k)


def test_even_alphas_use_both_grids():
    s = build_schedule(4, 0.1)
    # alpha_2 lives on the (h+1)-grid, alpha_3 on the (h-1)-grid
    assert s.alpha(2) == pytest.approx(1.5009092962580386, rel=1e-12)
    assert s.alpha(3) == pytest.approx(4.648161773496005, rel=1e-12)
    g1 = gamma_params(5, 0.1)
    g2 = gamma_params(3, 0.1)
    assert gamma_grids(4, 0.1) == (g1, g2)


def test_free_angles_are_zero():
    for h in (3, 4, 7, 10):
        s = build_schedule(h, 0.3)
        assert (s.h, s.kind, s.parity) == (h, "robust", ("even", "odd")[h % 2])
        assert s.alpha(1) == 0.0
        assert s.beta(h) == 0.0


def test_defined_angles_in_range():
    for h in (3, 4, 9, 12, 25):
        for eps in (0.05, 0.5, 1.0):
            s = build_schedule(h, eps)
            assert np.all(s.alphas[1:] > 0.0)
            assert np.all(s.alphas[1:] < 2.0 * math.pi)
            assert np.all(s.betas[:-1] > -2.0 * math.pi)
            assert np.all(s.betas[:-1] < 0.0)


def test_betas_are_index_remapped_negations():
    for h in range(3, 41):
        s = build_schedule(h, 0.2)
        if h % 2:  # Appendix C map
            for i in range(2, h, 2):
                assert s.beta(i) == -s.alpha(h + 2 - i)
            for i in range(1, h - 1, 2):
                assert s.beta(i) == -s.alpha(h - i)
        else:
            for k in range(1, h):
                assert s.beta(k) == -s.alpha(h + 1 - k)
        # +0.0, not -0.0, so that the schedule table prints 0
        assert s.betas[-1] == 0.0 and math.copysign(1.0, s.betas[-1]) == 1.0


def test_schedule_depends_only_on_h_eps_convention():
    a = build_schedule(7, 0.17)
    b = build_schedule(7, 0.17)
    np.testing.assert_array_equal(a.alphas, b.alphas)
    np.testing.assert_array_equal(a.betas, b.betas)


def test_rejects_small_h_and_bad_epsilon():
    for h in (0, 1, 2):
        with pytest.raises(ValueError):
            build_schedule(h, 0.1)
    with pytest.raises(ValueError):
        build_schedule(5, 0.0)
    with pytest.raises(ValueError):
        build_schedule(5, 1.2)


def test_oscillatory_is_all_pi():
    s1 = oscillatory_schedule(1)
    np.testing.assert_array_equal(s1.alphas, [math.pi])
    np.testing.assert_array_equal(s1.betas, [math.pi])
    s3 = oscillatory_schedule(3)
    assert np.all(s3.alphas == math.pi) and np.all(s3.betas == math.pi)
    assert (s3.h, s3.kind, s3.epsilon) == (3, "oscillatory", None)
    with pytest.raises(ValueError):
        oscillatory_schedule(0)


# ---------------------------------------------------------------------------
# step bounds
# ---------------------------------------------------------------------------

def test_bound_one_side_fig_instance():
    assert step_bound_threshold(600, 1000, (10, 0), 0.1) == pytest.approx(15.286968691949983, rel=1e-12)
    assert step_bound(600, 1000, (10, 0), 0.1) == 16


def test_bound_unknown_eps_one():
    for N in (25, 100, 400):
        want = math.ceil(math.log(2.0) * math.sqrt(N) + 1.0)
        assert step_bound(N, N, (1, 1), 1.0) == want


def test_bound_two_sides():
    want = math.log(2.0 / math.sqrt(0.1)) * math.sqrt(200.0) + 1.0
    assert step_bound_threshold(600, 1000, (10, 5), 0.1) == pytest.approx(want, rel=1e-12)
    assert step_bound(600, 1000, (10, 5), 0.1) == 28


def test_bound_mirrored_one_side():
    left = step_bound(30, 80, (3, 0), 0.2)
    right = step_bound(80, 30, (0, 3), 0.2)
    assert left == right


def test_bound_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        step_bound(10, 10, (0, 0), 0.1)
    with pytest.raises(ValueError):
        step_bound(10, 10, (1, 1), 0.0)
    with pytest.raises(ValueError):
        step_bound_threshold(0, 10, (0, 1), 0.1)
    # counts outside [0, N] are rejected, not bounded or dropped
    for scenario in ((5, 0), (0, 5), (-2, 1), (1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            step_bound_threshold(3, 4, scenario, 0.1)
    # a count that is not an integer is rejected, not read as a fraction
    for scenario in ((0.5, 1), (1, 1.5), (2.0, 0)):
        with pytest.raises(ValueError, match="integers"):
            step_bound_threshold(10, 10, scenario, 0.1)
    # a scenario is a pair: a short or long one is rejected, not truncated
    for scenario in ((1,), (1, 0, 7)):
        with pytest.raises(ValueError):
            step_bound_threshold(10, 10, scenario, 0.1)
    with pytest.raises(ValueError):
        AngleSchedule(np.zeros(3), np.zeros(2))


def test_scenario_from_counts():
    assert scenario_from_counts(2, 0) == (2, 0)
    assert scenario_from_counts(0, 4) == (0, 4)
    assert scenario_from_counts(1, 1) == (1, 1)
    for bad in ((0, 0), (-1, 3)):
        with pytest.raises(ValueError):
            scenario_from_counts(*bad)
    # the same rules as check_counts: a count that is not an integer is rejected
    for bad in ((0.5, 0.5), (1.5, 0), (0, 2.0)):
        with pytest.raises(ValueError, match="integers"):
            scenario_from_counts(*bad)
