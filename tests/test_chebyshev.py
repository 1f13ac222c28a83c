import math

import numpy as np
import pytest

from robustwalk.chebyshev import (
    arccot,
    chebyshev_t,
    collapse_phases,
    gamma_params,
)

from collapse_recurrence import quasi_chebyshev


def cheb_recurrence(n, x):
    """Independent oracle: the plain three-term recurrence."""
    t_prev, t = 1.0, x
    if n == 0:
        return 1.0
    for _ in range(2, n + 1):
        t_prev, t = t, 2.0 * x * t - t_prev
    return t


def test_t0_is_one():
    assert chebyshev_t(0, 0.7) == 1.0


def test_t1_is_identity():
    assert chebyshev_t(1, 0.7) == 0.7


def test_t5_above_one_matches_recurrence():
    # frozen from cheb_recurrence(5, 1.3)
    assert chebyshev_t(5, 1.3) == pytest.approx(21.96688000000001, rel=1e-12)
    assert chebyshev_t(5, 1.3) == pytest.approx(cheb_recurrence(5, 1.3), rel=1e-12)


def test_matches_recurrence_on_grid():
    xs = np.linspace(-3.0, 3.0, 61)
    for n in range(0, 101, 7):
        for x in xs:
            want = cheb_recurrence(n, float(x))
            got = chebyshev_t(n, float(x))
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_matches_recurrence_high_degree():
    for n in (150, 200):
        for x in (-1.2, -0.4, 0.9, 1.05):
            want = cheb_recurrence(n, x)
            assert abs(chebyshev_t(n, x) - want) <= 1e-10 * max(1.0, abs(want))


def test_vectorized_input():
    xs = np.array([-2.0, -0.5, 0.5, 2.0])
    out = chebyshev_t(3, xs)
    assert out.shape == xs.shape
    for x, y in zip(xs, out):
        assert y == pytest.approx(cheb_recurrence(3, float(x)), rel=1e-12)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        chebyshev_t(-1, 0.5)


def test_arccot_branch():
    assert arccot(0.0) == pytest.approx(math.pi / 2)
    assert arccot(np.inf) == pytest.approx(0.0)
    assert arccot(-np.inf) == pytest.approx(math.pi)
    assert 0.0 < arccot(1e15) < 1e-14


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_epsilon_one_is_exactly_one():
    for h in (1, 4, 17):
        g = gamma_params(h, 1.0)
        assert g.gamma == 1.0
        assert g.inv_gamma == 1.0


def test_gamma_h5_eps01_frozen():
    # frozen from 1/cosh(arccosh(sqrt(10))/5)
    g = gamma_params(5, 0.1)
    assert g.gamma == pytest.approx(0.9373238322537375, rel=1e-14)
    assert chebyshev_t(5, g.inv_gamma) == pytest.approx(1.0 / math.sqrt(0.1), rel=1e-12)


def test_gamma_product_and_chebyshev_value():
    for h in (3, 5, 8, 14, 51):
        for eps in (0.01, 0.1, 0.5, 1.0):
            g = gamma_params(h, eps)
            assert abs(g.gamma * g.inv_gamma - 1.0) <= 1e-12
            assert 0.0 < g.gamma <= 1.0
            want = 1.0 / math.sqrt(eps)
            assert abs(chebyshev_t(h, g.inv_gamma) - want) <= 1e-9 * want


def test_gamma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gamma_params(5, 0.0)
    with pytest.raises(ValueError):
        gamma_params(5, 1.5)
    with pytest.raises(ValueError):
        gamma_params(0, 0.5)
    for h, gamma in ((0, 0.5), (5, 0.0), (5, 1.5)):
        with pytest.raises(ValueError):
            collapse_phases(h, gamma)


# ---------------------------------------------------------------------------
# phase sequences and the collapse identity
# ---------------------------------------------------------------------------

def test_phase_sequence_anchoring_and_diffs():
    seq = collapse_phases(7, gamma_params(7, 0.1).gamma)
    assert seq[0] == 0.0
    assert len(seq) == 7
    assert len(np.diff(seq)) == 6


def test_phase_diff_formula():
    g = gamma_params(5, 0.25)
    diffs = np.diff(collapse_phases(5, g.gamma))
    spread = math.sqrt(1.0 - g.gamma**2)
    for k in range(1, 5):
        want = (-1.0) ** k * math.pi - 2.0 * arccot(math.tan(k * math.pi / 5) * spread)
        assert diffs[k - 1] == pytest.approx(want, abs=1e-15)


def test_epsilon_one_degenerate_diffs():
    # gamma = 1 collapses every arccot argument to 0, so each diff is (-1)^k pi - pi
    diffs = np.diff(collapse_phases(5, 1.0))
    for k in range(1, 5):
        want = (-1.0) ** k * math.pi - math.pi
        assert diffs[k - 1] == pytest.approx(want, abs=1e-15)


def test_quasi_chebyshev_at_one_has_unit_modulus():
    seq = collapse_phases(3, gamma_params(3, 0.25).gamma)
    assert abs(quasi_chebyshev(3, 1.0, seq)) == pytest.approx(1.0, abs=1e-12)


def test_quasi_chebyshev_h5_frozen():
    # frozen from chebyshev_t(5, 0.9/gamma) / chebyshev_t(5, 1/gamma)
    g = gamma_params(5, 0.1)
    seq = collapse_phases(5, g.gamma)
    got = quasi_chebyshev(5, 0.9, seq)
    assert got.real == pytest.approx(0.048835303912133574, abs=1e-12)
    assert abs(got.imag) <= 1e-12


def test_quasi_chebyshev_odd_at_zero():
    g = gamma_params(7, 0.5)
    seq = collapse_phases(7, g.gamma)
    assert abs(quasi_chebyshev(7, 0.0, seq)) <= 1e-12


def test_quasi_chebyshev_rejects_even_or_small_h():
    seq = collapse_phases(4, 0.9)
    with pytest.raises(ValueError):
        quasi_chebyshev(4, 0.5, seq)
    with pytest.raises(ValueError):
        quasi_chebyshev(1, 0.5, collapse_phases(1, 0.9))


def test_collapse_identity_grid():
    # the decisive property: the damped recurrence equals the Chebyshev ratio
    xs = np.linspace(-1.0, 1.0, 101)
    for h in range(3, 52, 2):
        for eps in (0.01, 0.1, 0.5, 1.0):
            g = gamma_params(h, eps)
            seq = collapse_phases(h, g.gamma)
            denom = chebyshev_t(h, g.inv_gamma)
            for x in xs:
                want = chebyshev_t(h, float(x) * g.inv_gamma) / denom
                got = quasi_chebyshev(h, float(x), seq)
                assert abs(got - want) <= 1e-9


def test_scaled_ratio_bounded_on_interval():
    # |T_h(x/gamma)| <= T_h(1/gamma) = 1/sqrt(eps) on [-1, 1]
    xs = np.linspace(-1.0, 1.0, 101)
    for h in (3, 9, 21):
        for eps in (0.01, 0.1, 0.5, 1.0):
            g = gamma_params(h, eps)
            bound = chebyshev_t(h, g.inv_gamma)
            vals = np.abs(chebyshev_t(h, xs * g.inv_gamma))
            assert np.all(vals <= bound * (1.0 + 1e-12))
            assert bound == pytest.approx(1.0 / math.sqrt(eps), rel=1e-9)
