"""Coin/oracle angle schedules and the step-count bounds.

A schedule depends only on (h, epsilon) -- never on the graph or the marked
sets.  The coin angles are ``chebyshev.grid_angle`` on the Chebyshev grids
of ``gamma_grids``: the h grid for odd h, the h+1 grid (even steps) and the
h-1 grid (odd steps) for even h.  For every h the oracle angles are the coin
angles reversed and negated, beta_i = -alpha_{h+1-i}.

For odd h the paper gives two different beta index maps: the main text
assigns beta_i = -alpha_{h+2-i} to odd i and -alpha_{h-i} to even i, while
Appendix C swaps those parity roles.  Only the Appendix C map reproduces the
closed-form success probability (the main-text map is off by more than 1e-3
at h = 5, see ``test_rejected_convention_fails_closed_form``), and since
alpha_{2m+1} = alpha_{2m} for odd h it is exactly the reversal; the
closed-form verification suite is the guard against a wrong map.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chebyshev import GammaParams, check_epsilon, check_steps, gamma_params, grid_angle


@dataclass(frozen=True)
class AngleSchedule:
    """Per-step angles for an h-step walk.

    ``alphas[k-1]`` / ``betas[k-1]`` are the coin / oracle angles of step k.
    The free angles alpha_1 and beta_h are fixed to 0.  A schedule built for
    an error floor ``epsilon`` is robust; one without is oscillatory.
    """

    alphas: np.ndarray
    betas: np.ndarray
    epsilon: float | None = None

    def __post_init__(self):
        if len(self.alphas) != len(self.betas):
            raise ValueError("angle arrays must have one entry per step")

    @property
    def h(self) -> int:
        return len(self.alphas)

    @property
    def kind(self) -> str:
        return "oscillatory" if self.epsilon is None else "robust"

    @property
    def parity(self) -> str:
        return "odd" if self.h % 2 else "even"

    def alpha(self, k: int) -> float:
        """Coin angle of step k (1-indexed)."""
        return float(self.alphas[k - 1])

    def beta(self, k: int) -> float:
        """Oracle angle of step k (1-indexed)."""
        return float(self.betas[k - 1])


def gamma_grids(h: int, epsilon: float) -> tuple[GammaParams, ...]:
    """The Chebyshev grids of an h-step robust walk, which needs h >= 3: (gamma_h,)
    for odd h and (gamma_{h+1}, gamma_{h-1}) for even h, each checked by
    ``gamma_params``.  Even steps use the first grid and odd steps the last."""
    if h < 3:
        raise ValueError(f"robust walks need h >= 3, got {h}")
    if h % 2:
        return (gamma_params(h, epsilon),)
    return gamma_params(h + 1, epsilon), gamma_params(h - 1, epsilon)


def build_schedule(h: int, epsilon: float) -> AngleSchedule:
    """Build the robust h-step schedule for error floor epsilon.

    alpha_1 = 0 and alpha_k = grid_angle(j, n, gamma_n) with j = 2 floor(k/2),
    where n is the grid of step k's parity; beta_h = 0.
    """
    grids = gamma_grids(h, epsilon)
    alphas = np.zeros(h)
    alphas[1::2] = grid_angle(np.arange(2, h + 1, 2), grids[0].h, grids[0].gamma)
    alphas[2::2] = grid_angle(np.arange(2, h, 2), grids[-1].h, grids[-1].gamma)
    betas = 0.0 - alphas[::-1]  # not -alphas[::-1], which makes beta_h = -0.0
    return AngleSchedule(alphas, betas, epsilon)


def oscillatory_schedule(h: int) -> AngleSchedule:
    """The plain walk-search schedule: every angle equals pi."""
    check_steps(h)
    angles = np.full(h, np.pi)
    return AngleSchedule(angles, angles.copy())


def scenario_from_counts(n_l: int, n_r: int) -> tuple[int, int]:
    """The scenario (n_l, n_r), after the count rules needing no side size: integers, none negative, one marked."""
    if not (isinstance(n_l, numbers.Integral) and isinstance(n_r, numbers.Integral)):
        raise ValueError("marked counts must be integers")
    if n_l < 0 or n_r < 0:
        raise ValueError("marked counts out of range: a count is negative")
    if n_l < 1 and n_r < 1:
        raise ValueError("at least one marked vertex is required")
    return n_l, n_r


def check_sides(N_l: int, N_r: int) -> None:
    """The one owner of the side-size rule: both sizes are integers of at least 1."""
    if not (isinstance(N_l, numbers.Integral) and isinstance(N_r, numbers.Integral)):
        raise ValueError("side sizes must be integers")
    if N_l < 1 or N_r < 1:
        raise ValueError("side sizes must be positive")


def check_counts(N_l: int, N_r: int, n_l: int, n_r: int) -> None:
    """Every count rule: :func:`check_sides`, :func:`scenario_from_counts` and n <= N per side."""
    check_sides(N_l, N_r)
    scenario_from_counts(n_l, n_r)
    if n_l > N_l or n_r > N_r:
        raise ValueError("marked counts out of range")


def step_bound_threshold(N_l: int, N_r: int, scenario: tuple[int, int], epsilon: float) -> float:
    """Real-valued step threshold before rounding up: ln(2/sqrt(eps)) sqrt(N/n) + 1
    at the largest N/n over the marked sides.

    ``scenario`` is the pair of marked counts (n_l, n_r), 0 for an unmarked
    side.  Unknown counts are (1, 1): one marked vertex per side is the worst case.
    """
    check_epsilon(epsilon)
    n_l, n_r = scenario
    check_counts(N_l, N_r, n_l, n_r)
    ratios = [N / n for N, n in ((N_l, n_l), (N_r, n_r)) if n >= 1]
    return math.log(2.0 / math.sqrt(epsilon)) * math.sqrt(max(ratios)) + 1.0


def step_bound(N_l: int, N_r: int, scenario: tuple[int, int], epsilon: float) -> int:
    """Smallest integer step count meeting the threshold for this scenario."""
    return math.ceil(step_bound_threshold(N_l, N_r, scenario, epsilon))
