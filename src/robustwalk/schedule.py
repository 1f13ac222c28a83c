"""Coin/oracle angle schedules and the step-count bounds.

A schedule depends only on (h, epsilon) -- never on the graph or the marked
sets.  The coin angles follow the arccot formulas on the h grid (odd h) or the
interleaved h+1 / h-1 grids (even h).  The oracle angles are an index-remapped
negation of the coin angles.

For odd h the paper gives two different beta index maps: the main text
assigns beta_i = -alpha_{h+2-i} to odd i and -alpha_{h-i} to even i, while
Appendix C swaps those parity roles.  Only the Appendix C map reproduces the
closed-form success probability (the main-text map is off by more than 1e-3
at h = 5), so it is the one implemented here; the closed-form verification
suite is the guard against a wrong map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import GammaParams, arccot, gamma_params


@dataclass(frozen=True)
class AngleSchedule:
    """Per-step angles for an h-step walk.

    ``alphas[k-1]`` / ``betas[k-1]`` are the coin / oracle angles of step k.
    The free angles alpha_1 and beta_h are fixed to 0.  ``gamma_set`` is a
    single GammaParams for odd h or the (h+1, h-1) pair for even h; None for
    the oscillatory schedule.
    """

    h: int
    epsilon: float | None
    alphas: np.ndarray
    betas: np.ndarray
    parity: str
    gamma_set: GammaParams | tuple[GammaParams, GammaParams] | None
    kind: str

    def __post_init__(self):
        if len(self.alphas) != self.h or len(self.betas) != self.h:
            raise ValueError("angle arrays must have one entry per step")

    def alpha(self, k: int) -> float:
        """Coin angle of step k (1-indexed)."""
        return float(self.alphas[k - 1])

    def beta(self, k: int) -> float:
        """Oracle angle of step k (1-indexed)."""
        return float(self.betas[k - 1])


def build_schedule(h: int, epsilon: float) -> AngleSchedule:
    """Build the robust h-step schedule for error floor epsilon.

    Odd h uses one gamma on the k pi / h grid; even h interleaves gamma_1 on
    the k pi / (h+1) grid (even steps) with gamma_2 on the (k-1) pi / (h-1)
    grid (odd steps).  The oracle angles negate the coin angles under an index
    map: odd h takes beta_i = -alpha_{h+2-i} for even i and -alpha_{h-i} for
    odd i <= h-2 (Appendix C); even h takes beta_i = -alpha_{h+1-i}.
    alpha_1 and beta_h are free and set to 0.
    """
    if h < 3:
        raise ValueError(f"robust schedules need h >= 3, got {h}")
    a = np.zeros(h + 1)  # 1-indexed scratch; slot 0 unused
    b = np.zeros(h + 1)
    if h % 2 == 1:
        gset = gamma_params(h, epsilon)
        spread = math.sqrt(max(0.0, 1.0 - gset.gamma**2))
        for k in range(2, h, 2):
            a[k] = 2.0 * arccot(math.tan(k * math.pi / h) * spread)
        for k in range(3, h + 1, 2):
            a[k] = 2.0 * arccot(math.tan((k - 1) * math.pi / h) * spread)
        for i in range(2, h, 2):
            b[i] = -a[h + 2 - i]
        for i in range(1, h - 1, 2):
            b[i] = -a[h - i]
        parity = "odd"
    else:
        g1 = gamma_params(h + 1, epsilon)
        g2 = gamma_params(h - 1, epsilon)
        s1 = math.sqrt(max(0.0, 1.0 - g1.gamma**2))
        s2 = math.sqrt(max(0.0, 1.0 - g2.gamma**2))
        for k in range(2, h + 1, 2):
            a[k] = 2.0 * arccot(math.tan(k * math.pi / (h + 1)) * s1)
        for k in range(3, h, 2):
            a[k] = 2.0 * arccot(math.tan((k - 1) * math.pi / (h - 1)) * s2)
        for k in range(1, h):
            b[k] = -a[h + 1 - k]
        gset = (g1, g2)
        parity = "even"

    return AngleSchedule(
        h=h,
        epsilon=epsilon,
        alphas=a[1:].copy(),
        betas=b[1:].copy(),
        parity=parity,
        gamma_set=gset,
        kind="robust",
    )


def oscillatory_schedule(h: int) -> AngleSchedule:
    """The plain walk-search schedule: every angle equals pi."""
    if h < 1:
        raise ValueError(f"step count must be positive, got {h}")
    angles = np.full(h, np.pi)
    return AngleSchedule(
        h=h,
        epsilon=None,
        alphas=angles,
        betas=angles.copy(),
        parity="odd" if h % 2 else "even",
        gamma_set=None,
        kind="oscillatory",
    )


@dataclass(frozen=True)
class MarkingScenario:
    """What is known about the marked vertices when choosing h.

    kind 'one-side' needs n_l >= 1, n_r = 0 (or the mirror image);
    'two-sides' needs both counts >= 1; 'unknown' ignores the counts.
    """

    kind: str
    n_l: int = 0
    n_r: int = 0


def step_bound_threshold(N_l: int, N_r: int, scenario: MarkingScenario, epsilon: float) -> float:
    """Real-valued step threshold before rounding up."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if N_l < 1 or N_r < 1:
        raise ValueError("side sizes must be positive")
    factor = math.log(2.0 / math.sqrt(epsilon))
    if scenario.kind == "one-side":
        if scenario.n_l >= 1 and scenario.n_r == 0:
            ratio = N_l / scenario.n_l
        elif scenario.n_r >= 1 and scenario.n_l == 0:
            ratio = N_r / scenario.n_r
        else:
            raise ValueError("one-side scenario needs marked vertices on exactly one side")
        return factor * math.sqrt(ratio) + 1.0
    if scenario.kind == "two-sides":
        if scenario.n_l < 1 or scenario.n_r < 1:
            raise ValueError("two-sides scenario needs marked vertices on both sides")
        return factor * max(math.sqrt(N_l / scenario.n_l), math.sqrt(N_r / scenario.n_r)) + 1.0
    if scenario.kind == "unknown":
        return factor * max(math.sqrt(N_l), math.sqrt(N_r)) + 1.0
    raise ValueError(f"unknown scenario kind {scenario.kind!r}")


def step_bound(N_l: int, N_r: int, scenario: MarkingScenario, epsilon: float) -> int:
    """Smallest integer step count meeting the threshold for this scenario."""
    return math.ceil(step_bound_threshold(N_l, N_r, scenario, epsilon))


def scenario_from_counts(n_l: int, n_r: int) -> MarkingScenario:
    """Scenario implied by explicit marked counts."""
    if n_l >= 1 and n_r >= 1:
        return MarkingScenario("two-sides", n_l, n_r)
    if n_l + n_r >= 1:
        return MarkingScenario("one-side", n_l, n_r)
    raise ValueError("at least one marked vertex is required")
