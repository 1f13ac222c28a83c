"""Closed-form success probabilities and robust-vs-oscillatory comparisons.

The closed forms take the marked fraction(s) and evaluate Chebyshev values at
arguments x / gamma; when the step count is below the bound those arguments
exceed 1 and the probability legitimately falls below the floor -- that is
reported as-is, not treated as an error.

Two marked sides never need more steps than one: for h >= 3, eps in (0, 1]
and fractions r_l, r_r in (0, 1], P_two(h; r_l, r_r) >= max(P_one(h; r_l),
P_one(h; r_r)).  Proof: x = sqrt(1 - r) gives 0 <= x/gamma_n <= 1/gamma_n;
T_n^2 is at most 1 on [0, 1] and increases on [1, inf), and T_n(1/gamma_n) =
1/sqrt(eps), so every factor T_n(x/gamma_n)^2 is at most 1/eps.  Bounding the
left factor of each two-sided product (one for odd h, two for even h) by 1/eps
leaves 1 - eps * mean over the grids of T_m(x_r/gamma_m)^2 = P_one(h; r_r);
the right factors give P_one(h; r_l).  So the worst marking is one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chebyshev import chebyshev_t, check_epsilon
from .schedule import build_schedule, check_counts, gamma_grids, oscillatory_schedule


def _grid_terms(h: int, epsilon: float, *ratios: float) -> list[list[float]]:
    """T_n(x/gamma_n)^2 with x = sqrt(1 - ratio) over the grids n of an h-step
    walk, one list per marked fraction; :func:`gamma_grids` checks h and epsilon."""
    grids = gamma_grids(h, epsilon)
    for r in ratios:
        if not 0.0 < r <= 1.0:
            raise ValueError(f"marked fractions must be in (0, 1], got {r}")
    xs = [math.sqrt(1.0 - r) for r in ratios]
    return [[chebyshev_t(g.h, x * g.inv_gamma) ** 2 for g in grids] for x in xs]


def closed_form_ph_one_side(h: int, epsilon: float, ratio_l: float) -> float:
    """Success probability after h steps with marked fraction ratio_l on one side:
    1 - eps * mean over the grids n of T_n(x/gamma_n)^2, with x = sqrt(1 - ratio).
    """
    (terms,) = _grid_terms(h, epsilon, ratio_l)
    return 1.0 - epsilon * (sum(terms) / len(terms))


def closed_form_ph_two_sides(h: int, epsilon: float, ratio_l: float, ratio_r: float) -> float:
    """Success probability with marked fractions on both sides:
    1 - eps^2 * mean over the grid pairs (n, m) = (first, last), (last, first)
    of T_n(x_l/gamma_n)^2 T_m(x_r/gamma_m)^2 (one pair for odd h).
    """
    left, right = _grid_terms(h, epsilon, ratio_l, ratio_r)
    return 1.0 - epsilon**2 * (sum(a * b for a, b in zip(left, right[::-1])) / len(left))


def closed_form_ph(h: int, epsilon: float, N_l: int, N_r: int, n_l: int, n_r: int) -> float:
    """The one-sided form at the marked side's fraction, or the two-sided form
    at both; the counts are validated by :func:`robustwalk.schedule.check_counts`."""
    check_counts(N_l, N_r, n_l, n_r)
    ratios = [n / N for N, n in ((N_l, n_l), (N_r, n_r)) if n]
    form = closed_form_ph_two_sides if len(ratios) == 2 else closed_form_ph_one_side
    return form(h, epsilon, *ratios)


@dataclass(frozen=True)
class CompareRow:
    """Success probabilities at step count h; None where a curve was not computed."""

    h: int
    p_robust: float | None
    p_oscillatory: float | None
    p_closed_form: float | None


def sweep(run, target, epsilon: float, h_max: int, robust: bool = True, oscillatory: bool = True) -> list[CompareRow]:
    """Per-h success probabilities for h = 1..h_max.

    ``run(target, schedule)`` runs one schedule and returns (state, series):
    ``fullspace.run`` on a ``BipartiteInstance``, ``run_reduced`` on a
    ``ReducedModel`` or ``dense.run_dense``.  The closed form reads the marking
    from the target's (N_l, N_r, n_l, n_r).  Each robust point (h >= 3) is a
    fresh h-step run, since the schedule depends on h, paired with its closed
    form; the oscillatory points come from a single h_max-step trajectory
    since its angles are constant.  Epsilon is checked before the first run.
    """
    check_epsilon(epsilon)
    counts = (target.N_l, target.N_r, target.n_l, target.n_r)
    osc = run(target, oscillatory_schedule(h_max))[1].entries if oscillatory else None
    rows = []
    for h in range(1, h_max + 1):
        p_robust = p_closed_form = None
        if robust and h >= 3:
            p_robust = run(target, build_schedule(h, epsilon))[1].final()
            p_closed_form = closed_form_ph(h, epsilon, *counts)
        rows.append(CompareRow(h, p_robust, osc[h] if oscillatory else None, p_closed_form))
    return rows
