"""Seeded verification suites shared by the test suite and the verify CLI.

Four suites over fixed grids, each reporting a max deviation against its
tolerance:

* identities      -- the R/A operator identities in both subspace dimensions,
  over seeded random angles,
* reductions      -- product-form reduction of the final state, h = 3..9 at
  eps = 0.1 and 0.5 in both dimensions (28 cases),
* engines         -- structured full-space vs naive dense vs reduced runs of
  12 steps at eps = 0.1 on every small instance with 2 N_l N_r <= 128 (1332),
* closed-form     -- reduced simulation vs the closed-form probabilities,
  h = 3..20 at four eps on five count sets (360 points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense, fullspace
from .analysis import sweep
from .fullspace import BipartiteInstance
from .reduced import build_model, run_reduced, verify_identities, verify_reduction
from .schedule import build_schedule, oscillatory_schedule

IDENTITY_MODELS = {
    4: ((5, 4, 1, 0), (7, 5, 3, 0), (4, 4, 4, 0)),
    8: ((5, 4, 1, 1), (7, 5, 3, 2)),
}

REDUCTION_MODELS = ((6, 5, 2, 0), (6, 5, 2, 2))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance


def identity_suite(trials: int, seed: int = 42, coin_builder=None) -> list[SuiteResult]:
    """All six operator identities over seeded random angles, dims 4 and 8."""
    worst: dict[str, float] = {}
    for dim, specs in IDENTITY_MODELS.items():
        for i, counts in enumerate(specs):
            model = build_model(*counts)
            devs = verify_identities(model, trials, seed=seed + dim + i, coin_builder=coin_builder)
            for name, dev in devs.items():
                worst[name] = max(worst.get(name, 0.0), dev)
    return [
        SuiteResult(f"identity {name}", dev, 1e-10, "dims 4 and 8")
        for name, dev in worst.items()
    ]


def reduction_suite() -> SuiteResult:
    """Final state vs its R/A product form for h = 3..9 at eps = 0.1 and 0.5:
    both parities, dimensions 4 and 8."""
    worst, worst_case = 0.0, ""
    for counts in REDUCTION_MODELS:
        model = build_model(*counts)
        for h in range(3, 10):
            for eps in (0.1, 0.5):
                deviation = verify_reduction(model, build_schedule(h, eps))
                if deviation > worst:
                    worst, worst_case = deviation, f"dim={model.dim} h={h} eps={eps}"
    return SuiteResult("reduction forms", worst, 1e-9, worst_case)


def small_instances():
    """Every (N_l, N_r) with 2 N_l N_r <= 128, with a canonical family of
    marked configurations per size pair: 1332 instances."""
    out = []
    for N_l in range(1, 65):
        for N_r in range(1, 64 // N_l + 1):
            configs = {
                (1, 0),
                (N_l, 0),
                (0, 1),
                (1, 1),
                ((N_l + 1) // 2, (N_r + 1) // 2),
            }
            for n_l, n_r in sorted(configs):
                if n_l <= N_l and n_r <= N_r and n_l + n_r >= 1:
                    out.append(BipartiteInstance.from_counts(N_l, N_r, n_l, n_r))
    return out


def engine_suite(sample: int | None = None, seed: int = 42) -> SuiteResult:
    """Structured vs dense vs reduced success series on the small instances
    (a seeded sample of ``sample`` of them, if given), under the robust
    12-step schedule at eps = 0.1 and the oscillatory 12-step schedule."""
    instances = small_instances()
    if sample is not None and sample < len(instances):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(instances), size=sample, replace=False)
        instances = [instances[i] for i in sorted(idx)]
    schedules = [build_schedule(12, 0.1), oscillatory_schedule(12)]
    worst, worst_case = 0.0, ""
    for inst in instances:
        model = build_model(inst.N_l, inst.N_r, inst.n_l, inst.n_r)
        for sched in schedules:
            _, s_full = fullspace.run(inst, sched)
            _, s_dense = dense.run_dense(inst, sched)
            _, s_red = run_reduced(model, sched)
            p_full = s_full.probabilities()
            dev = max(
                float(np.max(np.abs(p_full - s_dense.probabilities()))),
                float(np.max(np.abs(p_full - s_red.probabilities()))),
            )
            if dev > worst:
                worst = dev
                worst_case = f"N_l={inst.N_l} N_r={inst.N_r} n_l={inst.n_l} n_r={inst.n_r} {sched.kind}"
    return SuiteResult("engine equivalence", worst, 1e-10, worst_case)


def closed_form_suite() -> SuiteResult:
    """Reduced simulation vs closed form for h = 3..20 at four eps on five
    count sets, one and two marked sides."""
    worst, worst_case, points = 0.0, "", 0
    for counts in ((30, 20, 1, 0), (17, 40, 3, 0), (50, 11, 10, 0), (8, 6, 1, 1), (12, 50, 2, 3)):
        model = build_model(*counts)
        for eps in (0.05, 0.1, 0.5, 1.0):
            for row in sweep(run_reduced, model, eps, 20, oscillatory=False)[2:]:  # robust from h = 3
                dev = abs(row.p_robust - row.p_closed_form)
                points += 1
                if dev > worst:
                    worst, worst_case = dev, f"counts={counts} h={row.h} eps={eps}"
    return SuiteResult("closed-form equivalence", worst, 1e-9, f"{points} grid points; worst {worst_case}")


def run_all(trials: int, seed: int, quick: bool = True, coin_builder=None) -> list[SuiteResult]:
    """Every suite; `quick` subsamples the engine grid for interactive use."""
    results = identity_suite(trials, seed, coin_builder=coin_builder)
    results.append(reduction_suite())
    results.append(engine_suite(sample=40 if quick else None, seed=seed))
    results.append(closed_form_suite())
    return results
