"""Acceptance suite: the eight headline guarantees, each printed as a
pass/fail line with its tolerance and runtime."""

import math
import time

import numpy as np

from robustwalk.chebyshev import chebyshev_t, collapse_phases, gamma_params
from robustwalk.reduced import build_model, run_reduced, verify_reduction
from robustwalk.schedule import build_schedule, oscillatory_schedule
from robustwalk.verification import closed_form_suite, engine_suite, identity_suite

from collapse_recurrence import quasi_chebyshev

FIG_A = (600, 1000, 10, 0)   # one-sided marking
FIG_C = (600, 1000, 10, 5)   # two-sided marking


def report(number, ok, summary, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {summary} ({elapsed:.2f}s)")
    assert ok, f"criterion {number}: {summary}"


def robust_finals(counts, epsilon, h_lo, h_hi):
    model = build_model(*counts)
    out = {}
    for h in range(h_lo, h_hi + 1):
        _, series = run_reduced(model, build_schedule(h, epsilon))
        out[h] = series.final()
    return out


def test_criterion_1_one_sided_floor():
    t0 = time.perf_counter()
    finals = robust_finals(FIG_A, 0.1, 16, 100)
    worst = min(finals.values())
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.9 - 1e-6 and elapsed < 1.0
    report(1, ok, f"one-sided floor: min P = {worst:.9f} >= 0.9 - 1e-6 over h in [16, 100]", elapsed)


def test_criterion_2_two_sided_floor():
    t0 = time.perf_counter()
    bound = math.ceil(math.log(2 / math.sqrt(0.1)) * math.sqrt(200) + 1)
    assert bound == 28
    finals = robust_finals(FIG_C, 0.1, bound, 100)
    worst = min(finals.values())
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.9 and elapsed < 1.0
    report(2, ok, f"two-sided floor: min P = {worst:.9f} >= 0.9 over h in [{bound}, 100]", elapsed)


def test_criterion_3_closed_form_equivalence():
    t0 = time.perf_counter()
    result = closed_form_suite()
    elapsed = time.perf_counter() - t0
    points = int(result.detail.split()[0])
    ok = result.ok and points >= 200 and elapsed < 10.0
    report(3, ok, f"closed form vs simulation: {points} points, max |diff| = {result.max_deviation:.3e} <= 1e-9", elapsed)


def test_criterion_4_engine_equivalence():
    t0 = time.perf_counter()
    result = engine_suite(sample=None)
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 30.0
    report(4, ok, f"structured/dense/reduced agree: max |diff| = {result.max_deviation:.3e} <= 1e-10", elapsed)


def test_criterion_5_identity_suite():
    t0 = time.perf_counter()
    results = identity_suite(trials=1000, seed=42)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_deviation for r in results)
    ok = all(r.ok for r in results) and elapsed < 5.0
    report(5, ok, f"operator identities over 1000 trials, both dims: max deviation = {worst:.3e} <= 1e-10", elapsed)


def test_criterion_6_reduction_forms():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for counts in ((6, 5, 2, 0), (6, 5, 2, 2)):
        model = build_model(*counts)
        for h in (3, 5, 7, 9, 4, 6, 8):
            for eps in (0.1, 0.5):
                deviation = verify_reduction(model, build_schedule(h, eps))
                worst = max(worst, deviation)
                ok = ok and deviation <= 1e-9
    elapsed = time.perf_counter() - t0
    report(6, ok, f"product-form reductions, dims 4 and 8: max deviation = {worst:.3e} <= 1e-9", elapsed)


def test_criterion_7_robustness_contrast():
    t0 = time.perf_counter()
    finals = robust_finals(FIG_A, 0.1, 16, 100)
    robust_min = min(finals.values())
    _, osc = run_reduced(build_model(*FIG_A), oscillatory_schedule(100))
    osc_min = min(osc.entries[16:101])
    elapsed = time.perf_counter() - t0
    ok = osc_min < 0.5 and robust_min >= 0.9
    report(
        7,
        ok,
        f"contrast: oscillatory dips to {osc_min:.6f} < 0.5 while robust stays >= {robust_min:.6f}",
        elapsed,
    )


def test_criterion_8_collapse_identity():
    t0 = time.perf_counter()
    xs = np.linspace(-1.0, 1.0, 101)
    worst_poly, worst_value = 0.0, 0.0
    for h in range(3, 52, 2):
        for eps in (0.01, 0.1, 0.5, 1.0):
            g = gamma_params(h, eps)
            seq = collapse_phases(h, g.gamma)
            denom = chebyshev_t(h, g.inv_gamma)
            worst_value = max(worst_value, abs(denom - 1 / math.sqrt(eps)) * math.sqrt(eps))
            for x in xs:
                want = chebyshev_t(h, float(x) * g.inv_gamma) / denom
                worst_poly = max(worst_poly, abs(quasi_chebyshev(h, float(x), seq) - want))
    elapsed = time.perf_counter() - t0
    ok = worst_poly <= 1e-9 and worst_value <= 1e-9
    report(
        8,
        ok,
        f"recurrence collapse: max |a_h - ratio| = {worst_poly:.3e} <= 1e-9, "
        f"max rel |T_h(1/g) - 1/sqrt(eps)| = {worst_value:.3e} <= 1e-9",
        elapsed,
    )
