"""Re-runnable mutation checks for the gates the results rest on.

Each row of ``MUTANTS`` names a text replacement in one file of
``src/robustwalk`` and the tests expected to catch it.  For each row the
runner copies ``src/`` to a temporary directory, replaces the row's ``old``
text (which must occur exactly once) by ``new``, runs the named tests with
``PYTHONPATH`` pointing at the copy and reports the mutant as killed (a test
failed) or survived (all passed).  A survivor is a gap in the tests: report
it, do not delete the row.

Run from anywhere, with pytest installed:

    python3 mutation/run.py

It exits 1 if a mutant survived, a row no longer applies, or pytest could
not run the tests.  Standard library only; pytest runs in a subprocess.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/robustwalk, old text, new text, tests that must fail)
MUTANTS = [
    (
        "step bound 0.6x",
        "schedule.py",
        "return math.ceil(step_bound_threshold(N_l, N_r, scenario, epsilon))",
        "return math.ceil(0.6 * step_bound_threshold(N_l, N_r, scenario, epsilon))",
        ["tests/test_properties.py::test_closed_form_keeps_floor_from_bound"],
    ),
    (
        "step bound from the smallest N/n",
        "schedule.py",
        "math.sqrt(max(ratios))",
        "math.sqrt(min(ratios))",
        ["tests/test_schedule.py::test_bound_two_sides"],
    ),
    (
        "beta_h = -0.0",
        "schedule.py",
        "betas = 0.0 - alphas[::-1]",
        "betas = -alphas[::-1]",
        ["tests/test_schedule.py::test_betas_are_index_remapped_negations"],
    ),
    (
        "even-h gamma grids swapped",
        "schedule.py",
        "return gamma_params(h + 1, epsilon), gamma_params(h - 1, epsilon)",
        "return gamma_params(h - 1, epsilon), gamma_params(h + 1, epsilon)",
        ["tests/test_schedule.py::test_even_alphas_use_both_grids"],
    ),
    # one mutation, two rows: the coin angles and the collapse phases each
    # catch it, so both go through the one grid-angle formula
    (
        "grid-angle spread from gamma, not gamma^2 (coin angles)",
        "chebyshev.py",
        "spread = math.sqrt(max(0.0, 1.0 - gamma * gamma))",
        "spread = math.sqrt(max(0.0, 1.0 - gamma))",
        ["tests/test_schedule.py::test_odd_alpha_frozen_value"],
    ),
    (
        "grid-angle spread from gamma, not gamma^2 (collapse phases)",
        "chebyshev.py",
        "spread = math.sqrt(max(0.0, 1.0 - gamma * gamma))",
        "spread = math.sqrt(max(0.0, 1.0 - gamma))",
        ["tests/test_chebyshev.py::test_phase_diff_formula"],
    ),
    (
        "plain rl column mean",
        "fullspace.py",
        "np.subtract(c * _row_mean(rl_t), rl_t, out=rl_t)",
        "np.subtract(c * rl_t.mean(axis=0), rl_t, out=rl_t)",
        ["tests/test_fullspace.py::test_coin_rl_mean_matches_fsum"],
    ),
    (
        "whole rl block in one product",
        "fullspace.py",
        "_BLOCK_ROWS = 32",
        "_BLOCK_ROWS = 1 << 30",
        ["tests/test_fullspace.py::test_coin_rl_mean_matches_fsum"],
    ),
    (
        "128-row rl blocks",
        "fullspace.py",
        "_BLOCK_ROWS = 32",
        "_BLOCK_ROWS = 128",
        ["tests/test_fullspace.py::test_coin_block_size_keeps_rl_mean_within_3_ulps"],
    ),
    (
        "np.ascontiguousarray dropped from _row_mean",
        "fullspace.py",
        "block = np.ascontiguousarray(a[start:start + _BLOCK_ROWS])",
        "block = a[start:start + _BLOCK_ROWS]",
        ["tests/test_fullspace.py::test_layouts_give_the_same_results"],
    ),
    (
        "chunk one angle short",
        "reduced.py",
        "chunk = slice(start, start + _CHUNK)",
        "chunk = slice(start, start + _CHUNK - 1)",
        ["tests/test_reduced.py::test_run_reduced_matches_per_step_products_across_chunks"],
    ),
    (
        "two-sided closed form with eps, not eps^2",
        "analysis.py",
        "return 1.0 - epsilon**2 * (sum(a * b",
        "return 1.0 - epsilon * (sum(a * b",
        ["tests/test_analysis.py::test_closed_form_matches_simulation_small_grid"],
    ),
    (
        "unitarity check at 1e-2",
        "fullspace.py",
        "if abs(nrm - 1.0) > 1e-10:",
        "if abs(nrm - 1.0) > 1e-2:",
        ["tests/test_reduced.py::test_drift_names_the_step_past_a_chunk", "tests/test_cli.py::test_sweep_norm_drift_exits_1"],
    ),
    (
        "drift message names the step before the drifted one",
        "fullspace.py",
        "for k, nrm in enumerate(norms(states), start=done + 1):",
        "for k, nrm in enumerate(norms(states), start=done):",
        ["tests/test_reduced.py::test_drift_names_the_step_past_a_chunk"],
    ),
    (
        "block hit masses summed by einsum",
        "reduced.py",
        "return (rows.conj()[:, None, :] @ rows[:, :, None])[:, 0, 0].real",
        'return np.einsum("ij,ij->i", rows.conj(), rows).real',
        ["tests/test_reduced.py::test_block_hit_masses_equal_the_per_state_mass_bit_for_bit"],
    ),
    (
        "schedule reports a library ValueError as a usage error",
        "cli.py",
        "    sched = build_schedule(args.h, args.epsilon)\n",
        "    try:\n"
        "        sched = build_schedule(args.h, args.epsilon)\n"
        "    except ValueError as exc:\n"
        "        raise UsageError(str(exc)) from exc\n",
        ["tests/test_cli.py::test_library_value_error_propagates"],
    ),
    (
        "dense coin with e^{+i alpha}",
        "dense.py",
        "return [S @ ((1.0 - np.exp(-1j * alpha)) * (P @ psi) - psi)]",
        "return [S @ ((1.0 - np.exp(1j * alpha)) * (P @ psi) - psi)]",
        ["tests/test_dense.py::test_run_dense_matches_definitional_matrices"],
    ),
    (
        "parser errors exit instead of returning 2",
        "cli.py",
        "        raise UsageError(message)",
        "        super().error(message)",
        ["tests/test_cli.py::test_missing_subcommand_exits_2"],
    ),
    (
        "integer flags without an upper bound",
        "cli.py",
        "if above < value <= at_most:",
        "if above < value:",
        ["tests/test_cli.py::test_bad_input_exits_2_before_the_library_runs"],
    ),
    (
        "marked count above the side size accepted",
        "cli.py",
        '    if parsed > side_size:\n        raise UsageError(f"{flag} count {parsed} exceeds the side size {side_size}")\n',
        "",
        ["tests/test_cli.py::test_marked_side_checks_exit_2_before_the_library_runs"],
    ),
    (
        "missing --nl accepted",
        "cli.py",
        'graph.add_argument("--nl", type=_number(int, 0, MAX_SIDE), required=True,',
        'graph.add_argument("--nl", type=_number(int, 0, MAX_SIDE),',
        ["tests/test_cli.py::test_marked_side_checks_exit_2_before_the_library_runs"],
    ),
    (
        "step bound accepts counts above N",
        "schedule.py",
        '        raise ValueError("marked counts out of range")',
        "        pass",
        ["tests/test_schedule.py::test_bound_rejects_inconsistent_counts"],
    ),
    (
        "negative marked counts accepted",
        "schedule.py",
        '        raise ValueError("marked counts out of range: a count is negative")',
        "        pass",
        [
            "tests/test_schedule.py::test_bound_rejects_inconsistent_counts",
            "tests/test_schedule.py::test_scenario_from_counts",
        ],
    ),
    (
        "step bound pads a short scenario and truncates a long one",
        "schedule.py",
        "    n_l, n_r = scenario\n",
        "    n_l, n_r = (*scenario, 0)[:2]\n",
        ["tests/test_schedule.py::test_bound_rejects_inconsistent_counts"],
    ),
    (
        "non-integer marked counts accepted",
        "schedule.py",
        '        raise ValueError("marked counts must be integers")',
        "        pass",
        [
            "tests/test_schedule.py::test_bound_rejects_inconsistent_counts",
            "tests/test_reduced.py::test_build_model_rejects_empty_marking",
            "tests/test_analysis.py::test_closed_form_rejects_bad_inputs",
        ],
    ),
    (
        "non-integer marked ids accepted",
        "fullspace.py",
        '            raise ValueError("marked ids must be integers")',
        "            pass",
        ["tests/test_fullspace.py::test_instance_validation"],
    ),
    (
        "one-sided basis drops the other side's marked class",
        "reduced.py",
        'for c, n in (("u", self.n_l), ("t", self.n_r))',
        'for c, n in (("u", self.n_r), ("t", self.n_l))',
        ["tests/test_reduced.py::test_run_reduced_matches_fullspace_one_side"],
    ),
]


def run_tests(tests: list[str], mutation: tuple[str, str, str] | None = None) -> str:
    """Run ``tests`` against a copy of ``src/`` with ``mutation`` = (file,
    old, new) applied, if given."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutation:
            file, old, new = mutation
            target = src / "robustwalk" / file
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                return f"NOT APPLIED (old text occurs {text.count(old)} times)"
            target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode in (0, 1):
        return ("passed", "failed")[proc.returncode]
    return f"ERROR (pytest exit {proc.returncode}): {proc.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    # Unmutated, every named test must pass, or a kill would prove nothing.
    baseline = run_tests(sorted({test for *_, tests in MUTANTS for test in tests}))
    if baseline != "passed":
        print(f"the named tests do not pass on the unmutated source: {baseline}")
        return 1
    failures = 0
    for name, file, old, new, tests in MUTANTS:
        start = time.perf_counter()
        result = run_tests(tests, (file, old, new))
        outcome = {"failed": "killed", "passed": "SURVIVED"}.get(result, result)
        failures += outcome != "killed"
        print(f"{outcome:9} {time.perf_counter() - start:5.1f} s  {name} ({file})", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
