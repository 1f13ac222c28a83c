"""Self-test of the benchmark harness, run from the root of a source checkout:

    python3 perfbench/selftest.py

1. Fault injection: ``verify --corrupt-coin`` (verify's own fault-injection
   hook), run through the harness's checked-operation loop, must count as a
   failed operation.
2. One traced operation of each workload: it passes its checks, the exact
   per-operation counts equal their formulas, every function the workload is
   expected to call is called, and no wrapped name is absent.
3. Every wrapped function is expected on at least one workload.

Prints one line per check and exits 0 when all hold, 1 otherwise.
"""

import sys

import run
import tracing
import workloads


class CorruptCoin(workloads.VerifyGrid):
    name = "verify-corrupt-coin"
    argv = ("verify", "--corrupt-coin")


def one_op(workload, tracer=None):
    """Set up, prepare and run exactly one checked operation."""
    rw, cli = run.fresh_import()
    workload.setup(rw, cli, seed=1)
    try:
        if tracer is None:
            return run.measure(workload, 0)
        workload.prepare()
        tracer.install()
        try:
            return run.measure(workload, 0, tracer)
        finally:
            tracer.remove()
    finally:
        workload.close()


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    results = []

    times, failed = one_op(CorruptCoin(run.OUT))
    results.append(("corrupt coin counted as failed", failed == len(times) == 1))

    expected = set()
    for cls in workloads.WORKLOADS.values():
        workload = cls(run.OUT)
        tracer = tracing.Tracer()
        times, failed = one_op(workload, tracer)
        summary = tracing.Summary(tracer.frame())
        report = run.trace_report(workload, tracer, summary, tracing.layer_metrics(summary, len(times)))
        results.append((f"{cls.name}: operation passes its checks", failed == 0))
        for name, c in report["exact_counts"].items():
            results.append((f"{cls.name}: {name} = {c['measured']:g} (formula {c['expected']})", c["ok"]))
        results.append((f"{cls.name}: all {len(cls.expected_calls)} expected functions called", not report["uncalled"]))
        results.append((f"{cls.name}: no wrapped name absent", not report["absent"]))
        expected.update(cls.expected_calls)

    wrapped = {f"{layer}.{fn}" for layer, fns in tracing.WRAPPED.items() for fn in fns}
    results.append(("every wrapped function is expected on some workload", wrapped <= expected))

    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
