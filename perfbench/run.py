"""Benchmark entry point for robustwalk.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from ``src``.
One workload runs in this process with BLAS threads capped at 1.  Set-up
(importing the package and building the inputs) is repeated and its median
reported; operations then repeat until the next one would end past T seconds,
and each one's output is checked.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones: half of T
untraced, then half traced, the difference giving the tracing overhead.  The
last line of standard output is the JSON result; the line before it holds the
run metadata.
"""

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_CAPS:  # before numpy is loaded
    os.environ[_var] = "1"

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5  # before the first operation; one more precedes each operation
COPY_REPEATS = 15
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; Python's os.sysconf lacks it


def fresh_import():
    """Import robustwalk and robustwalk.cli anew, as a fresh process would."""
    for name in [n for n in sys.modules if n == "robustwalk" or n.startswith("robustwalk.")]:
        del sys.modules[name]
    return importlib.import_module("robustwalk"), importlib.import_module("robustwalk.cli")


def timed_setup(workload, seed: int, repeats: int) -> list[float]:
    """Seconds of each of ``repeats`` set-ups (fresh import and inputs)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rw, cli = fresh_import()
        workload.setup(rw, cli, seed)
        times.append(time.perf_counter() - t0)
    return times


def measure(workload, budget: float, tracer=None, before=None):
    """Run checked operations until the next one would end past ``budget``
    seconds (always at least one); ``before`` runs untimed ahead of each.
    Returns (seconds per operation, failed)."""
    times, failed = [], 0
    begin = time.perf_counter()
    while True:
        if before is not None:
            before()
        t0 = time.perf_counter()
        t1 = None
        try:
            out = tracer.call(tracing.ROOT, workload.op) if tracer else workload.op()
            t1 = time.perf_counter()
            problems = workload.check(out)
        except Exception:
            problems = ["operation raised:\n" + traceback.format_exc()]
        times.append((t1 or time.perf_counter()) - t0)
        if problems:
            failed += 1
            print(f"{workload.name}: operation {len(times)} failed:", *problems[:5], sep="\n  ", file=sys.stderr)
        if time.perf_counter() - begin + statistics.median(times) > budget:
            return times, failed


def copy_rate(nbytes: int) -> float:
    """GB/s of np.copyto on an array of nbytes, counting bytes read plus written."""
    src = np.ones(nbytes // 16, dtype=complex)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unavailable: unresolved " + ref


def l3_bytes():
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        size = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def metadata(args, workload, setup_times, op_times) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "robustwalk").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    l3 = l3_bytes()
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    state = workloads.FullArcs.STATE_BYTES
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "memory_bytes": memory,
        "blas_thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
        "steps_per_op": workload.steps_per_op,
        "setup_s": setup_times,
        "op_s": op_times,
        "copy_calibration": {
            "gbps_read_plus_write": copy_rate(state),
            "array_bytes": state,
            "residency": "cache-resident" if l3 and state < l3 else "unknown",
        },
    }
    if l3:
        dram = 4 * l3
        meta["copy_calibration"]["dram_note"] = (
            f"a DRAM-bound state needs at least 4 x L3 = {dram / 1e9:.2f} GB per array; the full engine "
            f"holds the state and 3-4 copies of it per step, about {5 * dram / 1e9:.1f} GB, which does "
            f"not fit next to the rest of a {memory / 1e9:.1f} GB machine, so only the "
            "cache-resident rate is measured"
        )
    return meta


def trace_report(workload, tracer, summary, values: dict) -> dict:
    """Exact per-operation counts and expected calls; mismatches go to stderr."""
    counts = {
        name: {"expected": expected, "measured": values[name], "ok": values[name] == expected}
        for name, expected in workload.exact_counts.items()
    }
    uncalled = [name for name in workload.expected_calls if summary.calls(name) == 0]
    for name, c in counts.items():
        if not c["ok"]:
            print(f"trace check: {name} = {c['measured']}, formula gives {c['expected']}", file=sys.stderr)
    if uncalled:
        print(f"trace check: never called: {', '.join(uncalled)}", file=sys.stderr)
    return {"absent": tracer.absent, "exact_counts": counts, "uncalled": uncalled}


def run(args, spec) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT)
    try:
        setup_times = timed_setup(workload, args.seed, SETUP_REPEATS)
        workload.prepare()
        if not args.trace:
            # The machine's speed drifts over seconds; set-ups spread over the
            # run see the same drift as the operations they are compared with.
            def before():
                setup_times.extend(timed_setup(workload, args.seed, 1))

            times, failed = measure(workload, args.seconds, before=before)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            op_s = statistics.median(times)
            values = {
                "setup_s": statistics.median(setup_times),
                "op_s": op_s,
                "steps_per_s": workload.steps_per_op / op_s,
                "peak_rss_mb": peak_rss_mb,
                "sim_ref_digits": reference.digits(workload.sim_err),
                "cf_ref_digits": reference.digits(workload.cf_err),
            }
            meta = metadata(args, workload, setup_times, times)
        else:
            plain, failed_plain = measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                times, failed = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.remove()
            summary = tracing.Summary(tracer.frame())
            values = tracing.layer_metrics(summary, len(times))
            values["trace.overhead_frac"] = statistics.median(times) / statistics.median(plain) - 1
            meta = metadata(args, workload, setup_times, plain)
            meta["traced_op_s"] = times
            values["fullspace.copy_gbps_same_size"] = meta["copy_calibration"]["gbps_read_plus_write"]
            meta["trace_checks"] = trace_report(workload, tracer, summary, values)
            spans = OUT / f"spans-{args.workload}.npz"
            tracer.save(spans)
            meta["spans_file"] = str(spans.relative_to(ROOT))
            failed += failed_plain
            times = plain + times
    finally:
        workload.close()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return meta, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    for needed in (SRC / "robustwalk" / "__init__.py", spec_path):
        if not needed.is_file():
            print(f"error: run from a robustwalk source checkout; {needed} not found", file=sys.stderr)
            return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    meta, result = run(args, json.loads(spec_path.read_text()))
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
