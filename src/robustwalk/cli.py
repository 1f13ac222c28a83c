"""Command-line front end: sweeps, verification, bounds, schedule tables.

Exit codes: 0 success; 1 a verification suite failed or a run broke an
invariant (unitarity drift, reported as 'invariant violation'); 2 a usage or
config error, raised as ``UsageError`` where the input is parsed or
validated.  Any other exception is an internal fault and propagates with its
traceback rather than being reported as a usage error.

All floating-point output uses 12 significant digits; CSV comment lines begin
with '#'.  The sweep and schedule headers carry a fixed 'convention=appendix-c'
line or field: the package implements only the Appendix C oracle-angle map
(see :mod:`robustwalk.schedule`), and the text is kept so that existing
output files stay byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import fullspace
from .analysis import sweep
from .fullspace import BipartiteInstance
from .reduced import build_model, run_reduced
from .schedule import MarkingScenario, build_schedule, scenario_from_counts, step_bound, step_bound_threshold
from .verification import run_all


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_marked(value: str):
    """A marked-count flag: either a count ('10') or explicit ids ('0,3,7')."""
    is_ids = "," in value
    try:
        numbers = [int(part) for part in value.split(",") if part.strip() != ""] if is_ids else [int(value)]
    except ValueError as exc:
        raise UsageError(f"expected a count or comma-separated vertex ids, got {value!r}") from exc
    if any(n < 0 for n in numbers):
        raise UsageError(f"negative vertex id or count in {value!r}")
    return sorted(set(numbers)) if is_ids else numbers[0]


def _marked_set(parsed, side_size: int, flag: str):
    if isinstance(parsed, list):
        if any(i >= side_size for i in parsed):
            raise UsageError(f"{flag} ids exceed the side size {side_size}")
        return frozenset(parsed)
    if parsed > side_size:
        raise UsageError(f"{flag} count {parsed} exceeds the side size {side_size}")
    return frozenset(range(parsed))


def _load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                out[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return out


_CONFIG_TYPES = {
    "nl": int,
    "nr": int,
    "ml": str,
    "mr": str,
    "epsilon": float,
    "hmax": int,
    "mode": str,
    "engine": str,
    "out": str,
}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill flags that were not given on the command line from the config file."""
    if not getattr(args, "config", None):
        return
    loaded = _load_config(args.config)
    for key, raw in loaded.items():
        if key not in _CONFIG_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            try:
                setattr(args, key, _CONFIG_TYPES[key](raw))
            except ValueError as exc:
                raise UsageError(f"bad value for config key {key!r}: {raw!r}") from exc


def cmd_sweep(args) -> int:
    _apply_config(args)
    nl = args.nl if args.nl is not None else 0
    nr = args.nr if args.nr is not None else 0
    if nl < 1 or nr < 1:
        raise UsageError("--nl and --nr must be positive")
    epsilon = args.epsilon if args.epsilon is not None else 0.1
    if not 0.0 < epsilon <= 1.0:
        raise UsageError(f"epsilon must be in (0, 1], got {epsilon}")
    hmax = args.hmax if args.hmax is not None else 50
    if hmax < 1:
        raise UsageError(f"--hmax must be >= 1, got {hmax}")
    mode = args.mode or "both"
    if mode not in ("robust", "oscillatory", "both"):
        raise UsageError(f"unknown mode {mode!r}")
    engine = args.engine or "auto"
    if engine not in ("reduced", "full", "auto"):
        raise UsageError(f"unknown engine {engine!r}")

    ml = _parse_marked(args.ml) if args.ml is not None else 0
    mr = _parse_marked(args.mr) if args.mr is not None else 0
    marked_left = _marked_set(ml, nl, "--ml")
    marked_right = _marked_set(mr, nr, "--mr")
    if not marked_left and not marked_right:
        raise UsageError("at least one marked vertex is required (--ml/--mr)")
    instance = BipartiteInstance(nl, nr, marked_left, marked_right)

    if engine == "auto":
        engine = "full" if 2 * nl * nr <= 20000 else "reduced"

    counts = (nl, nr, instance.n_l, instance.n_r)
    bound = step_bound(nl, nr, scenario_from_counts(instance.n_l, instance.n_r), epsilon)
    walk = partial(fullspace.run, instance) if engine == "full" else partial(run_reduced, build_model(*counts))
    rows = sweep(walk, counts, epsilon, hmax, robust=mode != "oscillatory", oscillatory=mode != "robust")

    lines = [
        f"# robustwalk sweep nl={nl} nr={nr} ml={instance.n_l} mr={instance.n_r} "
        f"epsilon={_fmt(epsilon)} hmax={hmax} mode={mode} engine={engine}",
        "# convention=appendix-c",
        "h,p_robust,p_oscillatory,p_closed_form,bound_h,floor",
    ]
    for row in rows:
        cells = ("" if p is None else _fmt(p) for p in (row.p_robust, row.p_oscillatory, row.p_closed_form))
        lines.append(f"{row.h},{','.join(cells)},{bound},{_fmt(1.0 - epsilon)}")
    text = "\n".join(lines) + "\n"

    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    trials = args.trials if args.trials is not None else 100
    seed = args.seed if args.seed is not None else 42
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    coin_builder = None
    if args.corrupt_coin:
        from .reduced import coin_matrix

        def coin_builder(model, alpha):  # fault injection for self-testing
            bad = coin_matrix(model, alpha)
            bad[0, 0] = -bad[0, 0]
            return bad

    results = run_all(trials, seed, quick=not args.full_grid, coin_builder=coin_builder)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f" [{r.detail}]" if r.detail else ""
        print(f"{status} {r.name}: max deviation {_fmt(r.max_deviation)} (tol {_fmt(r.tolerance)}){detail}")
    if failed:
        print(f"FAILED: {', '.join(r.name for r in failed)}")
        return 1
    print(f"all {len(results)} suites passed (trials={trials}, seed={seed})")
    return 0


def cmd_bound(args) -> int:
    nl = args.nl if args.nl is not None else 0
    nr = args.nr if args.nr is not None else 0
    if nl < 1 or nr < 1:
        raise UsageError("--nl and --nr must be positive")
    epsilon = args.epsilon if args.epsilon is not None else 0.1
    ml = _parse_marked(args.ml) if args.ml is not None else 0
    mr = _parse_marked(args.mr) if args.mr is not None else 0
    n_l = len(_marked_set(ml, nl, "--ml"))
    n_r = len(_marked_set(mr, nr, "--mr"))
    if args.unknown:
        scenario = MarkingScenario("unknown")
    else:
        if n_l == 0 and n_r == 0:
            raise UsageError("no marked counts given; use --ml/--mr or --unknown")
        scenario = scenario_from_counts(n_l, n_r)
    try:
        threshold = step_bound_threshold(nl, nr, scenario, epsilon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"threshold {_fmt(threshold)}")
    print(f"bound {step_bound(nl, nr, scenario, epsilon)}")
    return 0


def cmd_schedule(args) -> int:
    h = args.h
    epsilon = args.epsilon if args.epsilon is not None else 0.1
    try:
        sched = build_schedule(h, epsilon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"# schedule h={h} epsilon={_fmt(epsilon)} parity={sched.parity} convention=appendix-c")
    print("k,alpha,beta")
    for k in range(1, h + 1):
        print(f"{k},{_fmt(sched.alpha(k))},{_fmt(sched.beta(k))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustwalk",
        description="Robust quantum-walk search on complete bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="success probability vs step count, CSV output")
    sweep.add_argument("--nl", type=int, help="left side size")
    sweep.add_argument("--nr", type=int, help="right side size")
    sweep.add_argument("--ml", type=str, help="marked left: count or comma-separated ids")
    sweep.add_argument("--mr", type=str, help="marked right: count or comma-separated ids")
    sweep.add_argument("--epsilon", type=float, help="error floor in (0, 1] (default 0.1)")
    sweep.add_argument("--hmax", type=int, help="largest step count (default 50)")
    sweep.add_argument("--mode", choices=("robust", "oscillatory", "both"), help="which curves to compute")
    sweep.add_argument("--engine", choices=("reduced", "full", "auto"), help="simulation engine")
    sweep.add_argument("--out", type=str, help="output CSV path ('-' for stdout)")
    sweep.add_argument("--config", type=str, help="key=value config file; flags override it")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run all verification suites")
    verify.add_argument("--trials", type=int, help="random trials per identity (default 100)")
    verify.add_argument("--seed", type=int, help="random seed (default 42)")
    verify.add_argument("--full-grid", action="store_true", help="run the engine suite on every small instance")
    verify.add_argument("--corrupt-coin", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)

    bound = sub.add_parser("bound", help="print the step bound for a scenario")
    bound.add_argument("--nl", type=int, help="left side size")
    bound.add_argument("--nr", type=int, help="right side size")
    bound.add_argument("--ml", type=str, help="marked left count (or ids)")
    bound.add_argument("--mr", type=str, help="marked right count (or ids)")
    bound.add_argument("--epsilon", type=float, help="error floor in (0, 1] (default 0.1)")
    bound.add_argument("--unknown", action="store_true", help="no knowledge of the marked arrangement")
    bound.set_defaults(func=cmd_bound)

    schedule = sub.add_parser("schedule", help="print the angle table for given h, epsilon")
    schedule.add_argument("--h", type=int, required=True, help="step count (>= 3)")
    schedule.add_argument("--epsilon", type=float, help="error floor in (0, 1] (default 0.1)")
    schedule.set_defaults(func=cmd_schedule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
