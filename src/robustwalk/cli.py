"""Command-line front end: sweeps, verification, bounds, schedule tables.

Exit codes: 0 success; 1 a verification suite failed or a run broke an
invariant (unitarity drift, reported as 'invariant violation'); 2 bad input,
raised as ``UsageError``.  The parser owns every input: each flag's type,
default and range sit in its ``add_argument``, and its own errors (a bad
value, an unknown option or command, a missing command) are ``UsageError``
too, so :func:`main` returns 2 for them and raises ``SystemExit`` only for
--help.  Any other exception, a ``ValueError`` from the library included, is
an internal fault and propagates with its traceback.

Input bounds: epsilon in (0, 1]; --nl/--nr in [1, 2**53], since the bound,
the reduced model and the closed forms use N as a float; --h in [3, 10**7]
and --hmax in [1, 10**7], which covers the N = 10**12 regime (h ~ 1.8e6 at
epsilon = 0.1) with 80 MB per angle array.

All floating-point output uses 12 significant digits; CSV comment lines begin
with '#'.  The sweep and schedule headers carry a fixed 'convention=appendix-c'
line or field: the package implements only the Appendix C oracle-angle map
(see :mod:`robustwalk.schedule`), and the text is kept so that existing
output files stay byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import fullspace
from .analysis import sweep
from .fullspace import BipartiteInstance
from .reduced import build_model, coin_matrix, run_reduced
from .schedule import build_schedule, scenario_from_counts, step_bound, step_bound_threshold
from .verification import run_all

MAX_SIDE = 2**53  # largest N that a float holds exactly
MAX_STEPS = 10**7


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _number(convert, above, at_most=math.inf):
    """Type of a flag whose value lies in (above, at_most]; nan fails."""

    def parse(text: str):
        try:
            value = convert(text)
            if above < value <= at_most:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {convert.__name__} in ({above}, {at_most}], got {text!r}")

    return parse


def _marked(text: str):
    """Type of --ml/--mr: either a count ('10') or explicit ids ('0,3,7')."""
    is_ids = "," in text
    try:
        numbers = [int(part) for part in text.split(",") if part.strip() != ""] if is_ids else [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a count or comma-separated vertex ids, got {text!r}") from None
    if any(n < 0 for n in numbers):
        raise argparse.ArgumentTypeError(f"negative vertex id or count in {text!r}")
    return sorted(set(numbers)) if is_ids else numbers[0]


def _marked_ids(parsed, side_size: int, flag: str):
    """One side's explicit ids, or range(count), which only the full engine expands."""
    if isinstance(parsed, list):
        if any(i >= side_size for i in parsed):
            raise UsageError(f"{flag} ids exceed the side size {side_size}")
        return frozenset(parsed)
    if parsed > side_size:
        raise UsageError(f"{flag} count {parsed} exceeds the side size {side_size}")
    return range(parsed)


def _marked_sides(args):
    """The marked ids of both sides, checked against the side sizes."""
    return _marked_ids(args.ml, args.nl, "--ml"), _marked_ids(args.mr, args.nr, "--mr")


def cmd_sweep(args) -> int:
    left, right = _marked_sides(args)
    if not left and not right:
        raise UsageError("at least one marked vertex is required (--ml/--mr)")

    engine = args.engine
    if engine == "auto":
        engine = "full" if 2 * args.nl * args.nr <= 20000 else "reduced"

    bound = step_bound(args.nl, args.nr, scenario_from_counts(len(left), len(right)), args.epsilon)
    if engine == "full":
        run, target = fullspace.run, BipartiteInstance(args.nl, args.nr, left, right)
    else:
        run, target = run_reduced, build_model(args.nl, args.nr, len(left), len(right))
    robust, oscillatory = args.mode != "oscillatory", args.mode != "robust"
    rows = sweep(run, target, args.epsilon, args.hmax, robust=robust, oscillatory=oscillatory)

    lines = [
        f"# robustwalk sweep nl={args.nl} nr={args.nr} ml={len(left)} mr={len(right)} "
        f"epsilon={_fmt(args.epsilon)} hmax={args.hmax} mode={args.mode} engine={engine}",
        "# convention=appendix-c",
        "h,p_robust,p_oscillatory,p_closed_form,bound_h,floor",
    ]
    for row in rows:
        cells = ("" if p is None else _fmt(p) for p in (row.p_robust, row.p_oscillatory, row.p_closed_form))
        lines.append(f"{row.h},{','.join(cells)},{bound},{_fmt(1.0 - args.epsilon)}")
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
    coin_builder = None
    if args.corrupt_coin:
        def coin_builder(model, alpha):  # fault injection for self-testing
            bad = coin_matrix(model, alpha)
            bad[0, 0] = -bad[0, 0]
            return bad

    results = run_all(args.trials, args.seed, quick=not args.full_grid, coin_builder=coin_builder)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f" [{r.detail}]" if r.detail else ""
        print(f"{status} {r.name}: max deviation {_fmt(r.max_deviation)} (tol {_fmt(r.tolerance)}){detail}")
    if failed:
        print(f"FAILED: {', '.join(r.name for r in failed)}")
        return 1
    print(f"all {len(results)} suites passed (trials={args.trials}, seed={args.seed})")
    return 0


def cmd_bound(args) -> int:
    n_l, n_r = map(len, _marked_sides(args))
    if args.unknown:
        scenario = (1, 1)  # one marked vertex per side is the worst case
    elif n_l == 0 and n_r == 0:
        raise UsageError("no marked counts given; use --ml/--mr or --unknown")
    else:
        scenario = scenario_from_counts(n_l, n_r)
    print(f"threshold {_fmt(step_bound_threshold(args.nl, args.nr, scenario, args.epsilon))}")
    print(f"bound {step_bound(args.nl, args.nr, scenario, args.epsilon)}")
    return 0


def cmd_schedule(args) -> int:
    sched = build_schedule(args.h, args.epsilon)
    print(f"# schedule h={args.h} epsilon={_fmt(args.epsilon)} parity={sched.parity} convention=appendix-c")
    print("k,alpha,beta")
    for k in range(1, args.h + 1):
        print(f"{k},{_fmt(sched.alpha(k))},{_fmt(sched.beta(k))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robustwalk",
        description="Robust quantum-walk search on complete bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    epsilon = dict(type=_number(float, 0.0, 1.0), default=0.1, help="error floor in (0, 1] (default 0.1)")
    graph = _Parser(add_help=False)
    graph.add_argument("--nl", type=_number(int, 0, MAX_SIDE), required=True, help="left side size")
    graph.add_argument("--nr", type=_number(int, 0, MAX_SIDE), required=True, help="right side size")
    graph.add_argument("--ml", type=_marked, default=0, help="marked left: count or comma-separated ids")
    graph.add_argument("--mr", type=_marked, default=0, help="marked right: count or comma-separated ids")
    graph.add_argument("--epsilon", **epsilon)

    sweep = sub.add_parser("sweep", parents=[graph], help="success probability vs step count, CSV output")
    sweep.add_argument("--hmax", type=_number(int, 0, MAX_STEPS), default=50, help="largest step count (default 50)")
    sweep.add_argument("--mode", choices=("robust", "oscillatory", "both"), default="both", help="curves to compute")
    sweep.add_argument("--engine", choices=("reduced", "full", "auto"), default="auto", help="simulation engine")
    sweep.add_argument("--out", help="output CSV path ('-' for stdout)")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run all verification suites")
    verify.add_argument("--trials", type=_number(int, 0), default=100, help="random trials per identity (default 100)")
    verify.add_argument("--seed", type=_number(int, -1), default=42, help="random seed (default 42)")
    verify.add_argument("--full-grid", action="store_true", help="run the engine suite on every small instance")
    verify.add_argument("--corrupt-coin", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)

    bound = sub.add_parser("bound", parents=[graph], help="print the step bound for a scenario")
    bound.add_argument("--unknown", action="store_true", help="assume one marked vertex per side (the worst case)")
    bound.set_defaults(func=cmd_bound)

    schedule = sub.add_parser("schedule", help="print the angle table for given h, epsilon")
    schedule.add_argument("--h", type=_number(int, 2, MAX_STEPS), required=True, help="step count (>= 3)")
    schedule.add_argument("--epsilon", **epsilon)
    schedule.set_defaults(func=cmd_schedule)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
