"""The four workloads: inputs made from the seed, one operation, its checks.

Operations drive the program only through ``robustwalk.cli.main`` and the
names in ``robustwalk.__all__``.  ``setup`` is the timed set-up (inputs up to
the first step); ``prepare`` computes the expected results and the 40-digit
references outside every timed region.  ``check`` returns the problems found
in one operation's output and keeps the worst errors against the references.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

import reference

EPS = "0.1"  # epsilon as typed on the command line; the program gets float(EPS)
FLOOR = 1.0 - float(EPS)
ENGINE_TOL = 1e-10  # the package's own engine-equivalence tolerance
CLOSED_FORM_TOL = 1e-9  # the package's own simulation-vs-closed-form tolerance


class Workload:
    name = ""
    steps_per_op = 0  # logical walk steps of one operation, set by prepare
    exact_counts: dict = {}  # per-layer metric -> value the traced run must show
    expected_calls: tuple = ()  # wrapped functions one operation must call

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.sim_err = 0.0
        self.cf_err = 0.0

    def setup(self, rw, cli, seed: int) -> None:
        self.rw, self.cli = rw, cli

    def prepare(self) -> None:
        pass

    def op(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _ids(rng, size: int, count: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(size, count, replace=False))


class SweepFigC(Workload):
    """The paper's figure: one fresh h-step robust run per h, via the CLI."""

    name = "sweep-figC"
    NL, NR, ML, MR, HMAX = 600, 1000, 10, 5, 300
    expected_calls = (
        "cli.main",
        "schedule.build_schedule",
        "schedule.oscillatory_schedule",
        "schedule.step_bound",
        "schedule.step_bound_threshold",
        "schedule.scenario_from_counts",
        "chebyshev.chebyshev_t",
        "chebyshev.gamma_params",
        "analysis.closed_form_ph",
        "analysis.closed_form_ph_two_sides",
        "reduced.build_model",
        "reduced.reduced_initial_state",
        "reduced.run_reduced",
        "reduced.coin_matrix",
        "reduced.oracle_matrix",
        "reduced.shift_matrix",
    )

    def setup(self, rw, cli, seed):
        super().setup(rw, cli, seed)
        rng = np.random.default_rng(seed)
        self.csv = self.out_dir / f"sweep-{os.getpid()}.csv"
        self.argv = [
            "sweep",
            "--nl", str(self.NL),
            "--nr", str(self.NR),
            "--ml", ",".join(map(str, _ids(rng, self.NL, self.ML))),
            "--mr", ",".join(map(str, _ids(rng, self.NR, self.MR))),
            "--epsilon", EPS,
            "--hmax", str(self.HMAX),
            "--mode", "both",
            "--engine", "reduced",
            "--out", str(self.csv),
        ]

    def prepare(self):
        # one robust run of h steps for each h >= 3, plus one oscillatory run
        self.steps_per_op = sum(range(3, self.HMAX + 1)) + self.HMAX
        self.exact_counts = {"reduced.steps": self.steps_per_op}
        counts = (self.NL, self.NR, self.ML, self.MR)
        self.bound = reference.step_bound(EPS, *counts)
        self.ref = {h: reference.closed_form(h, EPS, *counts) for h in range(3, self.HMAX + 1)}

    def op(self):
        return self.cli.main(self.argv)

    def check(self, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        text = self.csv.read_text(encoding="utf-8")
        self.csv.unlink()
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        if lines[0] != "h,p_robust,p_oscillatory,p_closed_form,bound_h,floor":
            return [f"unexpected CSV header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(1, self.HMAX + 1)):
            return [f"CSV rows are not h = 1..{self.HMAX}"]
        problems = []
        for h_text, robust, osc, closed, bound_h, _ in rows:
            h = int(h_text)
            if int(bound_h) != self.bound:
                problems.append(f"h={h}: bound_h {bound_h}, reference {self.bound}")
            if not osc:
                problems.append(f"h={h}: no oscillatory value")
            if h < 3:
                continue
            p, cf = float(robust), float(closed)
            if abs(p - cf) > CLOSED_FORM_TOL:
                problems.append(f"h={h}: |p_robust - p_closed_form| = {abs(p - cf):.3g}")
            if h >= self.bound and p < FLOOR:
                problems.append(f"h={h}: p_robust {p} below the floor {FLOOR}")
            self.sim_err = max(self.sim_err, reference.error(p, self.ref[h]))
            self.cf_err = max(self.cf_err, reference.error(cf, self.ref[h]))
        return problems

    def close(self):
        if hasattr(self, "csv"):
            self.csv.unlink(missing_ok=True)


class LongRun(Workload):
    """One long robust chain per N at the step bound, where sqrt(N) scaling
    is the claim and float precision runs out."""

    name = "long-run"
    NS = (10**8, 10**10)  # N_l = N_r = N, n_l = 1, n_r = 0
    expected_calls = (
        "schedule.build_schedule",
        "chebyshev.chebyshev_t",
        "chebyshev.gamma_params",
        "analysis.closed_form_ph",
        "analysis.closed_form_ph_one_side",
        "reduced.reduced_initial_state",
        "reduced.run_reduced",
        "reduced.coin_matrix",
        "reduced.oracle_matrix",
        "reduced.shift_matrix",
    )

    def setup(self, rw, cli, seed):
        super().setup(rw, cli, seed)
        scenario = rw.scenario_from_counts(1, 0)
        self.points = [
            (N, rw.build_model(N, N, 1, 0), rw.step_bound(N, N, scenario, float(EPS))) for N in self.NS
        ]

    def prepare(self):
        self.bounds = [reference.step_bound(EPS, N, N, 1, 0) for N in self.NS]
        self.steps_per_op = sum(self.bounds)
        self.exact_counts = {"schedule.angles": self.steps_per_op}
        self.ref = [reference.closed_form(h, EPS, N, N, 1, 0) for N, h in zip(self.NS, self.bounds)]

    def op(self):
        out = []
        for N, model, h in self.points:
            _, series = self.rw.run_reduced(model, self.rw.build_schedule(h, float(EPS)))
            out.append((len(series.entries), series.final(), self.rw.closed_form_ph(h, float(EPS), N, N, 1, 0)))
        return out

    def check(self, out):
        problems = []
        for (N, _, h), bound, ref, (entries, p, cf) in zip(self.points, self.bounds, self.ref, out):
            if h != bound:
                problems.append(f"N={N}: step_bound {h}, reference {bound}")
            if entries != h + 1:
                problems.append(f"N={N}: {entries} series entries for {h} steps")
            if p < FLOOR:
                problems.append(f"N={N}: P(h={h}) = {p} below the floor {FLOOR}")
            self.sim_err = max(self.sim_err, reference.error(p, ref))
            self.cf_err = max(self.cf_err, reference.error(cf, ref))
        return problems


class FullArcs(Workload):
    """The matrix-free full engine over 2 * 10**6 arcs, robust and oscillatory
    schedules to the step bound."""

    name = "full-arcs"
    N, ML, MR = 1000, 3, 2
    STATE_BYTES = 2 * N * N * 16  # complex128 amplitude per directed arc
    expected_calls = (
        "fullspace.run",
        "fullspace.initial_state",
        "fullspace.apply_oracle",
        "fullspace.apply_coin",
        "fullspace.apply_shift",
        "fullspace.success_probability",
    )

    def setup(self, rw, cli, seed):
        super().setup(rw, cli, seed)
        rng = np.random.default_rng(seed)
        self.instance = rw.BipartiteInstance(self.N, self.N, _ids(rng, self.N, self.ML), _ids(rng, self.N, self.MR))
        h = rw.step_bound(self.N, self.N, rw.scenario_from_counts(self.ML, self.MR), float(EPS))
        self.schedules = (rw.build_schedule(h, float(EPS)), rw.oscillatory_schedule(h))

    def prepare(self):
        counts = (self.N, self.N, self.ML, self.MR)
        self.bound = reference.step_bound(EPS, *counts)
        self.steps_per_op = 2 * self.bound
        self.exact_counts = {"fullspace.steps": self.steps_per_op}
        model = self.rw.build_model(*counts)
        self.expected = [self.rw.run_reduced(model, s)[1].probabilities() for s in self.schedules]
        self.ref = reference.closed_form(self.bound, EPS, *counts)
        self.cf_err = reference.error(self.rw.closed_form_ph(self.bound, float(EPS), *counts), self.ref)

    def op(self):
        return [self.rw.run(self.instance, s)[1].probabilities() for s in self.schedules]

    def check(self, out):
        problems = []
        if self.schedules[0].h != self.bound:
            problems.append(f"step_bound {self.schedules[0].h}, reference {self.bound}")
        for got, want, sched in zip(out, self.expected, self.schedules):
            if got.shape != want.shape:
                problems.append(f"{sched.kind}: {got.size} series entries, expected {want.size}")
                continue
            dev = float(np.max(np.abs(got - want)))
            if dev > ENGINE_TOL:
                problems.append(f"{sched.kind}: full vs reduced series differ by {dev:.3g}")
        self.sim_err = max(self.sim_err, reference.error(float(out[0][-1]), self.ref))
        return problems


# The grid of verify's closed-form suite.  verify prints only each suite's
# worst deviation, so the accuracy metrics re-evaluate this grid through the
# public API, once, outside the timed region.
CF_GRID_HS = range(3, 21)
CF_GRID_EPS = ("0.05", "0.1", "0.5", "1.0")
CF_GRID_COUNTS = ((30, 20, 1, 0), (17, 40, 3, 0), (50, 11, 10, 0), (8, 6, 1, 1), (12, 50, 2, 3))


def _engine_grid_size() -> int:
    """Instances in verify's full engine grid: every (N_l, N_r) with
    2 N_l N_r <= 128, each with its canonical marked configurations."""
    size = 0
    for N_l in range(1, 65):
        for N_r in range(1, 64 // N_l + 1):
            configs = {(1, 0), (N_l, 0), (0, 1), (1, 1), ((N_l + 1) // 2, (N_r + 1) // 2)}
            size += sum(1 for n_l, n_r in configs if n_l <= N_l and n_r <= N_r and n_l + n_r >= 1)
    return size


class VerifyGrid(Workload):
    """``robustwalk verify --full-grid`` with its default trials and seed;
    the workload seed does not enter."""

    name = "verify-grid"
    argv = ("verify", "--full-grid")
    expected_calls = (
        "cli.main",
        "verification.run_all",
        "verification.identity_suite",
        "verification.reduction_suite",
        "verification.engine_suite",
        "verification.closed_form_suite",
        "verification.small_instances",
        "dense.run_dense",
        "dense.shift_matrix",
        "dense.coin_projector",
        "dense.marked_arc_mask",
        "dense.initial_vector",
        "reduced.build_model",
        "reduced.verify_identities",
        "reduced.verify_reduction",
        "reduced.mixer_a",
        "reduced.rotation_r",
        "chebyshev.collapse_phases",
        "fullspace.run",
        "analysis.closed_form_ph",
        "schedule.build_schedule",
        "schedule.oscillatory_schedule",
    )

    def prepare(self):
        # engine suite: 2 schedules of 12 steps per instance, in each engine;
        # reduction suite: 2 models x 2 epsilons x h = 3..9; closed-form grid
        engine = 2 * 12 * _engine_grid_size()
        reduction = 2 * 2 * sum(range(3, 10))
        closed_form = len(CF_GRID_COUNTS) * len(CF_GRID_EPS) * sum(CF_GRID_HS)
        self.steps_per_op = 3 * engine + reduction + closed_form
        self.exact_counts = {
            "dense.steps": engine,
            "fullspace.steps": engine,
            "reduced.steps": engine + reduction + closed_form,
        }
        for counts in CF_GRID_COUNTS:
            model = self.rw.build_model(*counts)
            for eps in CF_GRID_EPS:
                for h in CF_GRID_HS:
                    ref = reference.closed_form(h, eps, *counts)
                    _, series = self.rw.run_reduced(model, self.rw.build_schedule(h, float(eps)))
                    self.sim_err = max(self.sim_err, reference.error(series.final(), ref))
                    cf = self.rw.closed_form_ph(h, float(eps), *counts)
                    self.cf_err = max(self.cf_err, reference.error(cf, ref))

    def op(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(list(self.argv))
        return rc, buf.getvalue()

    def check(self, out):
        rc, text = out
        lines = text.splitlines()
        suites = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
        problems = [line for line in suites if not line.startswith("PASS ")]
        if rc != 0:
            problems.append(f"exit code {rc}")
        if not suites or not lines[-1].startswith(f"all {len(suites)} suites passed"):
            problems.append("no 'all suites passed' summary")
        return problems


WORKLOADS = {w.name: w for w in (SweepFigC, LongRun, FullArcs, VerifyGrid)}
