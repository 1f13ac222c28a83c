"""Spans recorded from outside the package, around calls into each layer.

The tracer replaces a listed public function by a timing wrapper in every
``robustwalk`` namespace that binds it: its own module, the package, and each
consumer module that imported it by name (``cli``, ``analysis`` and
``verification`` do), so that no call slips past untimed.  A span is
(name, start, end, parent); spans stay in memory and are written once at the
end.  A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer -> wrapped public functions.  One-line helpers called per angle or per
# arc (chebyshev.arccot, dense.left_arc/right_arc, reduced_success_probability)
# are left unwrapped: a span each would cost more than the work it times, so
# their time stays in their caller's self time.
WRAPPED = {
    "cli": ("main",),
    "schedule": (
        "build_schedule",
        "oscillatory_schedule",
        "step_bound",
        "step_bound_threshold",
        "scenario_from_counts",
    ),
    "chebyshev": ("chebyshev_t", "gamma_params", "collapse_phases"),
    "analysis": ("closed_form_ph", "closed_form_ph_one_side", "closed_form_ph_two_sides"),
    "reduced": (
        "build_model",
        "reduced_initial_state",
        "run_reduced",
        "coin_matrix",
        "oracle_matrix",
        "shift_matrix",
        "mixer_a",
        "rotation_r",
        "verify_identities",
        "verify_reduction",
    ),
    "fullspace": ("run", "initial_state", "apply_oracle", "apply_coin", "apply_shift", "success_probability"),
    "dense": ("run_dense", "shift_matrix", "coin_projector", "marked_arc_mask", "initial_vector"),
    "verification": (
        "run_all",
        "identity_suite",
        "reduction_suite",
        "engine_suite",
        "closed_form_suite",
        "small_instances",
    ),
}

ROOT = "bench.op"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _state_bytes(state) -> int:
    return state.lr.nbytes + state.rl.nbytes


def _operator_bytes(args, kwargs, result):
    """Computed traffic of one full-space operator: the input state read once,
    plus each output array that does not alias the input written once."""
    state = _arg(args, kwargs, 0, "state")
    moved = _state_bytes(state)
    for out in (getattr(result, "lr", None), getattr(result, "rl", None)):
        if out is not None and not any(np.may_share_memory(out, a) for a in (state.lr, state.rl)):
            moved += out.nbytes
    return moved, 0


def _schedule_angles(args, kwargs, result):
    return len(result.alphas), 0


def _reduced_run(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "schedule").alphas), _arg(args, kwargs, 0, "model").dim


def _full_run(args, kwargs, result):
    inst = _arg(args, kwargs, 0, "instance")
    return len(_arg(args, kwargs, 1, "schedule").alphas), 2 * inst.N_l * inst.N_r


def _dense_run(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "schedule").alphas), 0


# Span name -> (work, aux) recorded with the span: angles built, steps run
# (with the model dimension or the arc count), or bytes computed.
MEASURES = {
    "schedule.build_schedule": _schedule_angles,
    "schedule.oscillatory_schedule": _schedule_angles,
    "reduced.run_reduced": _reduced_run,
    "fullspace.run": _full_run,
    "dense.run_dense": _dense_run,
    "fullspace.apply_oracle": _operator_bytes,
    "fullspace.apply_coin": _operator_bytes,
    "fullspace.apply_shift": _operator_bytes,
    "fullspace.success_probability": _operator_bytes,
}


class Tracer:
    """Span recorder; ``install`` wraps the package, ``remove`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.aux = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.absent: list[str] = []

    def _sid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, sid: int) -> int:
        i = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        for column in (self.start, self.end, self.work, self.aux):
            column.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: float) -> None:
        self.end[i] = time.perf_counter()
        self.start[i] = t0
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        i = self._open(self._sid(name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i, t0)

    def _wrap(self, name: str, fn):
        sid = self._sid(name)
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, t0)
            if measure is not None:
                self.work[i], self.aux[i] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every WRAPPED function in each loaded robustwalk namespace.

        A listed name the package no longer defines is recorded in ``absent``.
        """
        spaces = [m for n, m in sys.modules.items() if n == "robustwalk" or n.startswith("robustwalk.")]
        for layer, fns in WRAPPED.items():
            module = sys.modules.get(f"robustwalk.{layer}")
            for fn_name in fns:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            setattr(space, attr, wrapper)
                            self._restore.append((space, attr, original))

    def remove(self) -> None:
        for space, attr, original in reversed(self._restore):
            setattr(space, attr, original)
        self._restore.clear()

    def frame(self) -> dict:
        """Spans as numpy columns, with each span's self time."""
        parent = np.array(self.parent, dtype=np.int64)
        start, end = np.array(self.start), np.array(self.end)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id),
            "parent": parent,
            "start": start,
            "end": end,
            "self": dur - child,
            "work": np.array(self.work),
            "aux": np.array(self.aux),
        }

    def save(self, path) -> None:
        np.savez(path, **self.frame())


class Summary:
    """Per-name totals over a frame: calls, inclusive and self seconds, work."""

    def __init__(self, frame: dict):
        self.frame = frame
        self._ids = {str(n): i for i, n in enumerate(frame["names"])}
        self._dur = frame["end"] - frame["start"]

    def _mask(self, names, aux=None):
        ids = [self._ids[n] for n in names if n in self._ids]
        mask = np.isin(self.frame["name_id"], ids)
        if aux is not None:
            mask &= self.frame["aux"] == aux
        return mask

    def calls(self, *names) -> int:
        return int(self._mask(names).sum())

    def incl(self, *names, aux=None) -> float:
        return float(self._dur[self._mask(names, aux)].sum())

    def work(self, *names, aux=None) -> float:
        return float(self.frame["work"][self._mask(names, aux)].sum())

    def arc_steps(self, name) -> float:
        m = self._mask([name])
        return float((self.frame["work"][m] * self.frame["aux"][m]).sum())

    def own(self, *names) -> float:
        """Self seconds of the named spans."""
        return float(self.frame["self"][self._mask(names)].sum())

    def self_time(self, layer: str) -> float:
        return self.own(*(n for n in self._ids if n.split(".")[0] == layer))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(summary: Summary, ops: int) -> dict:
    """Per-layer metrics per traced operation (ratios are over all of them).

    An idle layer reads 0 in each of its metrics.
    """
    s = summary
    schedule_builds = ("schedule.build_schedule", "schedule.oscillatory_schedule")
    matrices = ("reduced.coin_matrix", "reduced.oracle_matrix", "reduced.shift_matrix")
    dense_builds = ("dense.shift_matrix", "dense.coin_projector", "dense.marked_arc_mask")
    full_ops = tuple(f"fullspace.{n}" for n in ("apply_oracle", "apply_coin", "apply_shift", "success_probability"))
    angles = s.work(*schedule_builds)
    cf_calls = s.calls("analysis.closed_form_ph")
    full_steps = s.work("fullspace.run")
    return {
        "schedule.calls": s.calls(*schedule_builds) / ops,
        "schedule.angles": angles / ops,
        "schedule.self_s": s.self_time("schedule") / ops,
        "schedule.ns_per_angle": _ratio(s.incl(*schedule_builds), angles, 1e9),
        "chebyshev.t_calls": s.calls("chebyshev.chebyshev_t") / ops,
        "chebyshev.self_s": s.self_time("chebyshev") / ops,
        "analysis.closed_form_calls": cf_calls / ops,
        "analysis.self_s": s.self_time("analysis") / ops,
        "analysis.us_per_point": _ratio(s.incl("analysis.closed_form_ph"), cf_calls, 1e6),
        "reduced.runs": s.calls("reduced.run_reduced") / ops,
        "reduced.steps": s.work("reduced.run_reduced") / ops,
        "reduced.self_s": s.self_time("reduced") / ops,
        "reduced.us_per_step_dim4": _ratio(
            s.incl("reduced.run_reduced", aux=4), s.work("reduced.run_reduced", aux=4), 1e6
        ),
        "reduced.us_per_step_dim8": _ratio(
            s.incl("reduced.run_reduced", aux=8), s.work("reduced.run_reduced", aux=8), 1e6
        ),
        "reduced.matrix_builds": s.calls(*matrices) / ops,
        "reduced.matrix_s": s.incl(*matrices) / ops,
        "fullspace.runs": s.calls("fullspace.run") / ops,
        "fullspace.steps": full_steps / ops,
        "fullspace.self_s": s.self_time("fullspace") / ops,
        "fullspace.ns_per_arc_step": _ratio(s.incl("fullspace.run"), s.arc_steps("fullspace.run"), 1e9),
        "fullspace.oracle_s": s.incl("fullspace.apply_oracle") / ops,
        "fullspace.coin_s": s.incl("fullspace.apply_coin") / ops,
        "fullspace.shift_s": s.incl("fullspace.apply_shift") / ops,
        "fullspace.success_s": s.incl("fullspace.success_probability") / ops,
        "fullspace.bytes_per_step_computed": _ratio(s.work(*full_ops), full_steps),
        "dense.runs": s.calls("dense.run_dense") / ops,
        "dense.steps": s.work("dense.run_dense") / ops,
        "dense.operator_builds": s.calls(*dense_builds) / ops,
        "dense.build_s": s.incl(*dense_builds) / ops,
        "dense.step_s": s.own("dense.run_dense") / ops,
        "verification.identity_s": s.incl("verification.identity_suite") / ops,
        "verification.reduction_s": s.incl("verification.reduction_suite") / ops,
        "verification.engine_s": s.incl("verification.engine_suite") / ops,
        "verification.closed_form_s": s.incl("verification.closed_form_suite") / ops,
        "cli.self_s": s.self_time("cli") / ops,
    }
