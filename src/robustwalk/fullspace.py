"""Brute-force state-vector simulator on the directed arcs of the graph.

The state lives on the 2 * N_l * N_r directed arcs of the complete bipartite
graph: ``lr[u, v]`` is the amplitude of the arc from left vertex u to right
vertex v (position u, coin v) and ``rl[v, u]`` the reverse arc.  Amplitudes
off the edge set are identically zero under every operator and so are never
stored.  Operators are applied matrix-free: the coin via per-position neighbor
means, the shift via an index swap, the oracle via a masked phase.

The three operators update the :class:`StateVector` they are given and return
that same object; a caller that needs its input afterwards passes a copy.  A
step therefore works in about 1.5 states: the state itself plus one new block
(half a state) that the shift builds, as ``rl.T`` cannot be written into
``lr`` while ``lr.T`` is written into ``rl``.  The coin's row means always run
along the contiguous axis of each block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedule import AngleSchedule


@dataclass(frozen=True)
class BipartiteInstance:
    """Complete bipartite graph with explicit marked vertex sets."""

    N_l: int
    N_r: int
    marked_left: frozenset = frozenset()
    marked_right: frozenset = frozenset()

    def __post_init__(self):
        if self.N_l < 1 or self.N_r < 1:
            raise ValueError("side sizes must be positive")
        object.__setattr__(self, "marked_left", frozenset(self.marked_left))
        object.__setattr__(self, "marked_right", frozenset(self.marked_right))
        if any(not 0 <= u < self.N_l for u in self.marked_left):
            raise ValueError("marked left ids out of range")
        if any(not 0 <= v < self.N_r for v in self.marked_right):
            raise ValueError("marked right ids out of range")

    @property
    def n_l(self) -> int:
        return len(self.marked_left)

    @property
    def n_r(self) -> int:
        return len(self.marked_right)

    @classmethod
    def from_counts(cls, N_l: int, N_r: int, n_l: int, n_r: int) -> "BipartiteInstance":
        """Instance marking the first n_l left and first n_r right vertices."""
        return cls(N_l, N_r, frozenset(range(n_l)), frozenset(range(n_r)))


@dataclass
class StateVector:
    """Unit-norm complex amplitudes over the directed arcs."""

    lr: np.ndarray  # shape (N_l, N_r): arcs left -> right
    rl: np.ndarray  # shape (N_r, N_l): arcs right -> left

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.lr, self.lr).real + np.vdot(self.rl, self.rl).real))

    def copy(self) -> "StateVector":
        return StateVector(self.lr.copy(), self.rl.copy())

    def flatten(self) -> np.ndarray:
        """Arc amplitudes as one vector: left-position arcs first."""
        return np.concatenate([self.lr.ravel(), self.rl.ravel()])


@dataclass
class SuccessSeries:
    """Success probability after each step, tagged by method."""

    method: str
    entries: list = field(default_factory=list)

    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.entries])

    def final(self) -> float:
        return self.entries[-1][1]


def simulate(state, step, probability, norm, schedule: AngleSchedule):
    """Drive one walk: ``state = step(state, alpha, beta)`` per scheduled step.

    ``probability(state)`` gives the success probability and ``norm(state)``
    the state norm.  Returns the final state and the per-step success series
    (entry 0 is the initial state).  Raises if unitarity drifts beyond 1e-10.
    """
    series = SuccessSeries(schedule.kind, [(0, probability(state))])
    for k, (alpha, beta) in enumerate(zip(schedule.alphas, schedule.betas), start=1):
        state = step(state, alpha, beta)
        nrm = float(norm(state))
        if abs(nrm - 1.0) > 1e-10:
            raise AssertionError(f"norm drifted to {nrm!r} at step {k}")
        series.entries.append((k, probability(state)))
    return state, series


def initial_state(instance: BipartiteInstance) -> StateVector:
    """Uniform superposition over all directed arcs."""
    amp = 1.0 / np.sqrt(2.0 * instance.N_l * instance.N_r)
    return StateVector(
        np.full((instance.N_l, instance.N_r), amp, dtype=complex),
        np.full((instance.N_r, instance.N_l), amp, dtype=complex),
    )


def apply_shift(state: StateVector) -> StateVector:
    """Flip-flop shift, in place: amplitude of arc (u, v) moves to arc (v, u).

    ``state.rl`` is overwritten and ``state.lr`` replaced by a new array.
    """
    moved = state.rl.T.copy()
    np.copyto(state.rl, state.lr.T)
    state.lr = moved
    return state


def apply_coin(state: StateVector, alpha: float) -> StateVector:
    """Per-position coin (1 - e^{-i alpha}) |s_u><s_u| - I, in place.

    On each position's coin register this is (1 - e^{-i alpha}) times the mean
    over neighbors, minus the amplitude itself.
    """
    c = 1.0 - np.exp(-1j * alpha)
    for x in (state.lr, state.rl):
        np.subtract(c * x.mean(axis=1, keepdims=True), x, out=x)
    return state


def apply_oracle(state: StateVector, beta: float, instance: BipartiteInstance) -> StateVector:
    """Phase e^{i beta}, in place, on every arc whose position register is marked."""
    phase = np.exp(1j * beta)
    if instance.marked_left:
        state.lr[sorted(instance.marked_left), :] *= phase
    if instance.marked_right:
        state.rl[sorted(instance.marked_right), :] *= phase
    return state


def _marked_masks(instance: BipartiteInstance):
    left = np.zeros(instance.N_l, dtype=bool)
    right = np.zeros(instance.N_r, dtype=bool)
    left[sorted(instance.marked_left)] = True
    right[sorted(instance.marked_right)] = True
    return left, right


def success_probability(state: StateVector, instance: BipartiteInstance) -> float:
    """Probability that measuring both registers yields a marked vertex.

    Sums |amplitude|^2 over arcs (u, v) with u marked or v marked.
    """
    left, right = _marked_masks(instance)
    hit_lr = left[:, None] | right[None, :]
    hit_rl = right[:, None] | left[None, :]
    return float(np.sum(np.abs(state.lr[hit_lr]) ** 2) + np.sum(np.abs(state.rl[hit_rl]) ** 2))


def run(instance: BipartiteInstance, schedule: AngleSchedule):
    """Apply the h scheduled steps (oracle, then coin, then shift); see
    :func:`simulate` for the return value and the unitarity check."""
    return simulate(
        initial_state(instance),
        lambda state, alpha, beta: apply_shift(apply_coin(apply_oracle(state, beta, instance), alpha)),
        lambda state: success_probability(state, instance),
        StateVector.norm,
        schedule,
    )
