"""Brute-force state-vector simulator on the directed arcs of the graph.

The state lives on the 2 * N_l * N_r directed arcs of the complete bipartite
graph, held in two (N_l, N_r) blocks indexed by the edge [u, v]: ``lr[u, v]``
is the amplitude of the arc from left vertex u to right vertex v (position u,
coin v) and ``rl[u, v]`` that of the reverse arc (position v, coin u).
Amplitudes off the edge set are identically zero under every operator and so
are never stored.  Operators are applied matrix-free: the coin via
per-position neighbor means, the shift via a swap of the two blocks, the
oracle via a phase on marked rows of ``lr`` and marked columns of ``rl``.

The three operators update the :class:`StateVector` they are given and return
that same object; a caller that needs its input afterwards passes a copy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .schedule import AngleSchedule


def _frozen_ids(ids) -> np.ndarray:
    a = np.array(sorted(ids), dtype=np.intp)
    a.flags.writeable = False
    return a


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
        if not all(isinstance(i, numbers.Integral) for i in self.marked_left | self.marked_right):
            raise ValueError("marked ids must be integers")
        if any(not 0 <= u < self.N_l for u in self.marked_left):
            raise ValueError("marked left ids out of range")
        if any(not 0 <= v < self.N_r for v in self.marked_right):
            raise ValueError("marked right ids out of range")

    @cached_property
    def left_ids(self) -> np.ndarray:
        """Sorted marked left ids, read-only."""
        return _frozen_ids(self.marked_left)

    @cached_property
    def right_ids(self) -> np.ndarray:
        """Sorted marked right ids, read-only."""
        return _frozen_ids(self.marked_right)

    @cached_property
    def unmarked_left_ids(self) -> np.ndarray:
        """Sorted unmarked left ids, read-only."""
        return _frozen_ids(set(range(self.N_l)) - self.marked_left)

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


_NORM_SLICE = 1 << 16


@dataclass
class StateVector:
    """Unit-norm complex amplitudes over the directed arcs."""

    lr: np.ndarray  # shape (N_l, N_r): lr[u, v] is the arc u -> v
    rl: np.ndarray  # shape (N_l, N_r): rl[u, v] is the arc v -> u

    def norm(self) -> float:
        """Euclidean norm, from exactly added BLAS dot products over slices of
        ``_NORM_SLICE`` amplitudes.  One dot product over a whole block adds its
        terms nearly in sequence: at 10^4 x 10^4 that norm read 1 - 1.0e-10
        after one step, at the tolerance of the unitarity check."""
        flats = (self.lr.ravel(), self.rl.ravel())
        slices = (f[i:i + _NORM_SLICE] for f in flats for i in range(0, f.size, _NORM_SLICE))
        return math.sqrt(math.fsum(np.vdot(x, x).real for x in slices))

    def copy(self) -> "StateVector":
        return StateVector(self.lr.copy(), self.rl.copy())


@dataclass
class SuccessSeries:
    """Success probability after each step: ``entries[k]`` after step k, entry 0
    for the initial state."""

    entries: list = field(default_factory=list)

    def probabilities(self) -> np.ndarray:
        return np.array(self.entries)

    def final(self) -> float:
        return self.entries[-1]


def simulate(state, blocks, probabilities, norms):
    """Drive one walk, a block of steps at a time.

    Each callable in ``blocks`` takes the state and returns the states after
    each of its one or more steps; the last one is the new state.
    ``probabilities(states)`` and ``norms(states)`` map a sequence of states to
    lists of their success probabilities and norms, so an engine can take a
    whole block's values in one vectorised pass.  Returns the final state and
    the per-step success series (entry 0 is the initial state).  Raises, naming
    the first such step, if unitarity drifts beyond 1e-10.  The check compares
    plain floats: numpy calls on the one-step blocks of the full and dense
    engines would cost more than the rest of a small step's bookkeeping.
    """
    series = SuccessSeries(probabilities([state]))
    done = 0
    for block in blocks:
        states = block(state)
        for k, nrm in enumerate(norms(states), start=done + 1):
            if abs(nrm - 1.0) > 1e-10:
                raise AssertionError(f"norm drifted to {float(nrm)} at step {k}")
        series.entries.extend(probabilities(states))
        done += len(states)
        state = states[-1]
    return state, series


def initial_state(instance: BipartiteInstance) -> StateVector:
    """Uniform superposition over all directed arcs."""
    amp = 1.0 / np.sqrt(2.0 * instance.N_l * instance.N_r)
    shape = (instance.N_l, instance.N_r)
    return StateVector(np.full(shape, amp, dtype=complex), np.full(shape, amp, dtype=complex))


def apply_shift(state: StateVector) -> StateVector:
    """Flip-flop shift, in place: amplitude of arc (u, v) moves to arc (v, u),
    which swaps the two blocks; nothing is copied."""
    state.lr, state.rl = state.rl, state.lr
    return state


_BLOCK_ROWS = 32


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``a``: one BLAS product with a ones vector for at most
    ``_BLOCK_ROWS`` rows, else the sums of two halves split at the largest
    power-of-two number of blocks below the length, so the block sums are added
    pairwise.  BLAS adds a block's rows in sequence, so blocks stay short:
    128-row blocks missed a ``math.fsum`` mean by over 3 ulps in up to a fifth
    of random draws.  Contiguous blocks keep the result layout-independent."""
    if len(a) <= _BLOCK_ROWS:
        return np.ones(len(a)) @ np.ascontiguousarray(a)
    split = _BLOCK_ROWS << (((len(a) - 1) // _BLOCK_ROWS).bit_length() - 1)
    return _row_sum(a[:split]) + _row_sum(a[split:])


def apply_coin(state: StateVector, alpha: float) -> StateVector:
    """Per-position coin (1 - e^{-i alpha}) |s_u><s_u| - I, in place.

    On each position's coin register this is (1 - e^{-i alpha}) times the mean
    over neighbors, minus the amplitude itself.  ``lr`` takes numpy's row
    means; the neighbors of a right position v are the column ``rl[:, v]``,
    which :func:`_row_sum` adds block by block.
    """
    c = 1.0 - np.exp(-1j * alpha)
    lr, rl = state.lr, state.rl
    np.subtract(c * lr.mean(axis=1, keepdims=True), lr, out=lr)
    np.subtract(c * (_row_sum(rl) / len(rl)), rl, out=rl)
    return state


def apply_oracle(state: StateVector, beta: float, instance: BipartiteInstance) -> StateVector:
    """Phase e^{i beta}, in place, on every arc whose position register is marked."""
    phase = np.exp(1j * beta)
    if instance.marked_left:
        state.lr[instance.left_ids] *= phase
    if instance.marked_right:
        state.rl[:, instance.right_ids] *= phase
    return state


def success_probability(state: StateVector, instance: BipartiteInstance) -> float:
    """Probability that measuring both registers yields a marked vertex.

    Sums |amplitude|^2 over arcs (u, v) with u marked or v marked: the marked
    rows of ``lr`` and ``rl``, plus their marked columns outside the marked
    rows.
    """
    rows, others, cols = instance.left_ids, instance.unmarked_left_ids[:, None], instance.right_ids
    total = 0.0
    for block in (state.lr, state.rl):
        for hits in (block[rows], block[others, cols]):
            total += np.vdot(hits, hits).real
    return float(total)


def run(instance: BipartiteInstance, schedule: AngleSchedule):
    """Apply the h scheduled steps (oracle, then coin, then shift); see
    :func:`simulate` for the return value and the unitarity check."""

    def step(alpha, beta):
        return lambda state: [apply_shift(apply_coin(apply_oracle(state, beta, instance), alpha))]

    return simulate(
        initial_state(instance),
        map(step, schedule.alphas, schedule.betas),
        lambda states: [success_probability(state, instance) for state in states],
        lambda states: [state.norm() for state in states],
    )
