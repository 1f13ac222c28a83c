"""Exact dynamics in the 4- and 8-dimensional invariant subspaces.

By symmetry over the vertex classes the walk never leaves a small subspace
spanned by uniform superpositions over classes of arcs.  The classes are u
(marked left), v (unmarked left), t (marked right) and s (unmarked right);
``|pc>`` holds the arcs at a vertex of class p whose coin points to class c.
``LABELS`` owns the basis order.  A model drops the labels holding the marked
class of an unmarked side, and every state, operator and hit set below is
derived from its labels and class sizes.  The model's primitive is the marked
fraction r = n/N of a side, not an angle omega with cos(omega) = 1 - 2r.

This module builds the step operators restricted to those bases, the
rotation/mixer factorization (R, A) behind the closed forms, and numerical
verifiers for the operator identities and the product-form reduction of the
final state.  The coin and oracle builders also take an array of angles and
return a stack; :func:`run_reduced` forms each step's product S C Q from such
stacks, a fixed number of steps at a time.  Each stack is one block of the
step driver: it advances the state one matrix-vector product per step and
returns the block's states, whose norms and hit masses are then taken in one
vectorised pass per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .chebyshev import collapse_phases
from .fullspace import simulate
from .schedule import AngleSchedule, check_counts, gamma_grids

# Basis labels |pc> (position class, coin class).
LABELS = ("ut", "us", "tu", "tv", "vt", "vs", "su", "sv")

_MARKED = "ut"
_UNMARKED = {"u": "v", "t": "s"}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ReducedModel:
    """Invariant-subspace model of an instance, with the sides as given.

    ``labels`` is ``LABELS`` without the labels holding the marked class of
    an unmarked side.  It and the arrays derived from it and the class sizes
    are computed once per model; the arrays are read-only.
    """

    N_l: int
    N_r: int
    n_l: int
    n_r: int

    @cached_property
    def labels(self) -> tuple[str, ...]:
        empty = {c for c, n in (("u", self.n_l), ("t", self.n_r)) if n == 0}
        return tuple(label for label in LABELS if empty.isdisjoint(label))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def size(self, cls: str) -> int:
        """Vertex count of class u, v, t or s."""
        return {"u": self.n_l, "v": self.N_l - self.n_l, "t": self.n_r, "s": self.N_r - self.n_r}[cls]

    def degree(self, cls: str) -> int:
        """Degree of a vertex of class cls: N_r on the left (u, v), N_l on the right."""
        return self.N_r if cls in "uv" else self.N_l

    @cached_property
    def projector(self) -> np.ndarray:
        """Coin projector P[i, j] = sqrt(|c_i| |c_j|) / deg(p) where p_i = p_j = p."""
        return _frozen(np.array([
            [math.sqrt(self.size(c) * self.size(d)) / self.degree(p) if p == q else 0.0 for q, d in self.labels]
            for p, c in self.labels
        ]))

    @cached_property
    def marked(self) -> np.ndarray:
        """marked[i] = (p_i marked, c_i marked): the oracle's and R's supports."""
        return _frozen(np.array([[p in _MARKED, c in _MARKED] for p, c in self.labels]))

    @cached_property
    def hit_indices(self) -> np.ndarray:
        """Indices of the labels containing u or t."""
        return _frozen(np.flatnonzero(self.marked.any(axis=1)))

    @cached_property
    def mixer_pairs(self) -> tuple[np.ndarray, ...]:
        """(marked, unmarked, cos(omega/2), sin(omega/2)) over the coin pairs.

        Each |pm> with a marked coin class m pairs with |pw>, w the unmarked
        class on m's side; r = |m| / deg(p) = P[m, m] and 1 - r = P[w, w].
        """
        marked = np.flatnonzero(self.marked[:, 1])
        unmarked = np.array([self.labels.index(p + _UNMARKED[c]) for p, c in self.labels if c in _MARKED], dtype=int)
        diag = np.diag(self.projector)
        return tuple(_frozen(a) for a in (marked, unmarked, np.sqrt(diag[unmarked]), np.sqrt(diag[marked])))


def build_model(N_l: int, N_r: int, n_l: int, n_r: int) -> ReducedModel:
    """Reduced model from validated counts."""
    check_counts(N_l, N_r, n_l, n_r)
    return ReducedModel(N_l, N_r, n_l, n_r)


def reduced_initial_state(model: ReducedModel) -> np.ndarray:
    """Uniform arc superposition: sqrt(|p| |c|) / sqrt(2 N_l N_r) on |pc>."""
    v = np.array([math.sqrt(model.size(p) * model.size(c)) for p, c in model.labels], dtype=complex)
    return v / math.sqrt(2.0 * model.N_l * model.N_r)


def zero_bar(model: ReducedModel) -> np.ndarray:
    """The fixed reference state |0bar> = (|vs> + |sv>) / sqrt(2)."""
    return np.array([label in ("vs", "sv") for label in model.labels]) / math.sqrt(2.0) + 0j


def shift_matrix(model: ReducedModel) -> np.ndarray:
    """Flip-flop shift |pc> <-> |cp>: the rows of I permuted."""
    return np.eye(model.dim, dtype=complex)[[model.labels.index(c + p) for p, c in model.labels]]


def oracle_matrix(model: ReducedModel, beta) -> np.ndarray:
    """Diagonal phase e^{i beta} on the marked positions.  An array of n
    angles gives an (n, d, d) stack, a scalar one (d, d) matrix."""
    phases = np.where(model.marked[:, 0], np.exp(1j * np.asarray(beta))[..., None], 1.0 + 0j)
    Q = np.zeros(phases.shape + (model.dim,), dtype=complex)
    Q[..., range(model.dim), range(model.dim)] = phases
    return Q


def coin_matrix(model: ReducedModel, alpha) -> np.ndarray:
    """(1 - e^{-i alpha}) P - I, a fresh array.  An array of n angles gives an
    (n, d, d) stack, a scalar one (d, d) matrix."""
    c = 1.0 - np.exp(-1j * np.asarray(alpha))
    return c[..., None, None] * model.projector - np.eye(model.dim)


def rotation_r(model: ReducedModel, theta: float) -> np.ndarray:
    """Diagonal phase factor R(theta); R(theta) R(-theta) = I."""
    return -np.diag(np.where(model.marked[:, 1], np.exp(1j * theta / 2.0), np.exp(-1j * theta / 2.0)))


def mixer_a(model: ReducedModel, theta: float) -> np.ndarray:
    """Phased rotation A(theta) mixing each marked coin with its unmarked one."""
    m, w, cos, sin = model.mixer_pairs
    A = np.eye(model.dim, dtype=complex)
    A[m, m] = A[w, w] = cos
    A[m, w] = -1j * np.exp(1j * theta) * sin
    A[w, m] = -1j * np.exp(-1j * theta) * sin
    return A


def reduced_success_probability(state: np.ndarray, model: ReducedModel) -> float:
    """Two-register marked mass: components whose label contains u or t."""
    hits = state[model.hit_indices]
    return float(np.vdot(hits, hits).real)


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row, as a batched product: it equals ``np.vdot`` of
    the row with itself bit for bit, where einsum and abs^2 sums do not."""
    return (rows.conj()[:, None, :] @ rows[:, :, None])[:, 0, 0].real


def reduced_success_probabilities(states, model: ReducedModel) -> list:
    """:func:`reduced_success_probability` of each row of ``states``, bit for bit."""
    return _squared_norms(np.asarray(states)[:, model.hit_indices]).tolist()


_CHUNK = 64  # steps per block; a whole run's stack of step matrices can take tens of MB


def _advance(stack: np.ndarray, state: np.ndarray) -> np.ndarray:
    """States after each step of ``stack``, one matrix-vector product per step."""
    states = np.empty((len(stack), len(state)), dtype=complex)
    for k, M in enumerate(stack):
        state = states[k] = M.dot(state)
    return states


def _blocks(model: ReducedModel, schedule: AngleSchedule):
    """One block callable per ``_CHUNK`` scheduled steps, from the stack of
    their matrices S C(alpha_k) Q(beta_k), built with one builder call each."""
    S = shift_matrix(model)
    for start in range(0, schedule.h, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        stack = S @ coin_matrix(model, schedule.alphas[chunk]) @ oracle_matrix(model, schedule.betas[chunk])
        yield partial(_advance, stack)


def run_reduced(model: ReducedModel, schedule: AngleSchedule):
    """Apply the scheduled steps inside the invariant subspace, a block of
    steps at a time; see :func:`robustwalk.fullspace.simulate` for the return
    value and the unitarity check."""
    return simulate(
        reduced_initial_state(model),
        _blocks(model, schedule),
        lambda states: reduced_success_probabilities(states, model),
        lambda states: np.sqrt(_squared_norms(states)).tolist(),
    )


# ---------------------------------------------------------------------------
# state comparison up to a global phase
# ---------------------------------------------------------------------------

def _canonical_phase(state: np.ndarray, index: int) -> np.ndarray:
    a = state[index]
    if abs(a) == 0.0:
        return state.copy()
    return state * (abs(a) / a)


def global_phase_deviation(u: np.ndarray, v: np.ndarray) -> float:
    """Max componentwise deviation after rotating both states so the
    component that is largest in u is real positive."""
    i = int(np.argmax(np.abs(u)))
    return float(np.max(np.abs(_canonical_phase(u, i) - _canonical_phase(v, i))))


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def verify_identities(model: ReducedModel, trials: int, seed: int = 0, coin_builder=None) -> dict:
    """Check the R/A operator identities over random angle draws.

    Returns the max deviation per identity:

    * ``C=ARA``      coin factorization  C(a) = e^{-i a/2} A(pi/2) R(a) A(-pi/2)
    * ``QS=-SR``     oracle/shift braid  Q(b) S = -e^{i b/2} S R(b)
    * ``A=RAR``      phase steering      A(a+b) = R(b) A(a) R(-b)
    * ``RR=I``       R(t) R(-t) = I
    * ``psi0=ASA0``  initial state       psi0 = A(pi/2) S A(pi/2) |0bar>
    * ``SBSBS=BSB``  word shuffle        S B1 S B2 S = B2 S B1 for words B in {A, R}

    ``coin_builder`` overrides the coin constructor (fault-injection hook for
    the verify CLI's self-test).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    coin = coin_builder if coin_builder is not None else coin_matrix
    rng = np.random.default_rng(seed)
    S = shift_matrix(model)
    eye = np.eye(model.dim, dtype=complex)
    a_plus = mixer_a(model, np.pi / 2.0)
    a_minus = mixer_a(model, -np.pi / 2.0)
    psi0 = reduced_initial_state(model)
    devs = {k: 0.0 for k in ("C=ARA", "QS=-SR", "A=RAR", "RR=I", "psi0=ASA0", "SBSBS=BSB")}

    def record(name: str, difference: np.ndarray) -> None:
        devs[name] = max(devs[name], _max_abs(difference))

    record("psi0=ASA0", psi0 - a_plus @ S @ a_plus @ zero_bar(model))

    def random_word(length: int) -> np.ndarray:
        w = eye
        for _ in range(length):
            theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
            factor = mixer_a(model, theta) if rng.random() < 0.5 else rotation_r(model, theta)
            w = factor @ w
        return w

    for _ in range(trials):
        alpha, beta, theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=3)
        coin_alpha = coin(model, alpha)
        record("C=ARA", coin_alpha - np.exp(-1j * alpha / 2.0) * a_plus @ rotation_r(model, alpha) @ a_minus)
        oracle_beta = oracle_matrix(model, beta)
        record("QS=-SR", oracle_beta @ S + np.exp(1j * beta / 2.0) * S @ rotation_r(model, beta))
        mixer_sum = mixer_a(model, alpha + beta)
        record("A=RAR", mixer_sum - rotation_r(model, beta) @ mixer_a(model, alpha) @ rotation_r(model, -beta))
        record("RR=I", rotation_r(model, theta) @ rotation_r(model, -theta) - eye)
        b1 = random_word(int(rng.integers(0, 7)))
        b2 = random_word(int(rng.integers(0, 7)))
        record("SBSBS=BSB", S @ b1 @ S @ b2 @ S - b2 @ S @ b1)
    return devs


# ---------------------------------------------------------------------------
# product-form reduction of the final state
# ---------------------------------------------------------------------------

def _anchored_values(count: int, gamma: float) -> np.ndarray:
    """Phase values for a count-step collapse sequence, last value = pi/2.

    The collapse differences fix the sequence only up to a common offset; the
    operator-product derivation pins the outermost phase at pi/2 (the
    argument of the outermost mixer in the unreduced chain).
    """
    values = collapse_phases(count, gamma)
    return values + (np.pi / 2.0 - values[-1])


def _mixer_product(model: ReducedModel, values: np.ndarray) -> np.ndarray:
    prod = np.eye(model.dim, dtype=complex)
    for theta in values:  # A(values[0]) is applied first
        prod = mixer_a(model, theta) @ prod
    return prod


def verify_reduction(model: ReducedModel, schedule: AngleSchedule) -> float:
    """Compare the stepped final state against its R/A product form.

    Both states are computed numerically and compared up to one global phase;
    the product form uses the collapse phase sequences anchored at pi/2.
    Returns the deviation.
    """
    if schedule.kind != "robust":
        raise ValueError("the product-form reduction applies to robust schedules")
    h = schedule.h
    lhs, _ = run_reduced(model, schedule)
    S = shift_matrix(model)
    zb = zero_bar(model)
    r_alpha1 = rotation_r(model, schedule.alpha(1))
    r_beta_h = rotation_r(model, schedule.beta(h))
    cascades = [_mixer_product(model, _anchored_values(g.h, g.gamma)) for g in gamma_grids(h, schedule.epsilon)]
    inner, outer = cascades[0], cascades[-1]  # the mixers before and after the shift
    if h % 2 == 1:
        rhs = S @ outer @ r_alpha1 @ S @ r_beta_h @ inner @ zb
    else:
        rhs = r_beta_h @ outer @ r_alpha1 @ S @ inner @ zb
    return global_phase_deviation(lhs, rhs / np.linalg.norm(rhs))
