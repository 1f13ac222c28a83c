"""Exact dynamics in the 4- and 8-dimensional invariant subspaces.

By symmetry over the vertex classes (marked/unmarked on each side) the walk
never leaves a small subspace:

* one-sided marking: dim 4, basis ``|us>, |su>, |sv>, |vs>`` where u runs over
  marked-left, v over unmarked-left and s over right vertices;
* two-sided marking: dim 8, basis
  ``|ut>, |us>, |tu>, |tv>, |vt>, |vs>, |su>, |sv>`` where additionally t runs
  over marked-right and s over unmarked-right.

This module builds the step operators restricted to those bases, the
rotation/mixer factorization (R, A) behind the closed forms, and numerical
verifiers for the operator identities and the product-form reduction of the
final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fullspace
from .chebyshev import collapse_phases
from .fullspace import BipartiteInstance, StateVector, simulate
from .schedule import AngleSchedule

# Components whose first or second register is marked, per dimension.
_HIT_INDICES = {4: (0, 1), 8: (0, 1, 2, 3, 4, 6)}

# Flip-flop shift as index pairs, per dimension.
_SHIFT_PAIRS = {4: ((0, 1), (2, 3)), 8: ((0, 2), (1, 6), (3, 4), (5, 7))}


@dataclass(frozen=True)
class ReducedModel:
    """Invariant-subspace model of an instance, possibly side-swapped.

    ``mirrored`` records that the sides were exchanged so that the marked side
    (for one-sided marking) is the left one; the walk's success series is
    invariant under that swap.  The class-mixing angles omega1/omega2 and
    their cos/sin are derived from the counts: cos(omega1) = 1 - 2 n_l / N_l.
    """

    N_l: int
    N_r: int
    n_l: int
    n_r: int
    mirrored: bool

    @property
    def dim(self) -> int:
        return 4 if self.n_r == 0 else 8

    @property
    def omega1(self) -> float:
        return math.acos(1.0 - 2.0 * self.n_l / self.N_l)

    @property
    def omega2(self) -> float:
        return math.acos(1.0 - 2.0 * self.n_r / self.N_r)

    @property
    def cos_w1(self) -> float:
        return 1.0 - 2.0 * self.n_l / self.N_l

    @property
    def sin_w1(self) -> float:
        return 2.0 / self.N_l * math.sqrt(self.n_l * (self.N_l - self.n_l))

    @property
    def cos_w2(self) -> float:
        return 1.0 - 2.0 * self.n_r / self.N_r

    @property
    def sin_w2(self) -> float:
        return 2.0 / self.N_r * math.sqrt(self.n_r * (self.N_r - self.n_r))


def build_model(N_l: int, N_r: int, n_l: int, n_r: int) -> ReducedModel:
    """Reduced model from counts; swaps sides when only the right is marked."""
    if N_l < 1 or N_r < 1:
        raise ValueError("side sizes must be positive")
    if not (0 <= n_l <= N_l and 0 <= n_r <= N_r):
        raise ValueError("marked counts out of range")
    if n_l == 0 and n_r == 0:
        raise ValueError("nothing to search: no marked vertices")
    if n_l == 0:
        return ReducedModel(N_r, N_l, n_r, n_l, True)
    return ReducedModel(N_l, N_r, n_l, n_r, False)


def reduced_initial_state(model: ReducedModel) -> np.ndarray:
    """Uniform arc superposition expressed in the invariant basis."""
    N_l, N_r, n_l, n_r = model.N_l, model.N_r, model.n_l, model.n_r
    if model.dim == 4:
        v = np.array(
            [
                math.sqrt(n_l * N_r),
                math.sqrt(n_l * N_r),
                math.sqrt(N_r * (N_l - n_l)),
                math.sqrt(N_r * (N_l - n_l)),
            ],
            dtype=complex,
        )
    else:
        v = np.array(
            [
                math.sqrt(n_l * n_r),
                math.sqrt(n_l * (N_r - n_r)),
                math.sqrt(n_l * n_r),
                math.sqrt(n_r * (N_l - n_l)),
                math.sqrt(n_r * (N_l - n_l)),
                math.sqrt((N_l - n_l) * (N_r - n_r)),
                math.sqrt(n_l * (N_r - n_r)),
                math.sqrt((N_l - n_l) * (N_r - n_r)),
            ],
            dtype=complex,
        )
    return v / math.sqrt(2.0 * N_l * N_r)


def zero_bar(model: ReducedModel) -> np.ndarray:
    """The fixed reference state |0bar> of the product-form reduction."""
    v = np.zeros(model.dim, dtype=complex)
    if model.dim == 4:
        v[2] = v[3] = 1.0 / math.sqrt(2.0)
    else:
        v[5] = v[7] = 1.0 / math.sqrt(2.0)
    return v


def shift_matrix(model: ReducedModel) -> np.ndarray:
    S = np.zeros((model.dim, model.dim), dtype=complex)
    for i, j in _SHIFT_PAIRS[model.dim]:
        S[i, j] = S[j, i] = 1.0
    return S


def oracle_matrix(model: ReducedModel, beta: float) -> np.ndarray:
    diag = np.ones(model.dim, dtype=complex)
    marked = 1 if model.dim == 4 else 4  # |us> alone, or |ut>,|us>,|tu>,|tv>
    diag[:marked] = np.exp(1j * beta)
    return np.diag(diag)


def _coin_block(cos_w: float, sin_w: float, alpha: float) -> np.ndarray:
    """(1 - e^{-i alpha}) |s><s| - I restricted to a marked/unmarked pair."""
    c = 1.0 - np.exp(-1j * alpha)
    return np.array(
        [
            [c * (1.0 - cos_w) / 2.0 - 1.0, c * sin_w / 2.0],
            [c * sin_w / 2.0, c * (1.0 + cos_w) / 2.0 - 1.0],
        ],
        dtype=complex,
    )


def coin_matrix(model: ReducedModel, alpha: float) -> np.ndarray:
    if model.dim == 4:
        C = np.zeros((4, 4), dtype=complex)
        C[0, 0] = C[3, 3] = -np.exp(-1j * alpha)
        C[1:3, 1:3] = _coin_block(model.cos_w1, model.sin_w1, alpha)
        return C
    four = np.zeros((4, 4), dtype=complex)
    four[:2, :2] = _coin_block(model.cos_w2, model.sin_w2, alpha)
    four[2:, 2:] = _coin_block(model.cos_w1, model.sin_w1, alpha)
    return np.kron(np.eye(2), four)


def rotation_r(model: ReducedModel, theta: float) -> np.ndarray:
    """Diagonal phase factor R(theta); R(theta) R(-theta) = I."""
    plus = np.exp(1j * theta / 2.0)
    minus = np.exp(-1j * theta / 2.0)
    if model.dim == 4:
        return -np.diag([minus, plus, minus, minus]).astype(complex)
    return -np.diag([plus, minus, plus, minus, plus, minus, plus, minus]).astype(complex)


def _mixer_block(omega: float, theta: float) -> np.ndarray:
    c, s = math.cos(omega / 2.0), math.sin(omega / 2.0)
    return np.array(
        [
            [c, -1j * np.exp(1j * theta) * s],
            [-1j * np.exp(-1j * theta) * s, c],
        ],
        dtype=complex,
    )


def mixer_a(model: ReducedModel, theta: float) -> np.ndarray:
    """Phased rotation A(theta) mixing marked and unmarked classes."""
    if model.dim == 4:
        A = np.eye(4, dtype=complex)
        A[1:3, 1:3] = _mixer_block(model.omega1, theta)
        return A
    four = np.zeros((4, 4), dtype=complex)
    four[:2, :2] = _mixer_block(model.omega2, theta)
    four[2:, 2:] = _mixer_block(model.omega1, theta)
    return np.kron(np.eye(2), four)


def reduced_success_probability(state: np.ndarray, model: ReducedModel) -> float:
    """Two-register marked mass: components whose label contains u or t."""
    idx = list(_HIT_INDICES[model.dim])
    return float(np.sum(np.abs(state[idx]) ** 2))


def run_reduced(model: ReducedModel, schedule: AngleSchedule):
    """Apply the scheduled steps inside the invariant subspace."""
    S = shift_matrix(model)
    return simulate(
        reduced_initial_state(model),
        lambda state, alpha, beta: S @ (coin_matrix(model, alpha) @ (oracle_matrix(model, beta) @ state)),
        lambda state: reduced_success_probability(state, model),
        np.linalg.norm,
        schedule,
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
    devs["psi0=ASA0"] = _max_abs(psi0 - a_plus @ S @ a_plus @ zero_bar(model))

    def random_word(length: int) -> np.ndarray:
        w = eye
        for _ in range(length):
            theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
            factor = mixer_a(model, theta) if rng.random() < 0.5 else rotation_r(model, theta)
            w = factor @ w
        return w

    for _ in range(trials):
        alpha, beta, theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=3)
        devs["C=ARA"] = max(
            devs["C=ARA"],
            _max_abs(coin(model, alpha) - np.exp(-1j * alpha / 2.0) * a_plus @ rotation_r(model, alpha) @ a_minus),
        )
        devs["QS=-SR"] = max(
            devs["QS=-SR"],
            _max_abs(oracle_matrix(model, beta) @ S + np.exp(1j * beta / 2.0) * S @ rotation_r(model, beta)),
        )
        devs["A=RAR"] = max(
            devs["A=RAR"],
            _max_abs(
                mixer_a(model, alpha + beta)
                - rotation_r(model, beta) @ mixer_a(model, alpha) @ rotation_r(model, -beta)
            ),
        )
        devs["RR=I"] = max(devs["RR=I"], _max_abs(rotation_r(model, theta) @ rotation_r(model, -theta) - eye))
        b1 = random_word(int(rng.integers(0, 7)))
        b2 = random_word(int(rng.integers(0, 7)))
        devs["SBSBS=BSB"] = max(devs["SBSBS=BSB"], _max_abs(S @ b1 @ S @ b2 @ S - b2 @ S @ b1))
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
    values = collapse_phases(count, gamma).values
    return values + (np.pi / 2.0 - values[-1])


def _mixer_product(model: ReducedModel, values: np.ndarray) -> np.ndarray:
    prod = np.eye(model.dim, dtype=complex)
    for theta in values:  # A(values[0]) is applied first
        prod = mixer_a(model, theta) @ prod
    return prod


def verify_reduction(model: ReducedModel, schedule: AngleSchedule) -> dict:
    """Compare the stepped final state against its R/A product form.

    Both states are computed numerically and compared up to one global phase;
    the product form uses the collapse phase sequences anchored at pi/2.
    Returns a report dict with the deviation and a pass flag at 1e-9.
    """
    if schedule.kind != "robust":
        raise ValueError("the product-form reduction applies to robust schedules")
    h = schedule.h
    lhs, _ = run_reduced(model, schedule)
    S = shift_matrix(model)
    zb = zero_bar(model)
    r_alpha1 = rotation_r(model, schedule.alpha(1))
    r_beta_h = rotation_r(model, schedule.beta(h))
    if h % 2 == 1:
        values = _anchored_values(h, schedule.gamma_set.gamma)
        rhs = S @ _mixer_product(model, values) @ r_alpha1 @ S @ r_beta_h @ _mixer_product(model, values) @ zb
    else:
        g1, g2 = schedule.gamma_set
        inner = _anchored_values(h + 1, g1.gamma)   # h+1 mixers before the shift
        outer = _anchored_values(h - 1, g2.gamma)   # h-1 mixers after it
        rhs = r_beta_h @ _mixer_product(model, outer) @ r_alpha1 @ S @ _mixer_product(model, inner) @ zb
    deviation = global_phase_deviation(lhs, rhs / np.linalg.norm(rhs))
    return {
        "h": h,
        "dim": model.dim,
        "parity": schedule.parity,
        "deviation": deviation,
        "tolerance": 1e-9,
        "ok": deviation <= 1e-9,
    }


# ---------------------------------------------------------------------------
# embedding of the reduced basis into the full arc space
# ---------------------------------------------------------------------------

def reduced_basis_vectors(instance: BipartiteInstance) -> list[StateVector]:
    """The invariant-subspace basis as explicit full-space states.

    Requires every vertex class to be nonempty (0 < n_l < N_l, and for
    two-sided marking 0 < n_r < N_r).  Order matches the reduced components.
    """
    N_l, N_r = instance.N_l, instance.N_r
    ml = sorted(instance.marked_left)
    mr = sorted(instance.marked_right)
    ul = sorted(set(range(N_l)) - instance.marked_left)
    ur = sorted(set(range(N_r)) - instance.marked_right)
    if not ml or not ul:
        raise ValueError("need both marked and unmarked left vertices")

    def embed(rows, cols, layer) -> StateVector:
        state = StateVector(
            np.zeros((N_l, N_r), dtype=complex), np.zeros((N_r, N_l), dtype=complex)
        )
        block = getattr(state, layer)
        block[np.ix_(rows, cols)] = 1.0 / math.sqrt(len(rows) * len(cols))
        return state

    if not mr:
        # one-sided: |us>, |su>, |sv>, |vs> with s = all right vertices
        s = list(range(N_r))
        return [
            embed(ml, s, "lr"),
            embed(s, ml, "rl"),
            embed(s, ul, "rl"),
            embed(ul, s, "lr"),
        ]
    if not ur:
        raise ValueError("need both marked and unmarked right vertices")
    return [
        embed(ml, mr, "lr"),   # |ut>
        embed(ml, ur, "lr"),   # |us>
        embed(mr, ml, "rl"),   # |tu>
        embed(mr, ul, "rl"),   # |tv>
        embed(ul, mr, "lr"),   # |vt>
        embed(ul, ur, "lr"),   # |vs>
        embed(ur, ml, "rl"),   # |su>
        embed(ur, ul, "rl"),   # |sv>
    ]


def project_onto_reduced(state: StateVector, basis: list[StateVector]) -> np.ndarray:
    """Coefficients of a full-space state in the reduced basis."""
    flat = state.flatten()
    return np.array([np.vdot(b.flatten(), flat) for b in basis])


def conjugate_into_reduced(operator, basis: list[StateVector]) -> np.ndarray:
    """Matrix of a full-space operator restricted to the reduced basis.

    ``operator`` maps StateVector -> StateVector and may update its input in
    place (the full-space operators do), so it is given a copy of each basis
    vector.
    """
    dim = len(basis)
    mat = np.zeros((dim, dim), dtype=complex)
    for j, b in enumerate(basis):
        image = operator(b.copy())
        mat[:, j] = project_onto_reduced(image, basis)
    return mat


def subspace_leakage(operator, basis: list[StateVector]) -> float:
    """Largest norm of the image component outside the subspace.

    ``operator`` gets a copy of each basis vector, as in
    :func:`conjugate_into_reduced`.
    """
    worst = 0.0
    for b in basis:
        image = operator(b.copy()).flatten()
        for other in basis:
            image = image - np.vdot(other.flatten(), image) * other.flatten()
        worst = max(worst, float(np.linalg.norm(image)))
    return worst


def mirror_instance(instance: BipartiteInstance) -> BipartiteInstance:
    """Swap the two sides of an instance (marked sets follow)."""
    return fullspace.BipartiteInstance(
        instance.N_r, instance.N_l, instance.marked_right, instance.marked_left
    )
