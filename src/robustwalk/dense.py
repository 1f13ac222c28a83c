"""Naive dense-matrix simulator over the arc basis.

Operators are deliberately independent of :mod:`robustwalk.fullspace`: they
are built as explicit matrices straight from their definitions (index grids
over the arcs, addressed through :func:`left_arc` and :func:`right_arc`; no
code shared with the structured simulator); only the step driver
(:func:`robustwalk.fullspace.simulate`) is shared.  :func:`run_dense` builds
the shift S, the coin projector P and the marked diagonal once per run, and
one step with angles (alpha, beta) is S ((1 - e^{-i alpha}) P - I) Q(beta)
applied to the state: a phase vector for the diagonal oracle Q and two dense
matrix-vector products.  This is the cross-check oracle for the structured
simulator, intended for 2 * N_l * N_r up to a few hundred.

Arc indexing: arc (left u -> right v) sits at u * N_r + v; arc
(right v -> left u) sits at N_l * N_r + v * N_l + u.
"""

from __future__ import annotations

import numpy as np

from .fullspace import BipartiteInstance, simulate
from .schedule import AngleSchedule


def dimension(instance: BipartiteInstance) -> int:
    return 2 * instance.N_l * instance.N_r


def left_arc(instance: BipartiteInstance, u: int, v: int) -> int:
    return u * instance.N_r + v

def right_arc(instance: BipartiteInstance, v: int, u: int) -> int:
    return instance.N_l * instance.N_r + v * instance.N_l + u


def _grid(*sizes):
    """Broadcastable index grids: one axis per size, in order."""
    return np.ix_(*(np.arange(n) for n in sizes))


def shift_matrix(instance: BipartiteInstance) -> np.ndarray:
    """Permutation matrix swapping arc (u, v) with arc (v, u)."""
    d = dimension(instance)
    S = np.zeros((d, d), dtype=complex)
    u, v = _grid(instance.N_l, instance.N_r)
    i = left_arc(instance, u, v)
    j = right_arc(instance, v, u)
    S[j, i] = 1.0
    S[i, j] = 1.0
    return S


def coin_projector(instance: BipartiteInstance) -> np.ndarray:
    """Block-diagonal sum of |s_u><s_u| over all positions u."""
    d = dimension(instance)
    P = np.zeros((d, d), dtype=complex)
    u, v, w = _grid(instance.N_l, instance.N_r, instance.N_r)
    P[left_arc(instance, u, v), left_arc(instance, u, w)] = 1.0 / instance.N_r
    v, u, w = _grid(instance.N_r, instance.N_l, instance.N_l)
    P[right_arc(instance, v, u), right_arc(instance, v, w)] = 1.0 / instance.N_l
    return P


def marked_positions(instance: BipartiteInstance) -> np.ndarray:
    """True on arcs whose position register is marked."""
    marked = np.zeros(dimension(instance), dtype=bool)
    u, v = np.ix_(sorted(instance.marked_left), np.arange(instance.N_r))
    marked[left_arc(instance, u, v)] = True
    v, u = np.ix_(sorted(instance.marked_right), np.arange(instance.N_l))
    marked[right_arc(instance, v, u)] = True
    return marked


def initial_vector(instance: BipartiteInstance) -> np.ndarray:
    d = dimension(instance)
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def marked_arc_mask(instance: BipartiteInstance) -> np.ndarray:
    """True on arcs (u, v) with u marked or v marked."""
    mask = np.zeros(dimension(instance), dtype=bool)
    u, v = _grid(instance.N_l, instance.N_r)
    hit = np.isin(u, sorted(instance.marked_left)) | np.isin(v, sorted(instance.marked_right))
    mask[left_arc(instance, u, v)] = hit
    mask[right_arc(instance, v, u)] = hit
    return mask


def run_dense(instance: BipartiteInstance, schedule: AngleSchedule):
    """Apply the scheduled steps via explicit matrices; mirrors fullspace.run.

    The shift, coin projector and marked diagonal are assembled once.  Each
    step applies the oracle's diagonal as a phase vector, the coin
    (1 - e^{-i alpha}) P - I through its projector and the shift as a dense
    matrix-vector product.
    """
    mask = marked_arc_mask(instance)
    S = shift_matrix(instance)
    P = coin_projector(instance)
    marked = marked_positions(instance)

    def step(alpha, beta):
        def apply(psi):
            psi = np.where(marked, np.exp(1j * beta), 1.0 + 0.0j) * psi
            return [S @ ((1.0 - np.exp(-1j * alpha)) * (P @ psi) - psi)]

        return apply

    return simulate(
        initial_vector(instance),
        map(step, schedule.alphas, schedule.betas),
        lambda states: [float(np.sum(np.abs(psi[mask]) ** 2)) for psi in states],
        lambda states: [np.linalg.norm(psi) for psi in states],
    )
