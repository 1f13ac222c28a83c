"""Full per-step dense matrices over the arc basis, built from their
definitions, as references for :func:`robustwalk.dense.run_dense`."""

import numpy as np

from robustwalk.dense import coin_projector, dimension, marked_positions
from robustwalk.fullspace import BipartiteInstance


def coin_matrix(instance: BipartiteInstance, alpha: float) -> np.ndarray:
    """(1 - e^{-i alpha}) |s_u><s_u| - I on every position block."""
    d = dimension(instance)
    return (1.0 - np.exp(-1j * alpha)) * coin_projector(instance) - np.eye(d, dtype=complex)


def oracle_matrix(instance: BipartiteInstance, beta: float) -> np.ndarray:
    """Diagonal phase e^{i beta} on arcs whose position register is marked."""
    return np.diag(np.where(marked_positions(instance), np.exp(1j * beta), 1.0 + 0.0j))
