"""Embedding of the reduced basis into the full arc space, for the tests that
check the invariant-subspace model against the full-space operators."""

import math

import numpy as np

from robustwalk.fullspace import BipartiteInstance, StateVector
from robustwalk.reduced import build_model


def flatten(state: StateVector) -> np.ndarray:
    """Arc amplitudes as one vector: left-position arcs first."""
    return np.concatenate([state.lr.ravel(), state.rl.ravel()])


def reduced_basis_vectors(instance: BipartiteInstance) -> list[StateVector]:
    """The invariant-subspace basis as explicit full-space states.

    Requires every vertex class of the labels to be nonempty (each marked
    side has an unmarked vertex).  Order matches the reduced
    components: |pc> is uniform over the arcs from class p to class c.
    """
    N_l, N_r = instance.N_l, instance.N_r
    ml, mr = instance.marked_left, instance.marked_right
    classes = {k: sorted(v) for k, v in zip("uvts", (ml, set(range(N_l)) - ml, mr, set(range(N_r)) - mr))}
    labels = build_model(N_l, N_r, len(ml), len(mr)).labels
    if any(not classes[k] for k in "".join(labels)):
        raise ValueError("every vertex class of the basis needs a vertex")

    def embed(p: str, c: str) -> StateVector:
        state = StateVector(np.zeros((N_l, N_r), dtype=complex), np.zeros((N_l, N_r), dtype=complex))
        rows, cols = classes[p], classes[c]
        amp = 1.0 / math.sqrt(len(rows) * len(cols))
        if p in "uv":
            state.lr[np.ix_(rows, cols)] = amp
        else:  # rl is indexed [u, v]: its rows are the coin class
            state.rl[np.ix_(cols, rows)] = amp
        return state

    return [embed(p, c) for p, c in labels]


def project_onto_reduced(state: StateVector, basis: list[StateVector]) -> np.ndarray:
    """Coefficients of a full-space state in the reduced basis."""
    flat = flatten(state)
    return np.array([np.vdot(flatten(b), flat) for b in basis])


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
        image = flatten(operator(b.copy()))
        for other in basis:
            image = image - np.vdot(flatten(other), image) * flatten(other)
        worst = max(worst, float(np.linalg.norm(image)))
    return worst


def mirror_instance(instance: BipartiteInstance) -> BipartiteInstance:
    """Swap the two sides of an instance (marked sets follow)."""
    return BipartiteInstance(instance.N_r, instance.N_l, instance.marked_right, instance.marked_left)
