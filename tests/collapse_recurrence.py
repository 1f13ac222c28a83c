"""The damped complex recurrence that the collapse phases are built for, for
the tests that check the collapse identity."""

import numpy as np


def quasi_chebyshev(h: int, x: float, phases: np.ndarray) -> complex:
    """Run the damped complex recurrence to order h and return a_h(x).

    a_0 = 1, a_1 = x, a_k = x (1 + e^{-i d_k}) a_{k-1} - e^{-i d_k} a_{k-2}
    with d_k = phases[k-1] - phases[k-2].  With ``collapse_phases(h, gamma)``
    the result equals T_h(x/gamma) / T_h(1/gamma) up to roundoff.
    """
    if h < 3 or h % 2 == 0:
        raise ValueError(f"the collapse identity needs odd h >= 3, got {h}")
    if len(phases) != h:
        raise ValueError(f"phase sequence has {len(phases)} entries, expected {h}")
    diffs = np.diff(phases)
    prev = 1.0 + 0.0j
    cur = complex(x)
    for k in range(2, h + 1):
        damp = np.exp(-1j * diffs[k - 2])
        prev, cur = cur, x * (1.0 + damp) * cur - damp * prev
    return cur
