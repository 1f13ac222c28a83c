"""Chebyshev polynomials of the first kind and the grid angles behind the
robust angle schedules.

Everything here is real scalar math on plain floats and small numpy arrays.
The key objects are:

* ``chebyshev_t``        -- T_n(x), numerically stable for |x| > 1,
* ``gamma_params``       -- the contraction factor gamma with T_h(1/gamma) = 1/sqrt(eps),
* ``grid_angle``         -- 2 arccot(tan(j pi / n) sqrt(1 - gamma^2)) on a grid
  (n, gamma), the one owner of the spread sqrt(1 - gamma^2): the schedule's
  coin angles and the collapse phases both take it,
* ``collapse_phases``    -- the phase sequence whose differences d_k make the
  damped complex recurrence a_k = x (1 + e^{-i d_k}) a_{k-1} - e^{-i d_k} a_{k-2}
  collapse to T_h(x/gamma)/T_h(1/gamma).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def arccot(y):
    """Inverse cotangent on the (0, pi) branch: arccot(y) = pi/2 - arctan(y).

    Continuous across sign changes of y; arccot(+inf) -> 0, arccot(-inf) -> pi.
    Accepts scalars or arrays.
    """
    return np.pi / 2 - np.arctan(y)


def chebyshev_t(n: int, x):
    """T_n(x) for real x (scalar or array).

    Uses cos(n arccos x) on [-1, 1] and the hyperbolic form
    sgn(x)^n cosh(n arccosh|x|) outside, which stays exact where the
    trigonometric form would go complex.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    inside = np.abs(arr) <= 1.0
    out[inside] = np.cos(n * np.arccos(arr[inside]))
    if np.any(~inside):
        big = arr[~inside]
        sign = np.where(big > 0, 1.0, (-1.0) ** n)
        out[~inside] = sign * np.cosh(n * np.arccosh(np.abs(big)))
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


@dataclass(frozen=True)
class GammaParams:
    """Contraction factor for a given step count and error floor.

    gamma = 1/cosh(arccosh(1/sqrt(eps))/h) lies in (0, 1] and satisfies
    T_h(1/gamma) = 1/sqrt(eps).
    """

    h: int
    inv_gamma: float

    @property
    def gamma(self) -> float:
        return 1.0 / self.inv_gamma


def check_steps(h: int) -> None:
    """The one owner of the step-count rule: h is a positive integer."""
    if not isinstance(h, numbers.Integral) or h < 1:
        raise ValueError(f"step count must be a positive integer, got {h}")


def check_epsilon(epsilon: float) -> None:
    """The one owner of the error-floor rule: epsilon is in (0, 1]."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")


def gamma_params(h: int, epsilon: float) -> GammaParams:
    """Compute gamma for an h-step schedule with error floor epsilon.

    Evaluated entirely in real arithmetic via cosh/arccosh; for epsilon = 1
    gamma is exactly 1.
    """
    check_epsilon(epsilon)
    check_steps(h)
    inv_gamma = math.cosh(math.acosh(1.0 / math.sqrt(epsilon)) / h)
    return GammaParams(h, inv_gamma)


def grid_angle(j, n: int, gamma: float) -> np.ndarray:
    """2 arccot(tan(j pi / n) sqrt(1 - gamma^2)) for an array of grid indices j
    on the grid of n steps with contraction factor gamma."""
    spread = math.sqrt(max(0.0, 1.0 - gamma * gamma))
    return 2.0 * arccot(np.tan(j * np.pi / n) * spread)


def collapse_phases(h: int, gamma: float) -> np.ndarray:
    """Phases zeta_1..zeta_h, anchored at zeta_1 = 0, whose differences make
    the recurrence collapse.

    zeta_{k+1} - zeta_k = (-1)^k pi - grid_angle(k, h, gamma) for k = 1..h-1.
    For odd h, k pi / h never hits pi/2, so tan stays finite.
    """
    check_steps(h)
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    k = np.arange(1, h)
    diffs = (-1.0) ** k * np.pi - grid_angle(k, h, gamma)
    return np.concatenate(([0.0], np.cumsum(diffs)))
