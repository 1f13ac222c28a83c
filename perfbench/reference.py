"""40-digit mpmath evaluation of the paper's closed forms and step bound.

Independent of the package: the marked fractions n/N enter as exact rationals
and epsilon as the decimal the user types, so the reference carries none of
the float rounding the library's closed forms and simulators are measured for.
"""

from __future__ import annotations

import math

import mpmath

DPS = 40
# Resolution floor of the digits metrics: agreement to within about ten float64
# ulps of P ~ 1 is roundoff, and reads as 15 digits whatever its exact size.
TINY = 1e-15


def _cheb(n: int, y):
    if abs(y) <= 1:
        return mpmath.cos(n * mpmath.acos(y))
    sign = 1 if y > 0 or n % 2 == 0 else -1
    return sign * mpmath.cosh(n * mpmath.acosh(abs(y)))


def _inv_gamma(h: int, eps):
    return mpmath.cosh(mpmath.acosh(1 / mpmath.sqrt(eps)) / h)


def closed_form(h: int, epsilon: str, N_l: int, N_r: int, n_l: int, n_r: int):
    """P(h) of the robust h-step schedule, as an mpf with DPS digits."""
    with mpmath.workdps(DPS):
        eps = mpmath.mpf(epsilon)
        ratios = [mpmath.mpf(n) / N for n, N in ((n_l, N_l), (n_r, N_r)) if n]
        xs = [mpmath.sqrt(1 - r) for r in ratios]
        if h % 2 == 1:
            g = _inv_gamma(h, eps)
            prod = 1
            for x in xs:
                prod *= _cheb(h, x * g) ** 2
            return +(1 - eps ** len(xs) * prod)
        g1, g2 = _inv_gamma(h + 1, eps), _inv_gamma(h - 1, eps)
        if len(xs) == 1:
            (x,) = xs
            return +(1 - eps / 2 * (_cheb(h + 1, x * g1) ** 2 + _cheb(h - 1, x * g2) ** 2))
        xl, xr = xs
        return +(
            1
            - eps**2
            / 2
            * (
                _cheb(h + 1, xl * g1) ** 2 * _cheb(h - 1, xr * g2) ** 2
                + _cheb(h + 1, xr * g1) ** 2 * _cheb(h - 1, xl * g2) ** 2
            )
        )


def step_bound(epsilon: str, N_l: int, N_r: int, n_l: int, n_r: int) -> int:
    """ceil(log(2/sqrt(eps)) * max sqrt(N/n) over marked sides + 1)."""
    with mpmath.workdps(DPS):
        eps = mpmath.mpf(epsilon)
        spread = max(mpmath.sqrt(mpmath.mpf(N) / n) for n, N in ((n_l, N_l), (n_r, N_r)) if n)
        return int(mpmath.ceil(mpmath.log(2 / mpmath.sqrt(eps)) * spread + 1))


def error(value: float, ref) -> float:
    """|value - ref| as a float, value taken exactly as the float it is."""
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - ref))


def digits(worst_error: float) -> float:
    """Correct decimal digits implied by the largest absolute error."""
    return -math.log10(max(worst_error, TINY))
