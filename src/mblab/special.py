"""Gamma and Bessel-function utilities for real order nu > -1.

J_nu is evaluated through its ascending power series

    J_nu(x) = sum_m (-1)^m (x/2)^(nu+2m) / (m! Gamma(nu+m+1)),

with terms generated by a ratio recursion.  Away from the origin the
alternating sum cancels heavily; whenever the largest term grows too big
relative to the result, the sum is repeated in mpmath at a working
precision sized from the observed amplification, so the returned double
is good to ~1e-13 absolute (relative for large values) over the whole
supported window.

The smallest positive zero j_nu is found by marching to a sign change,
bisecting the bracket, and polishing with two Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .exceptions import AccuracyWindowError, ConvergenceError

__all__ = [
    "BesselOrder",
    "log_gamma",
    "bessel_j",
    "bessel_j_derivative",
    "smallest_positive_zero",
    "X_WINDOW",
    "NU_WINDOW",
]

# Accuracy window.  Zero finding for nu <= 50 needs arguments up to
# j_50 ~ 57.1, so the x-window extends well past that.
X_WINDOW = 120.0
NU_WINDOW = 50.0

_AMP_FLOAT64 = 4.0    # largest tolerated max-term/result ratio in float64
_TERM_EPS = 1e-18
_MAX_TERMS = 700
_ZERO_SEARCH_LIMIT = 150.0


@dataclass(frozen=True)
class BesselOrder:
    """Real order nu of J_nu, restricted to nu > -1."""

    nu: float

    def __post_init__(self):
        if not self.nu > -1.0:
            raise ValueError(f"Bessel order must exceed -1, got {self.nu}")

    def __float__(self):
        return float(self.nu)


def _order(order) -> float:
    nu = float(order)
    if not nu > -1.0:
        raise ValueError(f"Bessel order must exceed -1, got {nu}")
    return nu


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _series_f64(nu, x):
    """Float64 ascending series; returns (value, largest |term|)."""
    half = 0.5 * x
    lead = nu * math.log(half) - log_gamma(nu + 1.0)
    if lead > 708.0:
        raise OverflowError(f"J_{nu}({x}) overflows double precision")
    term = math.exp(lead)
    total = term
    peak = abs(term)
    q = -half * half
    m = 0
    while m < _MAX_TERMS:
        term *= q / ((m + 1.0) * (nu + m + 1.0))
        total += term
        m += 1
        a = abs(term)
        if a > peak:
            peak = a
        # Stop once terms fall below both the running sum's epsilon and
        # the roundoff floor of the largest term, with ratios < 1 so the
        # alternating tail is bounded by the next term.
        if (
            a <= max(_TERM_EPS * abs(total), 2.5e-18 * peak, 5e-324)
            and half * half < (m + 1.0) * (nu + m + 1.0)
        ):
            return total, peak
    raise ConvergenceError(f"Bessel series did not converge for nu={nu}, x={x}")


def _series_mp(nu, x, digits):
    """mpmath ascending series at `digits` working decimals.

    The order is promoted to mpf up front: mixed float/mpf arithmetic
    would round nu + m + 1 in double precision, and the cancellation
    amplifies that exponent noise.
    """
    with mpmath.workdps(digits):
        nu = mpmath.mpf(nu)
        half = mpmath.mpf(x) / 2
        term = mpmath.exp(nu * mpmath.log(half) - mpmath.loggamma(nu + 1))
        total = term
        peak = abs(term)
        q = -half * half
        stop = mpmath.mpf(10) ** (-(digits - 4))
        m = 0
        while m < _MAX_TERMS:
            term *= q / ((m + 1) * (nu + m + 1))
            total += term
            m += 1
            a = abs(term)
            if a > peak:
                peak = a
            if a <= stop * peak and half * half < (m + 1) * (nu + m + 1):
                return float(total)
    raise ConvergenceError(f"Bessel series did not converge for nu={nu}, x={x}")


def _bessel_any(nu, x):
    """Series evaluation without the public order window (internal use
    needs nu+1 for derivatives)."""
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        return 0.0 if nu > 0.0 else math.inf
    value, peak = _series_f64(nu, x)
    if peak <= _AMP_FLOAT64 * max(1.0, abs(value)):
        return value
    digits = 30 + max(0, int(math.log10(max(peak, 1.0))))
    return _series_mp(nu, x, digits)


def bessel_j(order, x):
    """Bessel function of the first kind J_nu(x), nu > -1, x >= 0."""
    nu = _order(order)
    x = float(x)
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    if x > X_WINDOW or nu > NU_WINDOW:
        raise AccuracyWindowError(
            f"bessel_j accuracy window is x <= {X_WINDOW}, nu <= {NU_WINDOW}; "
            f"got nu={nu}, x={x}"
        )
    return _bessel_any(nu, x)


def bessel_j_derivative(order, x):
    """d/dx J_nu(x) for x > 0, as (nu/x) J_nu(x) - J_{nu+1}(x).

    The relation needs only orders >= nu, so it holds for every nu > -1.
    """
    nu = _order(order)
    x = float(x)
    if not x > 0.0:
        raise ValueError("bessel_j_derivative requires x > 0")
    return (nu / x) * _bessel_any(nu, x) - _bessel_any(nu + 1.0, x)


@lru_cache(maxsize=1024)
def _smallest_zero(nu):
    # March in 0.25 steps from just past the turning region until J_nu
    # changes sign; J_nu > 0 on (0, j_nu) so the first crossing is j_nu.
    a = max(nu, 0.0) + 0.1
    fa = _bessel_any(nu, a)
    if fa <= 0.0:
        # j_nu below the first probe (nu very close to -1, j ~ 2 sqrt(nu+1));
        # the series leading term is positive, so 0+ brackets from the left.
        b, fb = a, fa
        a, fa = 1e-12, 1.0
    else:
        b = a + 0.25
        while True:
            if b > _ZERO_SEARCH_LIMIT:
                raise ConvergenceError(
                    f"no sign change of J_{nu} found below {_ZERO_SEARCH_LIMIT}"
                )
            fb = _bessel_any(nu, b)
            if fb <= 0.0:
                break
            a, fa = b, fb
            b += 0.25
    # Bisection to 1e-13, then two Newton polishing steps.
    while b - a > 1e-13 * max(1.0, b):
        mid = 0.5 * (a + b)
        fm = _bessel_any(nu, mid)
        if fm > 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    for _ in range(2):
        f = _bessel_any(nu, root)
        fp = bessel_j_derivative(nu, root)
        step = f / fp
        root -= step
    if abs(_bessel_any(nu, root)) >= 1e-12:
        raise ConvergenceError(f"zero refinement stalled for nu={nu}")
    return root


def smallest_positive_zero(order):
    """Smallest positive zero j_nu of J_nu, for nu in (-1, 50]."""
    nu = _order(order)
    if nu > NU_WINDOW:
        raise AccuracyWindowError(f"zero finder supports nu <= {NU_WINDOW}, got {nu}")
    return _smallest_zero(nu)
