"""Gamma and Bessel-function utilities for real order nu > -1.

J_nu is evaluated through its ascending power series

    J_nu(x) = sum_m (-1)^m (x/2)^(nu+2m) / (m! Gamma(nu+m+1)),

with terms generated by a ratio recursion.  `bessel_j` takes a scalar x
or an array of them; one float64 kernel sums the series over all points
at once, each point stopping at its own term.  Away from the origin the
alternating sum cancels heavily; at each point whose largest term grows
too big relative to the result, the sum is repeated in mpmath at a
working precision sized from the observed amplification, so the
returned double is good to ~1e-13 absolute (relative for large values)
over the whole supported window.

The smallest positive zero j_nu is found by marching to a sign change
over a grid evaluated in one array call, then by Newton steps kept
inside the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

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
_LN2 = math.log(2.0)
_MAX_TERMS = 700
_TABLE_ENTRIES = 1 << 14  # 128 kB of float64 per term table
_ZERO_STEPS = 100


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
    """Float64 ascending series at the points x > 0 (a 1-D array);
    returns (values, largest |term| of each point).

    The table of terms has one column per point and row m holding term
    m.  Its row count comes from the largest x, with a margin of at
    least four rows over the terms the stopping rule takes anywhere in
    the window; the points are cut into column blocks of at most
    _TABLE_ENTRIES entries.
    """
    rows = min(_MAX_TERMS, 16 + int(1.5 * x.max()))
    width = max(1, _TABLE_ENTRIES // (rows + 1))
    parts = [_series_block(nu, x[i : i + width], rows) for i in range(0, len(x), width)]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([v for v, _ in parts]), np.concatenate([p for _, p in parts])


def _series_block(nu, x, rows):
    """The series for one column block, over terms 0..rows.

    Row 0 is the leading term; a cumulative product over the ratio rows
    -(x/2)^2 / ((m+1)(nu+m+1)) repeats, point by point, the recursion
    term *= ratio, and cumulative sums and maxima along the rows give
    each point's running sum and largest term.  Each point takes the
    sum at the first row that passes the stopping rule.
    """
    half = 0.5 * x
    hh = half * half
    # ln(x/2) as ln x - ln 2: x/2 underflows to 0 at the least subnormal.
    lead = nu * (np.log(x) - _LN2) - log_gamma(nu + 1.0)
    if lead.max() > 708.0:
        raise OverflowError(f"J_{nu}({x[lead.argmax()]}) overflows double precision")
    m1 = np.arange(1.0, rows + 2.0)
    den = m1 * (nu + m1)
    table = np.empty((rows + 1, len(x)))
    np.exp(lead, out=table[0])
    np.divide(-hh, den[:-1, None], out=table[1:])
    np.multiply.accumulate(table, axis=0, out=table)
    sums = np.cumsum(table, axis=0)
    size = np.abs(table, out=table)
    peak = np.maximum.accumulate(size, axis=0)
    # Stop once a term falls below both the running sum's epsilon and
    # the roundoff floor of the largest term, with ratios < 1 so the
    # alternating tail is bounded by the next term.
    floor = np.maximum(_TERM_EPS * np.abs(sums), 2.5e-18 * peak)
    stop = size <= np.maximum(floor, 5e-324, out=floor)
    stop &= hh < den[:, None]
    stop[0] = False
    first = stop.argmax(axis=0)
    cols = np.arange(len(x))
    if not stop[first, cols].all():
        bad = x[~stop.any(axis=0)][0]
        raise ConvergenceError(f"Bessel series did not converge for nu={nu}, x={bad}")
    return sums[first, cols], peak[first, cols]


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
    """J_nu at a scalar or an array x >= 0, without the public window
    (internal use needs nu+1 for derivatives).

    Each point whose largest term exceeds _AMP_FLOAT64 max(1, |J|) is
    summed again in mpmath, at a precision sized from that term."""
    xs = np.array(x, dtype=float)
    out = xs.reshape(-1)  # a view: values replace the points in place
    zero = out == 0.0
    points = out[~zero]
    if len(points):
        value, peak = _series_f64(nu, points)
        for i in (peak > _AMP_FLOAT64 * np.maximum(1.0, np.abs(value))).nonzero()[0]:
            digits = 30 + max(0, int(math.log10(max(peak[i], 1.0))))
            value[i] = _series_mp(nu, float(points[i]), digits)
        out[~zero] = value
    out[zero] = 1.0 if nu == 0.0 else 0.0 if nu > 0.0 else math.inf
    return float(out[0]) if xs.ndim == 0 else xs


def bessel_j(order, x):
    """Bessel function of the first kind J_nu(x), nu > -1, for a scalar
    x >= 0 (returns a float) or an array of them (returns an array)."""
    nu = _order(order)
    xs = np.asarray(x, dtype=float)
    if not (xs >= 0.0).all():
        raise ValueError(f"bessel_j requires x >= 0, got {xs[~(xs >= 0.0)].flat[0]}")
    if nu > NU_WINDOW or (xs > X_WINDOW).any():
        raise AccuracyWindowError(
            f"bessel_j accuracy window is x <= {X_WINDOW}, nu <= {NU_WINDOW}; "
            f"got nu={nu}, x={xs.max(initial=0.0)}"
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
    # March in 0.25 steps from just past the turning region to the first
    # sign change; J_nu > 0 on (0, j_nu) so the first crossing is j_nu.
    # The march grid is one array call: it ends past the upper bound
    # j_nu < sqrt(nu+1) (sqrt(nu+2) + 1) (Chambers, Math. Comp. 38, 1982).
    start = max(nu, 0.0) + 0.1
    bound = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    grid = start + 0.25 * np.arange(2 + int((bound - start) / 0.25))
    crossed = np.flatnonzero(_bessel_any(nu, grid) <= 0.0)
    if not crossed.size:
        raise ConvergenceError(f"no sign change of J_{nu} found below {grid[-1]}")
    i = int(crossed[0])
    if i == 0:
        # j_nu below the first probe (nu very close to -1, j ~ 2 sqrt(nu+1));
        # the series leading term is positive, so 0+ brackets from the left.
        a, b = 1e-12, float(grid[0])
    else:
        a, b = float(grid[i - 1]), float(grid[i])
    # Newton steps from the midpoint, J' = (nu/x) J_nu - J_{nu+1}.  Every
    # sign seen shrinks the bracket, and a step that would leave it is
    # replaced by bisection.  Once a step is below 1e-12 of the root,
    # quadratic convergence makes the point it reaches good to rounding.
    root = 0.5 * (a + b)
    for _ in range(_ZERO_STEPS):
        f = _bessel_any(nu, root)
        if f == 0.0:
            break
        if f > 0.0:
            a = root
        else:
            b = root
        step = f / ((nu / root) * f - _bessel_any(nu + 1.0, root))
        if abs(step) <= 1e-12 * root:
            root -= step
            break
        root = root - step if a < root - step < b else 0.5 * (a + b)
    else:
        raise ConvergenceError(f"zero refinement did not converge for nu={nu}")
    if abs(_bessel_any(nu, root)) >= 1e-12:
        raise ConvergenceError(f"zero refinement stalled for nu={nu}")
    return root


def smallest_positive_zero(order):
    """Smallest positive zero j_nu of J_nu, for nu in (-1, 50]."""
    nu = _order(order)
    if nu > NU_WINDOW:
        raise AccuracyWindowError(f"zero finder supports nu <= {NU_WINDOW}, got {nu}")
    return _smallest_zero(nu)
