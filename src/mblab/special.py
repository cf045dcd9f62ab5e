"""Gamma and Bessel-function utilities for real order nu > -1.

Every Bessel value comes from one float64 algorithm, Miller's backward
recurrence (Gautschi, "Computational aspects of three-term recurrence
relations", SIAM Review 9, 1967).  The ratios J_{m} / J_{m-1} are run
downward from above max(x, nu), the direction in which J is the
minimal solution, and normalised by Neumann's sum
(x/2)^mu = sum_k c_k J_{mu+2k} at mu = nu + 1.  `bessel_j` takes a
scalar x or an array of them and runs every point at once, each from
its own start, so an array call equals the scalar calls bit for bit.
No sum cancels, so the values are good to ~1e-14 absolute (relative
for large values) over the whole supported window.

Every point starts from its own even order, `_start`: max(x, nu) plus
a margin clip(2 ceil(12 + 0.45 x), 32, 80) that grows with x, since the
start error dies out over fewer orders the smaller x is.  The least
margin that matches the error of a flat 80 against 40-digit mpmath, on
ten orders from -0.999 to 50, is 22 at x <= 5, 28 at x <= 10, 38 at
x <= 20, 48 at x <= 30, 56 at x <= 40, 66 at x <= 60 and 70 at x <= 120;
the worst case lies in the turning region x ~ nu, where the start error
dies out slowest (0.4 x in place of 0.45 x leaves 1.8e-14 at nu = 50,
x ~ 50, against 7e-15).  The rule gives 32 at x <= 10, 42 at 20, 60 at
40 and 80 from x ~ 62 on.

The smallest positive zero j_nu is found on the ratio J_nu / J_{nu+1}
that the same recurrence gives, run alone, without the Neumann sum.  A
march to a sign change over a grid evaluated in one array call, then
Newton steps kept inside the bracket.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .exceptions import AccuracyWindowError, ConvergenceError

__all__ = [
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

_LN2 = math.log(2.0)
_ZERO_STEPS = 100


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


def _start(nu, x):
    """The even m from which each point's ratios r_m start (order mu + m,
    mu = nu + 1): x - nu rounded up to even, plus the margin
    clip(2 ceil(12 + 0.45 x), 32, 80).  On x in [100, 120] a margin of 40
    leaves errors in J of 1.6e-6 against 40-digit reference values, 60
    leaves 5.6e-12, and from 72 on only the rounding, 5e-15."""
    margin = np.clip(2.0 * np.ceil(12.0 + 0.45 * x), 32.0, 80.0)
    return 2.0 * np.ceil(0.5 * np.maximum(x - nu, 0.0)) + margin


def _backward(nu, x, neumann):
    """J_nu(x) if `neumann`, else the ratio J_nu(x) / J_{nu+1}(x), at the
    points x > 0, an array of any shape or, for one point, a numpy float64
    (the same operations on numpy scalars, without array wrapping).

    At mu = nu + 1 the ratios r_m = J_{mu+m} / J_{mu+m-1} obey
    r_m = x / (2(mu+m) - x r_{m+1}).  Each point runs them from r = 0 at
    its own even start m = `_start`, down to r_1, the direction in which
    J is the minimal solution, so the start error dies out; points above
    their start keep r = 0, so no point's arithmetic depends on the
    others.  The ratio J_nu / J_{nu+1} is
    2mu/x - r_1.  For J itself the same loop also builds the Neumann sum
    (x/2)^mu = sum_k c_k J_{mu+2k}, c_k = (mu+2k) Gamma(mu+k) / k!
    (DLMF 10.23.15), as the nested product
    t = 1 + (c_1/c_0) rho_1 (1 + (c_2/c_1) rho_2 (...)), rho_k =
    r_{2k-1} r_{2k}, so J_mu = (x/2)^mu / (Gamma(mu+1) t) and nothing
    overflows.  Normalising at mu rather than nu keeps the sum clear of
    cancellation as nu -> -1, where J_{nu+2} / J_nu -> -1.  Then
    J_nu = J_mu (2mu/x - r_1), with the leading factor taken in log
    space so x/2 never underflows.
    """
    mu = nu + 1.0
    if neumann:
        # ln(x/2) as ln x - ln 2: x/2 underflows to 0 at the least subnormal.
        lead = nu * (np.log(x) - _LN2) - log_gamma(mu)
        if lead.max() > 708.0:
            raise OverflowError(f"J_{nu}({x[lead > 708.0][0]}) overflows double precision")
    tops = _start(nu, x)
    started = tops.min()  # from here down every point runs: no masks
    r = np.zeros_like(x)
    t = np.ones_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(int(tops.max()) // 2, 0, -1):
            live = 2 * k <= tops if 2 * k > started else None
            q = x / (2.0 * (nu + (2 * k + 1)) - x * r)  # r_{2k}
            if live is not None:
                q *= live
            r = x / (2.0 * (nu + 2 * k) - x * q)  # r_{2k-1}
            if live is not None:
                r *= live
            if neumann:
                # c_k / c_{k-1}.  At k = 1 it is (mu + 2) mu / mu, and for mu
                # below ulp(2) the sums round mu / mu to 0 / 0: take mu + 2.
                den = (mu + 2 * k - 2) * k
                ratio = (mu + 2 * k) * (mu + k - 1) / den if den else mu + 2.0
                t = 1.0 + ratio * (r * q) * t
        if not neumann:
            with np.errstate(over="ignore"):  # J_nu / J_{nu+1} -> inf as x -> 0
                return 2.0 * mu / x - r
        value = np.exp(lead) * (1.0 - x * r / (2.0 * mu)) / t
    bad = ~np.isfinite(value)
    if bad.any():
        raise ConvergenceError(f"Bessel recurrence failed for nu={nu}, x={x[bad][0]}")
    return value


def _bessel_any(nu, x):
    """J_nu at a scalar or an array x >= 0, without the public window
    (internal use needs nu+1 for derivatives)."""
    xs = np.array(x, dtype=float)
    out = xs.reshape(-1)  # a view: values replace the points in place
    zero = out == 0.0
    if not zero.all():
        out[~zero] = _backward(nu, out[~zero], True)
    out[zero] = 1.0 if nu == 0.0 else 0.0 if nu > 0.0 else math.inf
    return float(out[0]) if xs.ndim == 0 else xs


def _check_window(nu, x_max):
    if nu > NU_WINDOW or x_max > X_WINDOW:
        raise AccuracyWindowError(
            f"bessel_j accuracy window is x <= {X_WINDOW}, nu <= {NU_WINDOW}; "
            f"got nu={nu}, x={x_max}"
        )


def bessel_j(order, x):
    """Bessel function of the first kind J_nu(x), nu > -1, for a scalar
    x >= 0 (returns a float) or an array of them (returns an array)."""
    nu = _order(order)
    xs = np.asarray(x, dtype=float)
    if not (xs >= 0.0).all():
        raise ValueError(f"bessel_j requires x >= 0, got {xs[~(xs >= 0.0)].flat[0]}")
    _check_window(nu, xs.max(initial=0.0))
    return _bessel_any(nu, x)


def bessel_j_derivative(order, x):
    """d/dx J_nu(x) for x > 0, as (nu/x) J_nu(x) - J_{nu+1}(x), inside
    the window of `bessel_j`.

    The relation needs only orders >= nu, so it holds for every nu > -1.
    """
    nu = _order(order)
    x = float(x)
    if not x > 0.0:
        raise ValueError("bessel_j_derivative requires x > 0")
    _check_window(nu, x)
    return (nu / x) * _bessel_any(nu, x) - _bessel_any(nu + 1.0, x)


@lru_cache(maxsize=1024)
def _smallest_zero(nu):
    # J_{nu+1} > 0 on (0, j_{nu+1}), which holds j_nu and the 0.25 step
    # past it, so g = J_nu / J_{nu+1} has the sign of J_nu there and its
    # first zero is j_nu; g' = (2nu+1) g / x - 1 - g^2 is -1 at the zero.
    # March in 0.25 steps from just past the turning region to the first
    # sign change; the march grid is one array call and ends past the
    # upper bound j_nu < sqrt(nu+1) (sqrt(nu+2) + 1) (Chambers, Math.
    # Comp. 38, 1982).
    start = max(nu, 0.0) + 0.1
    bound = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    # g(0+) > 0 for nu > -1, so the point 0+ opens the grid: it brackets
    # a j_nu below the first probe (nu very close to -1, j ~ 2 sqrt(nu+1)).
    grid = np.r_[1e-12, start + 0.25 * np.arange(2 + int((bound - start) / 0.25))]
    crossed = np.flatnonzero(_backward(nu, grid, False) <= 0.0)
    if not crossed.size:
        raise ConvergenceError(f"no sign change of J_{nu} found below {grid[-1]}")
    a, b = grid[crossed[0] - 1 : crossed[0] + 1].tolist()
    # Newton steps from the midpoint.  Every sign seen shrinks the
    # bracket, and a step that would leave it is replaced by bisection.
    # Once a step is below 1e-12 of the root, quadratic convergence makes
    # the point it reaches good to rounding.
    root = 0.5 * (a + b)
    for _ in range(_ZERO_STEPS):
        g = float(_backward(nu, np.float64(root), False))
        if g > 0.0:
            a = root
        else:
            b = root
        slope = (2.0 * nu + 1.0) / root * g - 1.0 - g * g
        step = g / slope if slope else math.inf
        if abs(step) <= 1e-12 * root:
            root -= step
            break
        root = root - step if a < root - step < b else 0.5 * (a + b)
    else:
        raise ConvergenceError(f"zero refinement did not converge for nu={nu}")
    if not abs(_backward(nu, np.float64(root), False)) < 1e-12 * root:
        raise ConvergenceError(f"zero refinement stalled for nu={nu}")
    return root


def smallest_positive_zero(order):
    """Smallest positive zero j_nu of J_nu, for nu in (-1, 50]."""
    nu = _order(order)
    if nu > NU_WINDOW:
        raise AccuracyWindowError(f"zero finder supports nu <= {NU_WINDOW}, got {nu}")
    return _smallest_zero(nu)
