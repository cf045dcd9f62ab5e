"""Monic Jacobi polynomial machinery for the weight (1-x)^alpha (1+x)^beta.

Covers squared norms of the monic family (in a convention that drops one
global, k-independent constant factor), pointwise evaluation by the
three-term recurrence, the parameter-raising coefficient, and a
Gauss-Jacobi quadrature rule for independent integral checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._exact import two_sum
from .exceptions import check_size
from .special import log_gamma

__all__ = [
    "JacobiWeightParams",
    "exponent_sum",
    "norm_ratio",
    "norm_sequence",
    "log_norm_sequence",
    "recurrence_coefficients",
    "monic_eval_table",
    "raising_coefficient",
    "gauss_jacobi_quadrature",
]

_D_MIN = 1e-290
_D_MAX = 1e290


@dataclass(frozen=True)
class JacobiWeightParams:
    """Exponent pair (alpha, beta) of the weight, both finite and > -1,
    with Bessel orders (alpha - 1)/2 and (beta - 1)/2 > -1 in floating
    point."""

    alpha: float
    beta: float

    def __post_init__(self):
        # (x - 1)/2 > -1 implies x > -1, and also refuses the float just
        # above -1, whose Bessel order of the large-n law rounds to -1.
        for name, x in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(x) and (x - 1.0) / 2.0 > -1.0):
                raise ValueError(
                    f"Jacobi weight needs a finite {name} whose Bessel order"
                    f" ({name} - 1)/2 exceeds -1, got {name} = {x!r}"
                )

    @property
    def nu_alpha(self):
        return (self.alpha - 1.0) / 2.0

    @property
    def nu_beta(self):
        return (self.beta - 1.0) / 2.0

    @property
    def nu_star(self):
        return min(self.nu_alpha, self.nu_beta)


def exponent_sum(params):
    """(s, lo): s = alpha + beta rounded and lo its rounding error (TwoSum's
    low part).  The closed forms take 2k + alpha + beta as (2k + s + c) + lo,
    lo added after the integer shift c, which is exact where the sum is tiny:
    added before it, lo would round away."""
    return two_sum(params.alpha, params.beta)


def _indices(k, low, name):
    """k as a float array of at least one dimension; raises ValueError
    unless every entry is a finite integer >= low (the closed forms would
    return a number, or NaN, for any k)."""
    kf = np.array(k, dtype=float, ndmin=1)
    if not np.all(np.isfinite(kf) & (kf == np.floor(kf)) & (kf >= low)):
        raise ValueError(f"{name} defined for integers k >= {low}")
    return kf


def norm_ratio(params, k):
    """d_{k+1} / d_k for an integer k >= 0 or an integer array of them.

    At k = 0 the factor (1+alpha+beta)/(1+alpha+beta) cancels exactly,
    which keeps the value finite when alpha + beta = -1.
    """
    a, b = params.alpha, params.beta
    s, lo = exponent_sum(params)
    # Float scalars square by pow(), arrays by x*x: one path for both.
    kf = _indices(k, 0, "norm ratio")
    t = 2 * kf + s
    out = 4.0 * (kf + 1) * (kf + 1 + a) * (kf + 1 + b) / (((t + 2) + lo) ** 2 * ((t + 3) + lo))
    out = out * np.divide((kf + 1 + s) + lo, (t + 1) + lo, out=np.ones_like(kf), where=kf != 0)
    return float(out[0]) if np.ndim(k) == 0 else out


def norm_sequence(params, n):
    """Squared norms d_0..d_n, d_0 in closed form and the rest by the
    ratio recurrence.

    Raises OverflowError (reporting k) if any d_k leaves the comfortably
    representable range; ratios stay near 1/4 so this happens around
    k ~ 460-480 (d_483 at alpha = beta = 0, d_459 at alpha = beta = 12).
    """
    check_size(n, 1, "norm_sequence requires n")
    d0 = math.exp(log_norm_sequence(params, 0)[0])
    values = np.cumprod(np.r_[d0, norm_ratio(params, np.arange(n))])
    outside = np.flatnonzero(~((values > _D_MIN) & (values < _D_MAX)))
    if outside.size:
        k = outside[0]
        raise OverflowError(
            f"norm d_{k} = {values[k]:.3e} leaves the representable range"
            f" (n={n} needs d_0..d_{n})"
        )
    return values


def log_norm_sequence(params, n):
    """ln d_k for k = 0..n: ln d_0 through log-gamma, then the cumulative
    sum of ln(d_{k+1}/d_k) (no underflow).  The ratios tend to 1/4, so
    the sum runs over ln(4 d_{k+1}/d_k), which stay small, and k ln 4 is
    taken off afterwards."""
    check_size(n, 0, "log_norm_sequence requires n")
    a, b = params.alpha, params.beta
    s, lo = exponent_sum(params)
    ln4 = math.log(4.0)
    out = np.empty(n + 1)
    out[0] = log_gamma(a + 1.0) + log_gamma(b + 1.0) - log_gamma((s + 2.0) + lo)
    steps = np.log(norm_ratio(params, np.arange(n))) + ln4
    out[1:] = out[0] + np.cumsum(steps) - ln4 * np.arange(1, n + 1)
    return out


def _recurrence(params, m):
    """a_k, b_k for k = 0..m-1 with b_0 = 0, and ln mu_0: the recurrence
    itself multiplies b_0 by p_{-1} = 0, so it runs where mu_0 overflows."""
    a, b = params.alpha, params.beta
    s, lo = exponent_sum(params)
    k = np.arange(m, dtype=float)
    t = 2 * k + s
    # Rows 0 and 1 of the general forms may be 0/0: they are written over.
    with np.errstate(all="ignore"):
        ak = (b - a) * (b + a) / ((t + lo) * ((t + 2) + lo))
        den = (t + lo) ** 2 * ((t + 1) + lo) * ((t - 1) + lo)
        bk = 4.0 * k * (k + a) * (k + b) * ((k + s) + lo) / den
    ak[0], bk[0] = (b - a) / ((s + 2) + lo), 0.0
    if m > 1:
        bk[1] = 4.0 * (1 + a) * (1 + b) / (((s + 2) + lo) ** 2 * ((s + 3) + lo))
    return ak, bk, ((s + 1) + lo) * math.log(2.0) + log_norm_sequence(params, 0)[0]


def recurrence_coefficients(params, m):
    """Coefficients (a_k, b_k) of the monic three-term recurrence

        p_{k+1}(x) = (x - a_k) p_k(x) - b_k p_{k-1}(x),

    for k = 0..m-1.  By the usual convention b_0 holds the total weight
    integral mu_0 = 2^(alpha+beta+1) B(alpha+1, beta+1), which leaves
    double range (an OverflowError) past alpha + beta of about 1020.  The
    k = 0 and k = 1 entries use the cancelled forms so that
    alpha + beta in {-1, 0} stays finite.
    """
    check_size(m, 1, "recurrence_coefficients requires m")
    ak, bk, ln_mu0 = _recurrence(params, m)
    # math.exp overflows exactly above ln of the largest double (NaN too).
    if not ln_mu0 <= math.log(np.finfo(float).max):
        raise OverflowError(
            f"mu_0 leaves double range at alpha = {params.alpha!r}, beta = {params.beta!r}"
        )
    bk[0] = math.exp(ln_mu0)
    return ak, bk


def monic_eval_table(params, kmax, x):
    """Values of all monic polynomials of degree 0..kmax at the points x;
    returns an array of shape (kmax + 1, len(x))."""
    check_size(kmax, 0, "monic_eval_table requires kmax")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    # Row 0 is p_{-1} = 0, which starts the recurrence at p_0 = 1.
    table = np.zeros((kmax + 2, xs.size))
    table[1] = 1.0
    ak, bk, _ = _recurrence(params, kmax + 1)
    for j in range(kmax):
        table[j + 2] = (xs - ak[j]) * table[j + 1] - bk[j] * table[j]
    return table[1:]


def raising_coefficient(params, k):
    """Coefficient c_k in P_k^(alpha,beta) = P_k^(alpha+1,beta) - c_k P_{k-1}^(alpha+1,beta),
    for an integer k >= 1 or an integer array of them."""
    kf = _indices(k, 1, "raising coefficient")
    s, lo = exponent_sum(params)
    out = 2.0 * kf * (kf + params.beta) / (((2 * kf + s) + lo) * ((2 * kf + s + 1) + lo))
    return float(out[0]) if np.ndim(k) == 0 else out


def gauss_jacobi_quadrature(params, m):
    """m-point Gauss rule for the weight (1-x)^alpha (1+x)^beta on (-1,1),
    by Golub-Welsch on the symmetrized recurrence matrix.

    Exact for polynomials of degree <= 2m - 1; the weights sum to the
    weight's total integral.  Returns (nodes, weights), nodes ascending.
    """
    check_size(m, 1, "quadrature order must be")
    ak, bk = recurrence_coefficients(params, m)
    mu0 = bk[0]
    off = np.sqrt(bk[1:])
    nodes, vectors = np.linalg.eigh(np.diag(ak) + np.diag(off, 1) + np.diag(off, -1))
    weights = mu0 * vectors[0, :] ** 2
    return nodes, weights
