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
    """Exponent pair (alpha, beta) of the weight, both > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, x in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(x):
                raise ValueError(f"Jacobi weight needs a finite {name}, got {x!r}")
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(
                f"Jacobi weight needs alpha, beta > -1, got ({self.alpha}, {self.beta})"
            )
        # At the float just above -1 the Bessel order (x - 1)/2 of the
        # large-n law rounds to -1, where it is undefined.
        for name, x in (("alpha", self.alpha), ("beta", self.beta)):
            if not (x - 1.0) / 2.0 > -1.0:
                raise ValueError(
                    f"{name} = {x!r} is too close to -1: its Bessel order"
                    f" ({name} - 1)/2 rounds to -1"
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
    a, b = params.alpha, params.beta
    s = a + b
    b_rounded = s - a
    return s, (a - (s - b_rounded)) + (b - b_rounded)


def norm_ratio(params, k):
    """d_{k+1} / d_k for an integer k >= 0 or an integer array of them.

    At k = 0 the factor (1+alpha+beta)/(1+alpha+beta) cancels exactly,
    which keeps the value finite when alpha + beta = -1.
    """
    a, b = params.alpha, params.beta
    s, lo = exponent_sum(params)
    # Float scalars square by pow(), arrays by x*x: one path for both.
    kf = np.array(k, dtype=float, ndmin=1)
    if not np.all((kf >= 0) & (kf == np.floor(kf))):
        raise ValueError("norm ratio defined for integers k >= 0")
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
    if n < 1:
        raise ValueError(f"norm_sequence requires n >= 1, got {n}")
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
    a, b = params.alpha, params.beta
    s, lo = exponent_sum(params)
    ln4 = math.log(4.0)
    out = np.empty(n + 1)
    out[0] = log_gamma(a + 1.0) + log_gamma(b + 1.0) - log_gamma((s + 2.0) + lo)
    steps = np.log(norm_ratio(params, np.arange(n))) + ln4
    out[1:] = out[0] + np.cumsum(steps) - ln4 * np.arange(1, n + 1)
    return out


def recurrence_coefficients(params, m):
    """Coefficients (a_k, b_k) of the monic three-term recurrence

        p_{k+1}(x) = (x - a_k) p_k(x) - b_k p_{k-1}(x),

    for k = 0..m-1.  By the usual convention b_0 holds the total weight
    integral mu_0 = 2^(alpha+beta+1) B(alpha+1, beta+1).  The k = 0 and
    k = 1 entries use the cancelled forms so that alpha + beta in
    {-1, 0} stays finite.
    """
    a, b = params.alpha, params.beta
    s = a + b
    ak = np.empty(m)
    bk = np.empty(m)
    ak[0] = (b - a) / (s + 2.0)
    bk[0] = math.exp(
        (s + 1.0) * math.log(2.0) + log_gamma(a + 1.0) + log_gamma(b + 1.0) - log_gamma(s + 2.0)
    )
    if m > 1:
        ak[1] = (b * b - a * a) / ((2 + s) * (4 + s))
        bk[1] = 4.0 * (1 + a) * (1 + b) / ((2 + s) ** 2 * (3 + s))
    for k in range(2, m):
        ak[k] = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2))
        bk[k] = (
            4.0 * k * (k + a) * (k + b) * (k + s)
            / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
        )
    return ak, bk


def monic_eval_table(params, kmax, x):
    """Values of all monic polynomials of degree 0..kmax at the points x;
    returns an array of shape (kmax + 1, len(x))."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((kmax + 1, xs.size))
    table[0] = 1.0
    if kmax == 0:
        return table
    ak, bk = recurrence_coefficients(params, kmax)
    table[1] = xs - ak[0]
    for j in range(1, kmax):
        table[j + 1] = (xs - ak[j]) * table[j] - bk[j] * table[j - 1]
    return table


def raising_coefficient(params, k):
    """Coefficient c_k in P_k^(alpha,beta) = P_k^(alpha+1,beta) - c_k P_{k-1}^(alpha+1,beta),
    for an integer k >= 1 or an integer array of them."""
    kf = np.array(k, dtype=float, ndmin=1)
    if not np.all(kf >= 1):
        raise ValueError("raising coefficient defined for k >= 1")
    s, lo = exponent_sum(params)
    out = 2.0 * kf * (kf + params.beta) / (((2 * kf + s) + lo) * ((2 * kf + s + 1) + lo))
    return float(out[0]) if np.ndim(k) == 0 else out


def gauss_jacobi_quadrature(params, m):
    """m-point Gauss rule for the weight (1-x)^alpha (1+x)^beta on (-1,1),
    by Golub-Welsch on the symmetrized recurrence matrix.

    Exact for polynomials of degree <= 2m - 1; the weights sum to the
    weight's total integral.  Returns (nodes, weights), nodes ascending.
    """
    if m < 1:
        raise ValueError(f"quadrature order must be >= 1, got {m}")
    ak, bk = recurrence_coefficients(params, m)
    mu0 = bk[0]
    if m == 1:
        return np.array([ak[0]]), np.array([mu0])
    off = np.sqrt(bk[1:])
    nodes, vectors = np.linalg.eigh(np.diag(ak) + np.diag(off, 1) + np.diag(off, -1))
    weights = mu0 * vectors[0, :] ** 2
    return nodes, weights
