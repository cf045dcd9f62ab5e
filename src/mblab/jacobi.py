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
    "norm_ratio",
    "norm_sequence",
    "log_norm_sequence",
    "recurrence_coefficients",
    "monic_eval",
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


def norm_ratio(params, k):
    """d_{k+1} / d_k for an integer k or an integer array k.

    At k = 0 the factor (1+alpha+beta)/(1+alpha+beta) cancels exactly,
    which keeps the value finite when alpha + beta = -1.
    """
    a, b = params.alpha, params.beta
    s = a + b
    # Float scalars square by pow(), arrays by x*x: one path for both.
    kf = np.array(k, dtype=float, ndmin=1)
    out = 4.0 * (kf + 1) * (kf + 1 + a) * (kf + 1 + b) / (
        (2 * kf + s + 2) ** 2 * (2 * kf + s + 3)
    )
    out = out * np.divide(kf + 1 + s, 2 * kf + s + 1, out=np.ones_like(kf), where=kf != 0)
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
    a, b = params.alpha, params.beta
    d0 = math.exp(log_gamma(a + 1.0) + log_gamma(b + 1.0) - log_gamma(a + b + 2.0))
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
    """ln d_k for k = 0..n, evaluated through log-gamma (no underflow)."""
    a, b = params.alpha, params.beta
    s = a + b
    out = np.empty(n + 1)
    out[0] = log_gamma(a + 1.0) + log_gamma(b + 1.0) - log_gamma(s + 2.0)
    ln2 = math.log(2.0)
    for k in range(1, n + 1):
        out[k] = (
            2 * k * ln2
            + log_gamma(k + 1.0)
            + log_gamma(k + a + 1.0)
            + log_gamma(k + b + 1.0)
            + log_gamma(k + s + 1.0)
            - log_gamma(2 * k + s + 1.0)
            - log_gamma(2 * k + s + 2.0)
        )
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


def monic_eval(params, k, x):
    """Monic Jacobi polynomial of degree k at x (scalar or array)."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    p_prev = np.ones_like(xs)
    if k == 0:
        return float(p_prev[0]) if scalar else p_prev
    ak, bk = recurrence_coefficients(params, k)
    p = xs - ak[0]
    for j in range(1, k):
        p, p_prev = (xs - ak[j]) * p - bk[j] * p_prev, p
    return float(p[0]) if scalar else p


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
    """Coefficient c_k in P_k^(alpha,beta) = P_k^(alpha+1,beta) - c_k P_{k-1}^(alpha+1,beta)."""
    if k < 1:
        raise ValueError("raising coefficient defined for k >= 1")
    a, b = params.alpha, params.beta
    s = a + b
    return 2.0 * k * (k + b) / ((2 * k + s) * (2 * k + s + 1))


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
