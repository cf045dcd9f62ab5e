"""Banded matrices of the derivative-norm pencil.

The squared sharp constant is the reciprocal of the smallest generalized
eigenvalue of (A, D) where

    A = C1^T C2^T N^-1 D+ N^-1 C2 C1,      D = diag(d_0..d_{n-1}),

C1, C2 are unit upper bidiagonal, N = diag(1..n) and D+ = diag(d_1..d_n).
Every computation runs on the upper-triangular factor H of the
symmetrized, ratio-scaled form

    B = D^-1/2 A D^-1/2 = H^T H,    H = D+^1/2 (N^-1 C2 C1) D^-1/2 = K2 K1,

whose entries involve only the well-scaled ratios r_k = d_{k+1}/d_k, so
it works for any n.  H is the product of two upper bidiagonals,
K1 = D+^1/2 C1 D^-1/2 (diagonal sqrt(r_k), superdiagonal c1_k) and
K2 = D+^1/2 N^-1 C2 D+^-1/2 (diagonal 1/(k+1), superdiagonal
c2_k / ((k+1) sqrt(r_{k+1}))); the solver inverts H through them.  This
module owns H's band layout, its factors and its products.
The raw pentadiagonal A and D, whose norms leave double range around
n ~ 460-480, are assembled only for the independent dense oracle of
`verify` and for `--dump-pencil`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import check_size
from .jacobi import (
    JacobiWeightParams,
    exponent_sum,
    norm_ratio,
    norm_sequence,
    raising_coefficient,
)

__all__ = [
    "BandedPencil",
    "ScaledPencil",
    "g_bands",
    "build_pencil",
    "scaled_pencil",
    "check_factors",
    "perturb_factor",
    "h_matvec",
    "ht_matvec",
    "symmetrized_bands",
]

# The pair (A, D) in banded storage: the three stored bands of the
# symmetric pentadiagonal A, then the diagonal d_0..d_{n-1} of D.
BandedPencil = namedtuple("BandedPencil", "diag super1 super2 d")


@dataclass(frozen=True)
class ScaledPencil:
    """Factor H of the symmetrized pencil B = H^T H, upper triangular with
    bandwidth 2, and its bidiagonal factors H = K2 K1.

    h0/h1/h2 are the bands of H from their closed forms (h1 is exactly 0
    at alpha = beta); k1_0/k1_1 and k2_0/k2_1 are the diagonals and
    superdiagonals of K1 and K2.  The squared singular values of H are the
    eigenvalues of B, which equal the generalized eigenvalues of (A, D).
    """

    n: int
    params: JacobiWeightParams
    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    k1_0: np.ndarray
    k1_1: np.ndarray
    k2_0: np.ndarray
    k2_1: np.ndarray


def _closed_forms(params, n):
    """The bands g0, g1, g2 of G, with the entries c2_k of C2 and the
    raising coefficients c_k, k = 1..n-1, that g2 is made of: each closed
    form evaluated once."""
    rows = np.arange(1, n + 1, dtype=float)
    k = rows[:-1]
    s, lo = exponent_sum(params)
    t = 2 * k + s
    c2 = 2.0 * k * (k + params.alpha + 1) / (((t + 1) + lo) * ((t + 2) + lo))
    raising = raising_coefficient(params, np.arange(1, n))
    g0 = 1.0 / rows
    # (c1 + c2)_k = 2k(alpha - beta) / ((2k+s)(2k+s+2)) exactly; the closed
    # form has no cancellation and is exactly 0 at alpha = beta.
    g1 = 2.0 * (params.alpha - params.beta) / ((t + lo) * ((t + 2) + lo))
    g2 = c2[:-1] * -raising[1:] / rows[:-2]
    return (g0, g1, g2), c2, raising


def g_bands(params, n):
    """Bands of G = N^-1 C2 C1 (upper triangular, bandwidth 2), which maps
    the monic coefficients of Q' to those of Q."""
    return _closed_forms(params, n)[0]


def _gram_bands(f0, f1, f2, weights):
    """Bands of F^T diag(weights) F for F upper triangular with bands
    f0, f1, f2."""
    diag = weights * f0 ** 2
    diag[1:] += weights[:-1] * f1 ** 2
    diag[2:] += weights[:-2] * f2 ** 2
    super1 = weights[:-1] * f0[:-1] * f1
    super1[1:] += weights[:-2] * f1[:-1] * f2
    return diag, super1, weights[:-2] * f0[:-2] * f2


def build_pencil(params, n):
    """Assemble A = G^T D+ G and D in banded storage (raw norm units)."""
    check_size(n, 1, "n must be")
    norms = norm_sequence(params, n)
    return BandedPencil(*_gram_bands(*g_bands(params, n), norms[1:]), norms[:-1])


def scaled_pencil(params, n):
    """Build the factor H and its factors K1, K2 from the closed forms of
    G, C1, C2 and the norm ratios; never forms the raw d_k, so it is safe
    for any n.  Raises OverflowError where an exponent is so large that
    the cube of 2k + alpha + beta leaves double range (from about 1e103):
    the norm ratios then come out 0 or NaN."""
    check_size(n, 1, "n must be")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sr = np.sqrt(norm_ratio(params, np.arange(n)))
        (g0, g1, g2), c2, raising = _closed_forms(params, n)
        k2_1 = c2 / (np.arange(1, n) * sr[1:])
        bands = sr * g0, g1, g2 / sr[1 : n - 1], sr, -raising, g0, k2_1
    if not (all(np.isfinite(band).all() for band in bands) and sr.all()):
        raise OverflowError(
            f"the bands of H leave double range at alpha = {params.alpha!r},"
            f" beta = {params.beta!r}, n = {n}"
        )
    return ScaledPencil(n, params, *bands)


_FACTOR_BANDS = ("k1_0", "k1_1", "k2_0", "k2_1")


def _factor_product(k1_0, k1_1, k2_0, k2_1):
    """Bands of K2 K1, and the magnitude of the two terms of each entry of
    its superdiagonal."""
    first, second = k2_0[:-1] * k1_1, k2_1 * k1_0[1:]
    return k2_0 * k1_0, first + second, k2_1[:-1] * k1_1[1:], abs(first) + abs(second)


def check_factors(pencil):
    """Raise ValueError unless the factors are finite with nonzero
    diagonals and K2 K1 reproduces h0..h2 within 8 units of rounding of
    each entry's terms (the closed forms stay within about 2): the solver
    inverts H through its factors, so bands changed without them would be
    solved with the inverse of another matrix."""
    factors = [getattr(pencil, band) for band in _FACTOR_BANDS]
    finite = all(np.all(np.isfinite(f)) for f in factors)
    if not (finite and np.all(factors[0]) and np.all(factors[2])):
        raise ValueError("the factors K1, K2 must be finite, with nonzero diagonals")
    p0, p1, p2, scale1 = _factor_product(*factors)
    bound = 8 * np.finfo(float).eps
    for band, want, scale in ((pencil.h0, p0, p0), (pencil.h1, p1, scale1), (pencil.h2, p2, p2)):
        if not np.all(abs(band - want) <= bound * abs(scale)):
            raise ValueError("the bands of H disagree with the product K2 K1 of its factors")


def perturb_factor(pencil, band, eps):
    """The pencil with the factor band `band` (one of _FACTOR_BANDS)
    scaled by (1 + eps) and h0..h2 rebuilt from the factors: the way to
    make a modified pencil that the solver accepts.  Scaling k2_1 scales
    h2 by exactly (1 + eps) and moves h1 with it."""
    if band not in _FACTOR_BANDS:
        raise ValueError(f"unknown factor band {band!r}")
    factors = {b: getattr(pencil, b) * (1.0 + eps if b == band else 1.0) for b in _FACTOR_BANDS}
    h0, h1, h2, _ = _factor_product(**factors)
    return replace(pencil, h0=h0, h1=h1, h2=h2, **factors)


def symmetrized_bands(pencil):
    """Bands of B = D^-1/2 A D^-1/2 obtained by congruence from the
    stored raw bands (so any modification of A flows through)."""
    d = pencil.d
    sd = np.sqrt(d)
    return pencil.diag / d, pencil.super1 / (sd[:-1] * sd[1:]), pencil.super2 / (sd[:-2] * sd[2:])


def h_matvec(h0, h1, h2, x, out=None, work=None):
    """H x for a 1-D x, H upper triangular with bands h0, h1, h2; written
    into `out` when given.  `work` (1-D, any length; n long when not
    given) holds the h1 and h2 products, len(work) at a time; each entry
    is the same for every length."""
    out = np.multiply(h0, x, out=out)
    work = np.empty(len(x)) if work is None else work
    for shift, band in enumerate((h1, h2), 1):
        for start in range(0, len(band), len(work)):
            rows = slice(start, min(start + len(work), len(band)))
            out[rows] += np.multiply(band[rows], x[rows.start + shift : rows.stop + shift],
                                     out=work[: rows.stop - start])
    return out


def ht_matvec(h0, h1, h2, y):
    """H^T y for y of shape (n,), H as for h_matvec."""
    out = h0 * y
    out[1:] += h1 * y[:-1]
    out[2:] += h2 * y[:-2]
    return out
