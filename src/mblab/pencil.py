"""Banded matrices of the derivative-norm pencil.

The squared sharp constant is the reciprocal of the smallest generalized
eigenvalue of (A, D) where

    A = C1^T C2^T N^-1 D+ N^-1 C2 C1,      D = diag(d_0..d_{n-1}),

C1, C2 are unit upper bidiagonal, N = diag(1..n) and D+ = diag(d_1..d_n).
A is symmetric pentadiagonal and assembled here in banded storage, both
in raw units, and as the upper-triangular factor H of the symmetrized,
ratio-scaled form

    B = D^-1/2 A D^-1/2 = H^T H,    H = D+^1/2 (N^-1 C2 C1) D^-1/2,

whose entries involve only the well-scaled ratios sqrt(d_{k+1}/d_k).
The raw form underflows around n ~ 460-480; the scaled form works for
any n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobi import JacobiWeightParams, norm_ratio, norm_sequence

__all__ = [
    "BandedPencil",
    "ScaledPencil",
    "g_bands",
    "build_pencil",
    "scaled_pencil",
    "band_matvec",
    "apply_operator",
    "symmetrized_bands",
    "dense_a",
    "dense_d",
    "dump_banded",
]


@dataclass(frozen=True)
class BandedPencil:
    """The pair (A, D) in banded storage.

    `diag`, `super1`, `super2` are the three stored bands of the
    symmetric pentadiagonal A; `norms` holds d_0..d_n so that
    D = diag(norms[:-1]) and D+ = diag(norms[1:]).
    """

    n: int
    params: JacobiWeightParams
    diag: np.ndarray
    super1: np.ndarray
    super2: np.ndarray
    norms: np.ndarray

    @property
    def d(self):
        return self.norms[: self.n]

    @property
    def dplus(self):
        return self.norms[1:]


@dataclass(frozen=True)
class ScaledPencil:
    """Factor H of the symmetrized pencil B = H^T H, upper triangular with
    bandwidth 2.

    h0/h1/h2 are the bands of H.  The squared singular values of H are
    the eigenvalues of B, which equal the generalized eigenvalues of
    (A, D).
    """

    n: int
    params: JacobiWeightParams
    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray


def _c1_entries(params, n):
    a, b = params.alpha, params.beta
    s = a + b
    k = np.arange(1, n, dtype=float)
    return -2.0 * k * (k + b) / ((2 * k + s) * (2 * k + s + 1))


def _c2_entries(params, n):
    a, b = params.alpha, params.beta
    s = a + b
    k = np.arange(1, n, dtype=float)
    return 2.0 * k * (k + a + 1) / ((2 * k + s + 1) * (2 * k + s + 2))


def g_bands(params, n):
    """Bands of G = N^-1 C2 C1 (upper triangular, bandwidth 2), which maps
    the monic coefficients of Q' to those of Q."""
    s = params.alpha + params.beta
    rows = np.arange(1, n + 1, dtype=float)
    k = rows[:-1]
    g0 = 1.0 / rows
    # (c1 + c2)_k = 2k(alpha - beta) / ((2k+s)(2k+s+2)) exactly; the closed
    # form has no cancellation and is exactly 0 at alpha = beta.
    g1 = 2.0 * (params.alpha - params.beta) / ((2 * k + s) * (2 * k + s + 2))
    g2 = _c2_entries(params, n)[:-1] * _c1_entries(params, n)[1:] / rows[:-2]
    return g0, g1, g2


def _gram_bands(f0, f1, f2, weights):
    """Bands of F^T diag(weights) F for F upper triangular with bands
    f0, f1, f2."""
    n = len(f0)
    diag = weights * f0 ** 2
    if n > 1:
        diag[1:] += weights[:-1] * f1 ** 2
    if n > 2:
        diag[2:] += weights[:-2] * f2 ** 2
    super1 = np.empty(max(n - 1, 0))
    if n > 1:
        super1[:] = weights[:-1] * f0[:-1] * f1
        if n > 2:
            super1[1:] += weights[:-2] * f1[:-1] * f2
    super2 = weights[:-2] * f0[:-2] * f2 if n > 2 else np.empty(0)
    return diag, super1, super2


def build_pencil(params, n):
    """Assemble A = G^T D+ G and D in banded storage (raw norm units)."""
    norms = norm_sequence(params, n)
    diag, super1, super2 = _gram_bands(*g_bands(params, n), norms[1:])
    return BandedPencil(
        n=n, params=params, diag=diag, super1=super1, super2=super2, norms=norms
    )


def scaled_pencil(params, n):
    """Build the factor H directly from G and the norm ratios; never
    forms the raw d_k, so it is safe for any n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sr = np.sqrt([norm_ratio(params, k) for k in range(n)])
    g0, g1, g2 = g_bands(params, n)
    return ScaledPencil(n=n, params=params, h0=sr * g0, h1=g1, h2=g2 / sr[1 : n - 1])


def symmetrized_bands(pencil):
    """Bands of B = D^-1/2 A D^-1/2 obtained by congruence from the
    stored raw bands (so any modification of A flows through)."""
    d = pencil.d
    sd = np.sqrt(d)
    b0 = pencil.diag / d
    b1 = pencil.super1 / (sd[:-1] * sd[1:]) if pencil.n > 1 else np.empty(0)
    b2 = pencil.super2 / (sd[:-2] * sd[2:]) if pencil.n > 2 else np.empty(0)
    return b0, b1, b2


def band_matvec(b0, b1, b2, w):
    """Product of the symmetric pentadiagonal matrix with bands b0, b1, b2
    and the vector w."""
    out = b0 * w
    n = len(b0)
    if n > 1:
        out[:-1] += b1 * w[1:]
        out[1:] += b1 * w[:-1]
    if n > 2:
        out[:-2] += b2 * w[2:]
        out[2:] += b2 * w[:-2]
    return out


def apply_operator(pencil, lam, v):
    """(A - lam D) v with banded arithmetic."""
    v = np.asarray(v, dtype=float)
    if v.shape != (pencil.n,):
        raise ValueError(f"vector length {v.shape} does not match pencil size {pencil.n}")
    return band_matvec(pencil.diag, pencil.super1, pencil.super2, v) - lam * (pencil.d * v)


def dense_a(pencil):
    a = np.diag(pencil.diag)
    n = pencil.n
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = pencil.super1[i]
    for i in range(n - 2):
        a[i, i + 2] = a[i + 2, i] = pencil.super2[i]
    return a


def dense_d(pencil):
    return np.diag(pencil.d)


def dump_banded(pencil, stream):
    """Plain-text dump: one line per band of A, then the diagonal of D,
    space-separated full-precision decimals."""
    for band in (pencil.diag, pencil.super1, pencil.super2, pencil.d):
        stream.write(" ".join(format(x, ".17g") for x in band) + "\n")
