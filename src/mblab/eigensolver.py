"""Smallest generalized eigenvalue of the banded pencil and the sharp
constant / extremal polynomial derived from it.

The solver works on the upper-triangular factor H of the symmetrized
matrix B = H^T H (see the pencil module) and never forms B, so
lambda_min = sigma_min(H)^2 keeps the relative accuracy of H's entries.
Block inverse iteration with two vectors, each step two banded
triangular solves per vector and a 2x2 Rayleigh-Ritz, finds the
eigenpair.  The certificate is an inertia count (negative pivots of an
unpivoted LDL^T) of the Golub-Kahan matrix [[0, H^T], [H, 0]] - tau I,
whose eigenvalues are +-sigma_i(H) - tau: no singular value lies below
sqrt(lambda (1 - tol)) and at least one lies below sqrt(lambda (1 + tol)).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError
from .jacobi import log_norm_sequence
from .pencil import ScaledPencil, g_bands, scaled_pencil
from .special import smallest_positive_zero

__all__ = [
    "EigenResult",
    "SharpConstantReport",
    "smallest_eigenpair",
    "sharp_constant",
    "extremal_polynomial",
]

_TOL_MIN, _TOL_MAX = 1e-14, 1e-6
_MAX_STEPS = 200
# Stand-in for an exactly zero pivot of the inertia count; it is counted
# as negative, the sign the pivot takes when the shift grows.
_ZERO_PIVOT = -1e-300


@dataclass(frozen=True)
class EigenResult:
    """Smallest generalized eigenvalue with certificate data.

    `eigenvector` is the unit generalized eigenvector (original
    coordinates) and `w` the unit eigenvector of the symmetrized matrix B
    it is mapped from.  `residual` is the relative residual of the
    symmetrized problem, || (B - lambda I) w || / || w ||, which is the
    numerically meaningful certificate: the raw-coordinate residual is
    amplified by the ~4^n condition of the diagonal scaling for large n.
    `iterations` counts block inverse-iteration steps.  `multiplicity`
    is the number of eigenvalues below lambda (1 + tol); it exceeds 1 for
    a numerically multiple smallest eigenvalue.
    """

    lambda_min: float
    eigenvector: np.ndarray
    residual: float
    iterations: int
    multiplicity: int
    w: np.ndarray


@dataclass(frozen=True)
class SharpConstantReport:
    n: int
    alpha: float
    beta: float
    lambda_min: float
    m_n: float
    predicted: float
    ratio: float
    residual: float


def _h_matvec(h0, h1, h2, x):
    """H x for x of shape (n,) or (n, m), H upper triangular with bands
    h0, h1, h2."""
    if x.ndim == 2:
        h0, h1, h2 = h0[:, None], h1[:, None], h2[:, None]
    out = h0 * x
    out[:-1] += h1 * x[1:]
    out[:-2] += h2 * x[2:]
    return out


def _ht_matvec(h0, h1, h2, y):
    """H^T y for y of shape (n,)."""
    out = h0 * y
    out[1:] += h1 * y[:-1]
    out[2:] += h2 * y[:-2]
    return out


def _solve_normal(forward, backward, w):
    """(H^T H)^-1 w: H^T y = w by forward substitution, then H z = y by
    back substitution.  `forward` holds the bands (h0[k], h1[k-1],
    h2[k-2]) and `backward` the bands (h0[k], h1[k], h2[k]) in reverse k
    order, with 0 where an index is out of range."""
    y, y1, y2 = [], 0.0, 0.0
    for wk, d, a, b in zip(w, *forward):
        y1, y2 = (wk - a * y1 - b * y2) / d, y1
        y.append(y1)
    z, z1, z2 = [], 0.0, 0.0
    for yk, d, a, b in zip(reversed(y), *backward):
        z1, z2 = (yk - a * z1 - b * z2) / d, z1
        z.append(z1)
    z.reverse()
    return z


def _count_below(forward, tau):
    """Number of singular values of H below tau.

    Streams the unpivoted LDL^T of the Golub-Kahan matrix
    [[0, H^T], [H, 0]] - tau I in the interleaved order x_0, y_0, x_1,
    y_1, ... (bandwidth 3); n of its eigenvalues, -sigma_i - tau, are
    always negative, so the negative pivots beyond n count sigma_i < tau.
    Row x_j couples to y_{j-2}, y_{j-1} through h2[j-2], h1[j-1], and
    row y_j to x_j through h0[j]; the state is the last three pivots and
    the fill-in factor l_j = L[x_j, y_{j-1}].
    """
    neg = 0
    dx = dy = dy2 = 1.0  # pivots before row 0; they meet only zero bands
    l = d_prev = 0.0
    for d, a, b in zip(*forward):
        t = b * l
        num = a + t * d_prev / dx
        l = num / dy
        dx = (-tau - b * b / dy2 - t * t / dx - num * num / dy) or _ZERO_PIVOT
        dy2, dy = dy, (-tau - d * d / dx) or _ZERO_PIVOT
        neg += (dx < 0.0) + (dy < 0.0)
        d_prev = d
    return neg - len(forward[0])


def _solve_core(pencil, tol):
    """Block inverse iteration on B = H^T H from the bands of H, then the
    Golub-Kahan inertia certificate.

    Returns (lambda, w, residual, iterations, multiplicity) with w the
    unit eigenvector of B.
    """
    n, h0, h1, h2 = pencil.n, pencil.h0, pencil.h1, pencil.h2
    # Plain double arrays: the scalar loops run in Python, and array
    # storage costs 8 bytes an entry where a list of floats costs 32.
    forward = [array("d", b) for b in (h0, np.r_[0.0, h1], np.r_[0.0, 0.0, h2])]
    backward = [array("d", b[::-1]) for b in (h0, np.r_[h1, 0.0], np.r_[h2, 0.0, 0.0])]

    diag_b = h0 * h0
    diag_b[1:] += h1 * h1
    diag_b[2:] += h2 * h2
    target = tol * max(1.0, float(np.max(diag_b)))

    # Start from the even- and odd-index indicator vectors: at alpha =
    # beta the problem splits by parity and each holds one class.
    q = np.zeros((n, min(n, 2)))
    for col in range(q.shape[1]):
        q[col::2, col] = 1.0
    q /= np.linalg.norm(q, axis=0)
    lam_prev = math.inf
    for steps in range(1, _MAX_STEPS + 1):
        z = np.array([_solve_normal(forward, backward, col.tolist()) for col in q.T]).T
        q = np.linalg.qr(z)[0]
        hq = _h_matvec(h0, h1, h2, q)
        q = q @ np.linalg.eigh(hq.T @ hq)[1]
        w = q[:, 0]
        hw = _h_matvec(h0, h1, h2, w)
        lam = float(hw @ hw)
        residual = float(np.linalg.norm(_ht_matvec(h0, h1, h2, hw) - lam * w))
        if abs(lam - lam_prev) <= 0.25 * tol * lam and residual <= target:
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            f"block inverse iteration did not converge in {_MAX_STEPS} steps"
            f" (residual {residual:.3e}, tolerance {target:.3e})"
        )
    multiplicity = _count_below(forward, math.sqrt(lam * (1.0 + tol)))
    if _count_below(forward, math.sqrt(lam * (1.0 - tol))) != 0 or multiplicity < 1:
        raise ConvergenceError("could not certify the eigenvalue bracket")
    return lam, w, residual, steps, multiplicity


def _check_tol(tol):
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")


def _eigvec_original(logd, n, w):
    """Map the symmetrized eigenvector w to the unit eigenvector of
    (A, D) through v_k = w_k / sqrt(d_k), in log space so the ~2^k
    dynamic range cannot overflow."""
    t = np.full(n, -math.inf)
    nz = w != 0.0
    t[nz] = np.log(np.abs(w[nz])) - 0.5 * logd[nz]
    shift = np.max(t)
    v = np.where(nz, np.sign(w) * np.exp(t - shift), 0.0)
    v /= np.linalg.norm(v)
    # Deterministic orientation: largest-magnitude component positive.
    imax = int(np.argmax(np.abs(v)))
    if v[imax] < 0:
        v = -v
    return v


def smallest_eigenpair(pencil, tol=1e-12):
    """Smallest generalized eigenvalue and eigenvector of (A, D), solved
    on the bands of the ScaledPencil factor H (so modified bands are
    honored)."""
    _check_tol(tol)
    if not isinstance(pencil, ScaledPencil):
        raise TypeError(f"expected ScaledPencil, got {type(pencil)}")
    lam, w, residual, iterations, mult = _solve_core(pencil, tol)
    logd = log_norm_sequence(pencil.params, pencil.n)[: pencil.n]
    return EigenResult(
        lambda_min=lam,
        eigenvector=_eigvec_original(logd, pencil.n, w),
        residual=residual,
        iterations=iterations,
        multiplicity=mult,
        w=w,
    )


def sharp_constant(params, n, tol=1e-12):
    """Sharp derivative-to-function norm ratio M_n over polynomials of
    degree <= n, with the large-n prediction n^2 / (2 j) attached."""
    _check_tol(tol)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam, _, residual, _, _ = _solve_core(scaled_pencil(params, n), tol)
    m_n = lam ** -0.5
    j = smallest_positive_zero(params.nu_star)
    predicted = float(n) ** 2 / (2.0 * j)
    return SharpConstantReport(
        n=n,
        alpha=params.alpha,
        beta=params.beta,
        lambda_min=lam,
        m_n=m_n,
        predicted=predicted,
        ratio=m_n / predicted,
        residual=residual,
    )


def extremal_polynomial(params, n, tol=1e-12):
    """Coefficient vectors of the extremal polynomial.

    Returns (u, v, m_n): v holds the coefficients of Q' in the monic
    basis of degrees 0..n-1, u those of Q in degrees 1..n, linked by
    N u = C2 C1 v; v is the unit eigenvector.
    """
    result = smallest_eigenpair(scaled_pencil(params, n), tol)
    v = result.eigenvector
    return _h_matvec(*g_bands(params, n), v), v, result.lambda_min ** -0.5
