"""Smallest generalized eigenvalue of the banded pencil and the sharp
constant / extremal polynomial derived from it.

The solver works on the symmetrized pentadiagonal matrix B (see the
pencil module).  The smallest eigenvalue is bracketed by bisection on
the inertia (count of negative pivots) of the LDL^T factorization of
B - mu I, which yields a certificate: the inertia is 0 just below the
returned value and >= 1 just above it.  The eigenvector comes from
inverse iteration at the converged shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import AccuracyWindowError, ConvergenceError
from .jacobi import log_norm_sequence
from .pencil import (
    BandedPencil,
    ScaledPencil,
    band_matvec,
    g_bands,
    scaled_pencil,
    symmetrized_bands,
)
from .special import smallest_positive_zero

__all__ = [
    "EigenResult",
    "SharpConstantReport",
    "smallest_eigenpair",
    "sharp_constant",
    "extremal_polynomial",
]

_TOL_MIN, _TOL_MAX = 1e-14, 1e-6


@dataclass(frozen=True)
class EigenResult:
    """Smallest generalized eigenvalue with certificate data.

    `eigenvector` is the unit generalized eigenvector (original
    coordinates) and `w` the unit eigenvector of the symmetrized matrix B
    it is mapped from.  `residual` is the relative residual of the
    symmetrized problem, || (B - lambda I) w || / || w ||, which is the
    numerically meaningful certificate: the raw-coordinate residual is
    amplified by the ~4^n condition of the diagonal scaling for large n.
    `multiplicity` exceeds 1 when the inertia jumps by more than one
    across the final bracket (numerically multiple smallest eigenvalue).
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


def _ldlt(b0, b1, b2, mu, floor=0.0):
    """LDL^T of the shifted pentadiagonal matrix; returns
    (negative pivot count, pivots, first subdiagonal of L, second).

    A nonzero `floor` bounds pivot magnitudes away from zero (sign kept)
    so that a solve at a near-eigenvalue shift stays finite; inertia
    counts use floor = 0."""
    n = len(b0)
    d = [0.0] * n
    l1 = [0.0] * (n - 1) if n > 1 else []
    l2 = [0.0] * (n - 2) if n > 2 else []
    neg = 0
    for j in range(n):
        piv = b0[j] - mu
        if j >= 1:
            piv -= l1[j - 1] * l1[j - 1] * d[j - 1]
        if j >= 2:
            piv -= l2[j - 2] * l2[j - 2] * d[j - 2]
        if piv == 0.0:
            piv = -1e-300
        if piv < 0.0:
            neg += 1
            if -piv < floor:
                piv = -floor
        elif piv < floor:
            piv = floor
        d[j] = piv
        if j + 1 < n:
            t = b1[j]
            if j >= 1:
                t -= l1[j - 1] * l2[j - 1] * d[j - 1]
            l1[j] = t / piv
        if j + 2 < n:
            l2[j] = b2[j] / piv
    return neg, d, l1, l2


def _ldlt_solve(d, l1, l2, rhs):
    n = len(d)
    y = list(rhs)
    for j in range(1, n):
        y[j] -= l1[j - 1] * y[j - 1]
        if j >= 2:
            y[j] -= l2[j - 2] * y[j - 2]
    for j in range(n):
        y[j] /= d[j]
    for j in range(n - 2, -1, -1):
        y[j] -= l1[j] * y[j + 1]
        if j + 2 < n:
            y[j] -= l2[j] * y[j + 2]
    return y


def _solve_core(params, b0, b1, b2, tol):
    """Bisection + inverse iteration on the symmetrized bands of the
    degree-n problem for `params`, n = len(b0).

    Returns (lambda, w, residual, iterations, multiplicity) with w the
    unit eigenvector of B.
    """
    n = len(b0)
    hi_seed = _hi_seed(params, n)
    l0, l1_, l2_ = b0.tolist(), b1.tolist(), b2.tolist()

    def inertia(mu):
        return _ldlt(l0, l1_, l2_, mu)[0]

    if inertia(0.0) != 0:
        raise ConvergenceError("pencil is not positive definite at zero shift")

    # min(diag B) bounds the smallest eigenvalue from above (Rayleigh
    # quotient with a coordinate vector), so it always works as a seed.
    hi = hi_seed if hi_seed > 0.0 else float(np.min(b0))
    steps = 0
    c_hi = inertia(hi)
    while c_hi < 1:
        hi *= 2.0
        c_hi = inertia(hi)
        steps += 1
        if steps > 220:
            raise ConvergenceError("failed to bracket the smallest eigenvalue")

    lo = 0.0
    iterations = steps
    while hi - lo > 0.25 * tol * hi:
        iterations += 1
        if iterations > 500:
            raise ConvergenceError("bisection budget exhausted")
        mid = 0.5 * (lo + hi)
        c = inertia(mid)
        if c >= 1:
            hi, c_hi = mid, c
        else:
            lo = mid
    multiplicity = c_hi

    bscale = max(
        np.max(np.abs(b0)),
        np.max(np.abs(b1)) if n > 1 else 0.0,
        np.max(np.abs(b2)) if n > 2 else 0.0,
    )
    target = tol * max(1.0, bscale)
    width = max(hi - lo, 1e-300)
    residual = math.inf
    rho = None
    # A shift landing exactly on the eigenvalue breaks the solve; back
    # the shift off by bracket widths and retry.
    for attempt in range(4):
        sigma = 0.5 * (lo + hi) - attempt * width
        _, dfac, lf1, lf2 = _ldlt(l0, l1_, l2_, sigma, floor=1e-250)
        w = np.full(n, 1.0 / math.sqrt(n))
        broke = False
        for it in range(1, 6):
            iterations += 1
            z = np.asarray(_ldlt_solve(dfac, lf1, lf2, w.tolist()))
            zmax = float(np.max(np.abs(z)))
            if not math.isfinite(zmax) or zmax == 0.0:
                broke = True
                break
            z = z / zmax
            w = z / float(np.linalg.norm(z))
            bw = band_matvec(b0, b1, b2, w)
            rho = float(w @ bw)
            residual = float(np.linalg.norm(bw - rho * w))
            if residual <= target:
                break
        if not broke and residual <= target:
            break
    if rho is None or residual > target:
        raise ConvergenceError(
            f"inverse iteration residual {residual:.3e} above tolerance {target:.3e}"
        )

    # Certified value: inertia must be 0 at lam*(1-tol) and >= 1 at
    # lam*(1+tol).  The Rayleigh quotient normally satisfies this; fall
    # back to the bracket-derived midpoint if roundoff pushed it out.
    lam = rho
    if not (inertia(lam * (1.0 - tol)) == 0 and inertia(lam * (1.0 + tol)) >= 1):
        lam = 0.5 * (hi / (1.0 + tol) + lo / (1.0 - tol))
        if not (inertia(lam * (1.0 - tol)) == 0 and inertia(lam * (1.0 + tol)) >= 1):
            raise ConvergenceError("could not certify the eigenvalue bracket")
    if lam <= 0.0:
        raise ConvergenceError("smallest eigenvalue is not positive")
    return lam, w, residual, iterations, multiplicity


def _check_tol(tol):
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")


def _hi_seed(params, n):
    # Rescaled limit of n^4 lambda_min is (2 j)^2; pad j generously.
    try:
        j = smallest_positive_zero(params.nu_star)
        return (2.0 * (j + 2.0)) ** 2 / float(n) ** 4
    except AccuracyWindowError:
        return 0.0  # doubling from a positive floor takes over


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
    """Smallest generalized eigenvalue and eigenvector of (A, D).

    Accepts a raw BandedPencil (the stored bands are symmetrized by
    congruence, so modified bands are honored) or a ScaledPencil.
    """
    _check_tol(tol)
    if isinstance(pencil, ScaledPencil):
        b0, b1, b2 = pencil.b0, pencil.b1, pencil.b2
        logd = log_norm_sequence(pencil.params, pencil.n)[: pencil.n]
    elif isinstance(pencil, BandedPencil):
        b0, b1, b2 = symmetrized_bands(pencil)
        logd = np.log(pencil.d)  # raw norms are in range by construction
    else:
        raise TypeError(f"expected BandedPencil or ScaledPencil, got {type(pencil)}")
    lam, w, residual, iterations, mult = _solve_core(pencil.params, b0, b1, b2, tol)
    v = _eigvec_original(logd, pencil.n, w)
    return EigenResult(
        lambda_min=lam,
        eigenvector=v,
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
    sp = scaled_pencil(params, n)
    lam, _, residual, _, _ = _solve_core(params, sp.b0, sp.b1, sp.b2, tol)
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
    g0, g1, g2 = g_bands(params, n)
    u = g0 * v
    if n > 1:
        u[:-1] += g1 * v[1:]
    if n > 2:
        u[:-2] += g2 * v[2:]
    return u, v, result.lambda_min ** -0.5
