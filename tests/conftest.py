"""Shared oracles for the test suite, kept independent of the library
paths they check."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from mblab import solve


@pytest.fixture(autouse=True)
def _empty_solve_memo():
    """Every test starts without a memoised solve, so none passes on an
    entry another test left behind."""
    solve.cache_clear()


# Both exponents within 2e-6 of -1 and unequal, so 2 + alpha + beta is
# about 1e-6 while the rounding of alpha + beta is up to 1e-16; lambda at
# n from the 50-digit perfbench/oracle.py.
UNEQUAL_NEAR_MINUS_ONE = [
    (-0.9999996372309563, -0.9999996582336216, 35, 1.7641786938783955e-12),
    (-0.9999994934650505, -0.9999994908776558, 25, 9.644946406009387e-12),
    (-0.9999983741112694, -0.9999983844072016, 50, 1.995295313523305e-12),
]


def j0_oracle():
    """Smallest positive zero of J_0 from mpmath, which shares no code
    with the library's recurrence or zero finder."""
    with mpmath.workdps(30):
        return float(mpmath.besseljzero(0, 1))


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _weight_coeffs(alpha, beta):
    """Coefficients of (1-x)^alpha (1+x)^beta for integer exponents."""
    coeffs = [Fraction(1)]
    for _ in range(alpha):
        coeffs = _poly_mul(coeffs, [Fraction(1), Fraction(-1)])
    for _ in range(beta):
        coeffs = _poly_mul(coeffs, [Fraction(1), Fraction(1)])
    return coeffs


def exact_moment(alpha, beta, k):
    """Integral of x^k (1-x)^alpha (1+x)^beta over (-1, 1), exactly,
    for integer alpha, beta >= 0."""
    total = Fraction(0)
    for j, c in enumerate(_weight_coeffs(alpha, beta)):
        p = k + j
        if p % 2 == 0:
            total += c * Fraction(2, p + 1)
    return total


def b_bands(sp):
    """Bands (b0, b1, b2) of B = H^T H from the bands of a ScaledPencil."""
    h0, h1, h2 = sp.h0, sp.h1, sp.h2
    b0 = h0**2
    b0[1:] += h1**2
    b0[2:] += h2**2
    b1 = h0[:-1] * h1
    b1[1:] += h1[:-1] * h2
    return b0, b1, h0[:-2] * h2


def dense_a(pen):
    """Dense A from the stored raw bands of a BandedPencil."""
    a = np.diag(pen.diag)
    for i in range(pen.n - 1):
        a[i, i + 1] = a[i + 1, i] = pen.super1[i]
    for i in range(pen.n - 2):
        a[i, i + 2] = a[i + 2, i] = pen.super2[i]
    return a


def dense_d(pen):
    """Dense D = diag(d_0..d_{n-1}) of a BandedPencil."""
    return np.diag(pen.d)


def dense_h(sp):
    """Dense upper-triangular H from the bands of a ScaledPencil."""
    h = np.diag(sp.h0)
    for i in range(sp.n - 1):
        h[i, i + 1] = sp.h1[i]
    for i in range(sp.n - 2):
        h[i, i + 2] = sp.h2[i]
    return h


def _moment_matrices(alpha, beta, n):
    """Exact Gram matrices of Q and Q' over the monomials of degree <= n."""
    moments = [exact_moment(alpha, beta, k) for k in range(2 * n + 1)]
    size = n + 1
    gram = [[moments[i + j] for j in range(size)] for i in range(size)]
    deriv = [[i * j * moments[i + j - 2] if i and j else Fraction(0) for j in range(size)]
             for i in range(size)]
    return gram, deriv


def mp_lambda_min(alpha, beta, n, dps=60):
    """lambda_min = 1 / M_n^2 from exact monomial moments and an mpmath
    dense symmetric eigensolve at `dps` digits; no library code."""
    gram, deriv = _moment_matrices(alpha, beta, n)
    with mpmath.workdps(dps):
        def mp(rows):
            return mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in r]
                                  for r in rows])

        linv = mpmath.inverse(mpmath.cholesky(mp(gram)))
        eigs = mpmath.eigsy(linv * mp(deriv) * linv.T, eigvals_only=True)
        return 1 / max(eigs)


def rayleigh_supremum(alpha, beta, n):
    """Brute-force sharp ratio sup ||Q'||/||Q|| over degree <= n, from
    exact monomial moments and a dense generalized eigensolve.  Built on
    nothing but integer arithmetic and LAPACK."""
    gram, deriv = (np.array(m, dtype=float) for m in _moment_matrices(alpha, beta, n))
    eigs = scipy.linalg.eigh(deriv, gram, eigvals_only=True)
    return float(np.sqrt(eigs[-1]))
