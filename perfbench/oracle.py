"""High-precision reference for the smallest eigenvalue of the pencil.

Independent of mblab's float code: the bands of H (upper triangular,
bandwidth 2) are built from the closed forms in mpmath arithmetic,
B = H^T H is formed in the same precision, and lambda_min(B) is
bracketed by inertia counts of the LDL^T factorization of B - mu I
(Sylvester's law), then refined by inverse iteration and re-certified
by two more inertia counts.

    H = D+^(1/2) N^-1 C2 C1 D^-1/2,
    C1 = I + diag(c1_k) T,  c1_k = -2k(k+b) / ((2k+s)(2k+s+1)),
    C2 = I + diag(c2_k) T,  c2_k = 2k(k+a+1) / ((2k+s+1)(2k+s+2)),
    d_{k+1}/d_k = 4(k+1)(k+1+a)(k+1+b)(k+1+s) / ((2k+s+1)(2k+s+2)^2(2k+s+3)),

with s = a + b and the factor (k+1+s)/(2k+s+1) cancelled at k = 0.
Near the alpha -> -1 edge at n = 4e4, lambda is ~1e-19 against
||B|| ~ 1, so the default 50 digits leave ~30 after cancellation.
"""

from __future__ import annotations

import mpmath

DIGITS = 50
# Bisection narrows the bracket to COARSE_REL (relative) before inverse
# iteration; the result is then certified to CERT_REL.
COARSE_REL = mpmath.mpf("1e-8")
CERT_REL = mpmath.mpf("1e-25")


def ratio(a, b, k):
    """d_{k+1} / d_k in mp arithmetic (a, b, k exact)."""
    s = a + b
    out = 4 * (k + 1) * (k + 1 + a) * (k + 1 + b) / ((2 * k + s + 2) ** 2 * (2 * k + s + 3))
    if k == 0:
        return out
    return out * (k + 1 + s) / (2 * k + s + 1)


def _ratio_from_gamma(a, b, k):
    # d_k = 2^(2k) k! G(k+a+1) G(k+b+1) G(k+s+1) / (G(2k+s+1) G(2k+s+2)) up to a
    # k-independent factor; only used to self-check `ratio` at small k.
    s = a + b
    g = mpmath.gamma

    def d(m):
        return (4 ** m * g(m + 1) * g(m + a + 1) * g(m + b + 1) * g(m + s + 1)
                / (g(2 * m + s + 1) * g(2 * m + s + 2)))

    return d(k + 1) / d(k)


def h_bands(alpha, beta, n):
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    s = a + b
    for k in (1, 2, 3):
        if abs(ratio(a, b, k) / _ratio_from_gamma(a, b, k) - 1) > mpmath.mpf(10) ** (10 - mpmath.mp.dps):
            raise AssertionError("closed-form norm ratio disagrees with the Gamma form")
    sr = [mpmath.sqrt(ratio(a, b, k)) for k in range(n)]
    c1 = [None] + [-2 * k * (k + b) / ((2 * k + s) * (2 * k + s + 1)) for k in range(1, n)]
    c2 = [None] + [2 * k * (k + a + 1) / ((2 * k + s + 1) * (2 * k + s + 2)) for k in range(1, n)]
    h0 = [sr[i] / (i + 1) for i in range(n)]
    h1 = [(c1[i + 1] + c2[i + 1]) / (i + 1) for i in range(n - 1)]
    h2 = [c2[i + 1] * c1[i + 2] / ((i + 1) * sr[i + 1]) for i in range(n - 2)]
    return h0, h1, h2


def b_bands(alpha, beta, n):
    """Bands (b0, b1, b2) of B = H^T H."""
    h0, h1, h2 = h_bands(alpha, beta, n)
    zero = mpmath.mpf(0)
    b0 = [h0[j] ** 2 + (h1[j - 1] ** 2 if j >= 1 else zero) + (h2[j - 2] ** 2 if j >= 2 else zero)
          for j in range(n)]
    b1 = [h0[j] * h1[j] + (h1[j - 1] * h2[j - 1] if j >= 1 else zero) for j in range(n - 1)]
    b2 = [h0[j] * h2[j] for j in range(n - 2)]
    return b0, b1, b2


def _factor(bands, mu, keep=False):
    """LDL^T of B - mu I.  Returns the negative pivot count and, with
    `keep`, the pivots d and u1[j] = l1[j] d[j] (l2[j] d[j] is b2[j])."""
    b0, b1, b2 = bands
    n = len(b0)
    zero = mpmath.mpf(0)
    tiny = mpmath.mpf(10) ** (-3 * DIGITS)
    d, u1 = [], []
    neg = 0
    inv1 = inv2 = u1_prev = zero
    for j in range(n):
        piv = b0[j] - mu
        if j >= 1:
            piv -= u1_prev * u1_prev * inv1
        if j >= 2:
            piv -= b2[j - 2] * b2[j - 2] * inv2
        if piv == 0:
            piv = -tiny
        if piv < 0:
            neg += 1
        inv = 1 / piv
        if j + 1 < n:
            u = b1[j] - u1_prev * b2[j - 1] * inv1 if j >= 1 else b1[j]
        else:
            u = zero
        if keep:
            d.append(piv)
            u1.append(u)
        inv2, inv1, u1_prev = inv1, inv, u
    return neg, d, u1


def inertia(bands, mu):
    """Number of eigenvalues of B below mu."""
    return _factor(bands, mu)[0]


def _solve(bands, d, u1, w):
    b2 = bands[2]
    n = len(d)
    y = list(w)
    for j in range(1, n):
        y[j] -= u1[j - 1] / d[j - 1] * y[j - 1]
        if j >= 2:
            y[j] -= b2[j - 2] / d[j - 2] * y[j - 2]
    for j in range(n):
        y[j] /= d[j]
    for j in range(n - 2, -1, -1):
        y[j] -= u1[j] / d[j] * y[j + 1]
        if j + 2 < n:
            y[j] -= b2[j] / d[j] * y[j + 2]
    return y


def _rayleigh(bands, w):
    b0, b1, b2 = bands
    n = len(b0)
    num = mpmath.mpf(0)
    for j in range(n):
        bw = b0[j] * w[j]
        if j + 1 < n:
            bw += b1[j] * w[j + 1]
        if j >= 1:
            bw += b1[j - 1] * w[j - 1]
        if j + 2 < n:
            bw += b2[j] * w[j + 2]
        if j >= 2:
            bw += b2[j - 2] * w[j - 2]
        num += w[j] * bw
    return num / mpmath.fsum(x * x for x in w)


def smallest_eigenpair(alpha, beta, n):
    """lambda_min of the exact pencil for the double inputs alpha, beta,
    and its eigenvector w of B (unnormalized).

    Bisection (geometric, then arithmetic) brackets lambda to relative
    width COARSE_REL; inverse iteration at the bracket midpoint then
    gives a Rayleigh quotient, which is accepted only when the inertia
    is 0 just below it and >= 1 just above it (relative CERT_REL).
    Returns (lambda, w, certified_relative_width, inertia_passes)."""
    with mpmath.workdps(DIGITS):
        bands = b_bands(alpha, beta, n)
        passes = 0

        def count(mu):
            nonlocal passes
            passes += 1
            return inertia(bands, mu)

        hi = min(bands[0])          # Rayleigh quotient of a coordinate vector
        lo = hi * mpmath.mpf(10) ** -40
        while count(lo) != 0:
            hi, lo = lo, lo * mpmath.mpf(10) ** -40
        while hi / lo > 2:          # geometric bisection
            mid = mpmath.sqrt(lo * hi)
            if count(mid) >= 1:
                hi = mid
            else:
                lo = mid
        while hi - lo > COARSE_REL * hi:
            mid = (lo + hi) / 2
            if count(mid) >= 1:
                hi = mid
            else:
                lo = mid
        sigma = (lo + hi) / 2
        _, d, u1 = _factor(bands, sigma, keep=True)
        passes += 1
        w = [mpmath.mpf(1)] * n
        for _ in range(3):
            w = _solve(bands, d, u1, w)
            scale = max(abs(x) for x in w)
            w = [x / scale for x in w]
        lam = _rayleigh(bands, w)
        if count(lam * (1 - CERT_REL)) == 0 and count(lam * (1 + CERT_REL)) >= 1:
            return lam, w, CERT_REL, passes
        # Fallback: plain bisection to the certificate width.
        while hi - lo > CERT_REL * hi:
            mid = (lo + hi) / 2
            if count(mid) >= 1:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2, w, (hi - lo) / hi, passes


def sup_defect(alpha, beta, n, lam, w):
    """profile_compare's sup defect recomputed in mp arithmetic from the
    reference eigenpair: the bundle of x_k = w_k exp(-g_k) over the window
    k in [n/4, n-2] against the closed-form Bessel profile at
    l* = n^4 lambda, both normalized to unit sup norm.  Only the window's
    g_k are formed, and Gamma(k+s+1)(2k+s+1) is kept as one positive
    product, so alpha + beta < -1 needs no special case."""
    with mpmath.workdps(DIGITS):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        s = a + b
        lg = mpmath.loggamma
        ks = range(int(mpmath.ceil(mpmath.mpf(n) / 4)), n - 1)
        first = ks[0] - 2
        x = {}
        for k in range(first, n):
            g = (lg(k + 1) + lg(k + s + 1) - lg(k + a + 1) - lg(k + b + 1)
                 + mpmath.log(2 * k + s + 1)) / 2
            x[k] = w[k] * mpmath.exp(-g)
        if alpha == beta:
            branch = 1
        else:
            branch = 1 if alpha < beta else 2
        bj = a if branch == 1 else b
        nu = (bj - 1) / 2
        l_star = lam * mpmath.mpf(n) ** 4
        discrete, closed = [], []
        for k in ks:
            y = x[k - 2] + x[k - 1] if branch == 1 else x[k - 2] - x[k - 1]
            if branch == 2 and k % 2 == 1:
                y = -y
            discrete.append(y)
            t = mpmath.mpf(k) / n
            closed.append(t * mpmath.besselj(nu, mpmath.sqrt(l_star) * t * t / 2))

        def normalized(seq):
            peak = max(seq, key=abs)
            return [v / peak for v in seq]

        return max(abs(d - c) for d, c in zip(normalized(discrete), normalized(closed)))
