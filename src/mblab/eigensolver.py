"""Smallest generalized eigenvalue of the banded pencil and the sharp
constant / extremal polynomial derived from it.

The solver works on the upper-triangular factor H of the symmetrized
matrix B = H^T H (see the pencil module) and never forms B, so
lambda_min = sigma_min(H)^2 keeps the relative accuracy of H's entries.
Locally optimal block inverse iteration with two vectors finds the
eigenpair: each step makes two banded triangular solves, H^T y = q and
H z = y, and a Rayleigh-Ritz over the solves, the current vectors and the
last change of the vectors (at most 6x6).  Each triangular solve is one
partitioned solve, vectorised across blocks of rows and across the
vectors, whose block couplings ("spikes") are computed once per solve.
The certificate is an inertia count (negative pivots of an unpivoted
LDL^T) of the Golub-Kahan matrix [[0, H^T], [H, 0]] - tau I, whose
eigenvalues are +-sigma_i(H) - tau: no singular value lies below
sqrt(lambda (1 - tol)) and at least one lies below sqrt(lambda (1 + tol)).
The count is a sequential scalar loop; at n = 1e4..4e4 its two passes
take about 27% of a solve, about as much as the triangular solves of
all the steps together.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import ConvergenceError
from .jacobi import log_norm_sequence
from .pencil import ScaledPencil, g_bands, h_matvec, ht_matvec, scaled_pencil
from .special import smallest_positive_zero

__all__ = [
    "SharpConstantReport",
    "Solution",
    "solve",
    "smallest_eigenpair",
    "sharp_constant",
    "extremal_polynomial",
]

_TOL_MIN, _TOL_MAX = 1e-14, 1e-6
_MAX_STEPS = 200
# A Rayleigh-Ritz direction whose part outside the earlier ones has a
# relative squared norm below this is dropped from the basis.
_DROP = 1e-14
# Stand-in for an exactly zero pivot of the inertia count; it is counted
# as negative, the sign the pivot takes when the shift grows.
_ZERO_PIVOT = -1e-300


@dataclass(frozen=True)
class Solution:
    """One certified solve: the smallest eigenvalue of B = H^T H and its
    unit eigenvector w (read-only).  The sharp constant, the extremal
    polynomial and the profile comparison all derive from it.

    `residual` is the relative residual of the symmetrized problem,
    || (B - lambda I) w || / || w ||, which is the numerically meaningful
    certificate: the raw-coordinate residual is amplified by the ~4^n
    condition of the diagonal scaling for large n.  `iterations` counts
    block inverse-iteration steps.  `multiplicity` is the number of
    eigenvalues below lambda (1 + tol); it exceeds 1 for a numerically
    multiple smallest eigenvalue.
    """

    lambda_min: float
    w: np.ndarray
    residual: float
    iterations: int
    multiplicity: int


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


# The n-long reductions below are einsums: for n > 1e4 a BLAS dot, norm
# or X^T X wakes the OpenBLAS thread pool, which costs milliseconds a
# call and slows the Python loops of the triangular solves while its
# workers spin.
def _dot(x, y):
    return float(np.einsum("i,i->", x, y))


def _gram(x, y):
    """Inner products of the rows of x with the rows of y."""
    return np.einsum("in,jn->ij", x, y)


def _combine(c, x):
    """Linear combinations of the rows of x: row k of the result is
    sum_i c[i, k] x[i]."""
    return np.einsum("ik,in->kn", c, x)


class _Recurrence:
    """Solves L x = r for L lower triangular with the diagonals d, a, b
    (lengths n, n-1, n-2), that is the recurrence
    x_k = (r_k - a_{k-1} x_{k-1} - b_{k-2} x_{k-2}) / d_k, by partition
    (Wang's partition method, the SPIKE scheme for a banded system).

    The n rows are cut into p blocks of m ~ sqrt(n/5) rows.  Every block
    first runs the recurrence from a zero boundary, all blocks and right
    hand sides at once, in m numpy steps.  A block's true solution is its
    zero-boundary one plus x_{-1} S1 + x_{-2} S2, where the spikes S1, S2
    answer the boundary values (1, 0) and (0, 1) of the previous block's
    last two entries; they depend only on the bands and are computed once
    here.  A p-step scalar recurrence then finds the true boundary values
    and the spike corrections are added in place.  With p ~ 5m the m
    numpy steps and the p scalar ones take about equal time at n = 1e4
    and beyond.
    """

    def __init__(self, d, a, b):
        n = len(d)
        m = max(2, round(math.sqrt(n / 5)))
        p = -(-n // m)
        bands = np.zeros((3, p * m))
        bands[0] = 1.0  # padding rows solve to 0 and couple to nothing
        bands[0, :n] = d
        bands[1, 1:n] = a
        bands[2, 2:n] = b
        # (3, m, p): step j of the sweep reads contiguous rows.
        self._bands = np.ascontiguousarray(bands.reshape(3, p, m).transpose(0, 2, 1))
        _, a, b = self._bands
        # The spikes are zero-boundary solutions too: x_{-1} = 1 puts
        # -a_{-1} into row 0 and -b_{-1} into row 1 of the right hand side,
        # x_{-2} = 1 puts -b_{-2} into row 0.
        spikes = np.zeros((2, p, m))
        spikes[0, :, 0] = -a[0]
        spikes[0, :, 1] = -b[1]
        spikes[1, :, 0] = -b[0]
        self._sweep(spikes)
        # Blocks 1..p-1 take the corrections; the entries at the last two
        # rows of blocks 0..p-2 carry the boundary values on.
        self._spikes = spikes[:, 1:]
        self._corners = [s[:-1, j].tolist() for j in (-1, -2) for s in spikes]

    def _sweep(self, x):
        """Zero-boundary recurrence in every block, in place on x of
        shape (q, p, m), with the arithmetic of the scalar recurrence."""
        d, a, b = self._bands
        x = x.transpose(2, 0, 1)  # x[j]: row j of every block
        tmp = np.empty(x.shape[1:])
        for j, xj in enumerate(x):
            if j > 0:
                xj -= np.multiply(a[j], x[j - 1], out=tmp)
            if j > 1:
                xj -= np.multiply(b[j], x[j - 2], out=tmp)
            xj /= d[j]

    def solve(self, r):
        """The solution for every row of r, shape (q, n); a view into one
        padded (q, p, m) buffer."""
        q, n = r.shape
        _, m, p = self._bands.shape
        buf = np.zeros((q, p * m))
        buf[:, :n] = r
        x = buf.reshape(q, p, m)
        self._sweep(x)
        # True last two entries of blocks 0..p-2, which are the boundary
        # values of blocks 1..p-1.
        edges = []
        for lasts, seconds in zip(x[:, :-1, -1].tolist(), x[:, :-1, -2].tolist()):
            v = u = 0.0
            last, second = [], []
            for c1, c2, s11, s21, s12, s22 in zip(lasts, seconds, *self._corners):
                v, u = c1 + s11 * v + s21 * u, c2 + s12 * v + s22 * u
                last.append(v)
                second.append(u)
            edges += last, second
        edges = np.array(edges).reshape(q, 2, p - 1, 1)
        s1, s2 = self._spikes
        tail = x[:, 1:]
        tail += s1 * edges[:, 0]
        tail += s2 * edges[:, 1]
        return buf[:, :n]


def _orthonormal_blocks(blocks, out):
    """Orthonormalize the rows of `blocks` in order, by two Gram-Schmidt
    passes against the blocks kept before and then two within the block.
    The rows of the first block are always kept; a later row is dropped
    when the part of it that the earlier rows do not span has squared
    norm below _DROP (relative to the row).  The kept rows are written
    block after block into the rows of `out`; returns them as one 2-D
    view."""
    done = []
    rows = 0
    for i, block in enumerate(blocks):
        norms = np.sqrt(np.einsum("in,in->i", block, block))
        # A P row vanishes when the Ritz vectors did not move.
        moved = norms > 0.0
        x = out[rows : rows + np.count_nonzero(moved)]
        np.divide(block[moved], norms[moved, None], out=x)
        for _ in range(2):
            for prev in done:
                x -= _combine(_gram(prev, x), prev)
        keep = []
        for j, v in enumerate(x):
            for _ in range(2):
                for k in keep:
                    v -= _dot(v, x[k]) * x[k]
            norm2 = _dot(v, v)
            if i == 0 or norm2 >= _DROP:
                v /= math.sqrt(norm2)
                keep.append(j)
        if len(keep) < len(x):
            x[: len(keep)] = x[keep]
        done.append(x[: len(keep)])
        rows += len(keep)
    return out[:rows]


def _inertia_bands(pencil):
    """The bands _count_below reads, as plain double arrays built from the
    raw bytes (array("d", ndarray) would convert entry by entry)."""
    h0, h1, h2 = pencil.h0, pencil.h1, pencil.h2
    h2_row = np.r_[0.0, 0.0, h2]
    return [
        array("d", b.tobytes())
        for b in (np.r_[0.0, h0[:-1]], h0 * h0, np.r_[0.0, h1], h2_row, h2_row * h2_row)
    ]


def _count_below(forward, tau):
    """Number of singular values of H below tau.

    Streams the unpivoted LDL^T of the Golub-Kahan matrix
    [[0, H^T], [H, 0]] - tau I in the interleaved order x_0, y_0, x_1,
    y_1, ... (bandwidth 3); n of its eigenvalues, -sigma_i - tau, are
    always negative, so the negative pivots beyond n count sigma_i < tau.
    Row x_j couples to y_{j-2}, y_{j-1} through h2[j-2], h1[j-1], and
    row y_j to x_j through h0[j]; the state is the last three pivots and
    the fill-in factor l_j = L[x_j, y_{j-1}].  `forward` (_inertia_bands)
    holds, at row j, h0[j-1], h0[j]^2, h1[j-1], h2[j-2] and h2[j-2]^2
    (zero before row 0), so each square and each quotient is formed once.
    """
    neg = 0
    dx = dy = dy2 = 1.0  # pivots before row 0; they meet only zero bands
    l = 0.0
    minus_tau = -tau
    for d_prev, d2, a, b, b2 in zip(*forward):
        t = b * l
        u = t / dx
        num = a + u * d_prev
        l = num / dy
        dx = (minus_tau - b2 / dy2 - t * u - num * l) or _ZERO_PIVOT
        if dx < 0.0:
            neg += 1
        dy2 = dy
        dy = (minus_tau - d2 / dx) or _ZERO_PIVOT
        if dy < 0.0:
            neg += 1
    return neg - len(forward[0])


def _solve_core(pencil, tol):
    """Block inverse iteration on B = H^T H from the bands of H (see
    _iterate), then the Golub-Kahan inertia certificate.  Returns the
    Solution, w marked read-only.

    The relative accuracy of lambda rests on the inertia certificate
    alone.  The iteration stops on an absolute residual target,
    tol max(1, max diag B), which a tiny lambda meets at once: at
    alpha = beta = -1 + 2^-52 (lambda ~ 1e-23) the residual at n = 73 and
    200 is 0.8% and 2.6% of lambda, while tol lambda lies far below the
    rounding of B w itself.
    """
    lam, w, residual, steps = _iterate(pencil, tol)
    # Built only now, when the arrays of the steps are gone.
    forward = _inertia_bands(pencil)
    multiplicity = _count_below(forward, math.sqrt(lam * (1.0 + tol)))
    if _count_below(forward, math.sqrt(lam * (1.0 - tol))) != 0 or multiplicity < 1:
        raise ConvergenceError("could not certify the eigenvalue bracket")
    w.flags.writeable = False
    return Solution(lam, w, residual, steps, multiplicity)


def _iterate(pencil, tol):
    """Locally optimal block inverse iteration on B = H^T H from the bands
    of H; returns (lambda, w, residual, steps).

    Each step makes Z = B^-1 Q with two partitioned triangular solves,
    each over both vectors at once, and a Rayleigh-Ritz over
    span[Z, Q, P], P being the change of the Ritz vectors over the last
    step (LOBPCG with the exact inverse as preconditioner; Knyazev, SISC
    23, 2001).  The spikes of both triangular factors are computed once
    per call, before the first step.  The basis is one array, orthonormal
    in n-space; one product H basis gives the small matrix, and the Ritz
    vectors q and their products H q are combinations of the basis and of
    that product.
    """
    n, h0, h1, h2 = pencil.n, pencil.h0, pencil.h1, pencil.h2
    # H^T is lower triangular, and so is H with its rows and columns
    # reversed: H z = y runs on the reversed bands.
    solve_lower = _Recurrence(h0, h1, h2).solve
    solve_upper = _Recurrence(h0[::-1], h1[::-1], h2[::-1]).solve

    diag_b = h0 * h0
    diag_b[1:] += h1 * h1
    diag_b[2:] += h2 * h2
    target = tol * max(1.0, float(np.max(diag_b)))
    del diag_b  # an n-vector the steps do not need

    # Start from the even- and odd-index indicator vectors: at alpha =
    # beta the problem splits by parity and each holds one class.
    m = min(n, 2)
    q = np.zeros((m, n))
    for row in range(m):
        q[row, row::2] = 1.0 / math.sqrt(len(range(row, n, 2)))
    p = np.empty((0, n))
    # The basis and its product with H are written into two buffers made
    # once per solve: new 3m-row arrays at every step raise the peak RSS
    # of a long run through the allocator's reuse of freed blocks.
    basis_buf = np.empty((3 * m, n))
    hbasis_buf = np.empty((3 * m, n))
    lam_prev = math.inf
    for steps in range(1, _MAX_STEPS + 1):
        z = solve_upper(solve_lower(q)[:, ::-1])[:, ::-1]
        basis = _orthonormal_blocks((z, q, p), basis_buf)
        del z, p  # the basis spans them: the product below peaks without them
        hbasis = h_matvec(h0, h1, h2, basis, out=hbasis_buf[: len(basis)])
        c = np.linalg.eigh(_gram(hbasis, hbasis))[1][:, :m]
        q_new = _combine(c, basis)
        p = q_new - _combine(_gram(q_new, q).T, q)
        q = q_new
        hq = _combine(c, hbasis)
        # The small matrix is accurate only to eps ||small||, which can
        # exceed the gap of a nearly multiple smallest eigenvalue and
        # order the Ritz vectors wrongly: take the one of least ||Hq||^2.
        norms = [_dot(row, row) for row in hq]
        i = norms.index(min(norms))
        w, hw, lam = q[i], hq[i], norms[i]
        r = ht_matvec(h0, h1, h2, hw) - lam * w
        residual = math.sqrt(_dot(r, r))
        if abs(lam - lam_prev) <= 0.25 * tol * lam and residual <= target:
            # A copy of the row, so a memoised Solution holds n doubles, not q.
            return lam, w.copy(), residual, steps
        lam_prev = lam
    raise ConvergenceError(
        f"block inverse iteration did not converge in {_MAX_STEPS} steps"
        f" (residual {residual:.3e}, tolerance {target:.3e})"
    )


def _check_tol(tol):
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")


def _eigvec_original(params, n, w):
    """Map the symmetrized eigenvector w to the unit eigenvector of
    (A, D) through v_k = w_k / sqrt(d_k), in log space so the ~2^k
    dynamic range cannot overflow."""
    logd = log_norm_sequence(params, n)[:n]
    t = np.full(n, -math.inf)
    nz = w != 0.0
    t[nz] = np.log(np.abs(w[nz])) - 0.5 * logd[nz]
    shift = np.max(t)
    v = np.where(nz, np.sign(w) * np.exp(t - shift), 0.0)
    v /= math.sqrt(_dot(v, v))
    # Deterministic orientation: largest-magnitude component positive.
    imax = int(np.argmax(np.abs(v)))
    if v[imax] < 0:
        v = -v
    return v


def solve(params, n, tol=1e-12):
    """The Solution of the degree-n pencil of `params`.

    The last result is memoised (one entry, keyed on (params, n, tol)),
    so the entry points that read one problem in turn share one solve;
    `solve.cache_clear()` drops it.  n and tol are checked before the
    lookup, so a result never depends on what is memoised.  A pencil
    with modified bands goes through smallest_eigenpair, which is never
    memoised.
    """
    if isinstance(n, bool):
        raise TypeError("n must be an integer, got a bool")
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_tol(tol)
    return _memoised_solve(params, n, tol)


# One entry: the entry points that read one problem run one after
# another, while consecutive problems of a sweep, a convergence study or
# a benchmark pass differ, so more entries would only keep n-vectors.
@lru_cache(maxsize=1)
def _memoised_solve(params, n, tol):
    return _solve_core(scaled_pencil(params, n), tol)


solve.cache_clear = _memoised_solve.cache_clear


def smallest_eigenpair(pencil, tol=1e-12):
    """The Solution of the ScaledPencil factor H as given (so modified
    bands are honored); never memoised.  `extremal_polynomial` maps w to
    the eigenvector of (A, D)."""
    _check_tol(tol)
    if not isinstance(pencil, ScaledPencil):
        raise TypeError(f"expected ScaledPencil, got {type(pencil)}")
    return _solve_core(pencil, tol)


def sharp_constant(params, n, tol=1e-12):
    """Sharp derivative-to-function norm ratio M_n over polynomials of
    degree <= n, with the large-n prediction n^2 / (2 j) attached."""
    # The zero first: outside its window it raises before a solve is spent.
    j = smallest_positive_zero(params.nu_star)
    sol = solve(params, n, tol)
    m_n = sol.lambda_min ** -0.5
    predicted = float(n) ** 2 / (2.0 * j)
    return SharpConstantReport(
        n=n,
        alpha=params.alpha,
        beta=params.beta,
        lambda_min=sol.lambda_min,
        m_n=m_n,
        predicted=predicted,
        ratio=m_n / predicted,
        residual=sol.residual,
    )


def extremal_polynomial(params, n, tol=1e-12):
    """Coefficient vectors of the extremal polynomial.

    Returns (u, v, m_n): v holds the coefficients of Q' in the monic
    basis of degrees 0..n-1, u those of Q in degrees 1..n, linked by
    N u = C2 C1 v; v is the unit eigenvector.
    """
    sol = solve(params, n, tol)
    v = _eigvec_original(params, n, sol.w)
    return h_matvec(*g_bands(params, n), v), v, sol.lambda_min ** -0.5
