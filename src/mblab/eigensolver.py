"""Smallest generalized eigenvalue of the banded pencil and the sharp
constant / extremal polynomial derived from it.

The solver works on the upper-triangular factor H of the symmetrized
matrix B = H^T H (see the pencil module) and never forms B, so
lambda_min = sigma_min(H)^2 keeps the relative accuracy of H's entries.
B^-1 runs through upper bidiagonal factors of H, as first-order
recurrences that are each one numpy cumulative sum over all vectors.  At
alpha = beta, h1 = 0 splits H into two upper bidiagonals on the even and
the odd indices, and power steps on both bracket lambda_min between
Collatz-Wielandt bounds.  Elsewhere, or where that fails, locally optimal
block inverse iteration runs on all of H = K2 K1 until a settled step
that the certificate accepts: an inertia count (negative pivots of an
unpivoted LDL^T) of the Golub-Kahan matrix [[0, H^T], [H, 0]] - tau I,
whose eigenvalues are +-sigma_i(H) - tau, finds no singular value below
sqrt(lambda (1 - tol)), and the Rayleigh quotient of w, evaluated with
error-free transformations, bounds lambda_min by lambda (1 + tol); where
it does not, a second count finds a singular value below that root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._exact import split, two_product, two_sum
from .discrete import unit_v
from .exceptions import ConvergenceError, check_size, check_tol
from .pencil import ScaledPencil, check_factors, g_bands, h_matvec, ht_matvec, scaled_pencil
from .special import NU_WINDOW, smallest_positive_zero

__all__ = [
    "SharpConstantReport",
    "Solution",
    "solve",
    "smallest_eigenpair",
    "sharp_constant",
    "extremal_polynomial",
]

_MAX_STEPS = 200
# The power start of one vector stops here and leaves the rest to the
# Rayleigh-Ritz steps: a weight's own pencil settled within 40 steps on
# 4000 seeded one-vector solves; a modified pencil with nearly equal least
# eigenvalues may never settle.
_POWER_STEPS = 64
# A Rayleigh-Ritz direction whose part outside the earlier ones has a
# relative squared norm below this is dropped from the basis.
_DROP = 1e-14
# One vector needs the predicted limits of the two smallest eigenvalues
# _SPLIT_RATIO apart, at every n: on 8 such weights a solve takes 38-47%
# less time with one than with two at n = 8-199, and 0.17-0.37 ms more at
# n = 2-4.
_SPLIT_RATIO = 1.2
# Stand-in for an exactly zero pivot of the inertia count; it is counted
# as negative, the sign the pivot takes when the shift grows.
_ZERO_PIVOT = -1e-300


@dataclass(frozen=True)
class Solution:
    """One certified solve: the smallest eigenvalue of B = H^T H and its
    unit eigenvector w (read-only).  The sharp constant, the extremal
    polynomial and the profile comparison all derive from it.

    `residual` is || H^T (H w) - lambda w || for the unit w on all of H,
    an absolute number (2.4e-15, about 4e7 lambda, at alpha = beta =
    -1 + 2^-52, n = 73), not a certificate.  Near alpha, beta -> -1 it is
    only the rounding of its own evaluation: |h2[0]| grows to 1e6-1e7 and
    carries the cancelling row 0 of H w into H^T H w, so at alpha = beta =
    -0.999999999999984, n = 445, it reads 5.1e-10 = 1.6e14 lambda though
    w lies 6.7e-16 from the 80-digit eigenvector.  From _bracket lambda
    lies in a closed Collatz-Wielandt bracket and `iterations` counts
    power steps; else lambda rests on the inertia count below it and the
    Rayleigh bound or a second count above it, and `iterations` counts
    block inverse-iteration steps, the last the first certified, after the
    power steps that start one vector.
    """

    lambda_min: float
    w: np.ndarray
    residual: float
    iterations: int


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


def _combine(c, x, out=None):
    """Linear combinations of the rows of x: row k of the result is
    sum_i c[i, k] x[i], written into `out` when given (not x's memory).
    For one row of x an outer product gives the values of the einsum's
    one-term sums at less cost."""
    if len(c) == 1:
        return np.multiply.outer(c[0], x[0], out=out)
    return np.einsum("ik,in->kn", c, x, out=out)


# A scan restarts its running product P wherever |P| would leave these:
# P, 1/P and one scan's P over the next one's d P then stay below e^630,
# inside double range, for n up to 1e12.
_SCAN_BOUNDS = math.exp(-300.0), math.exp(300.0)


def _scan_setup(d, e):
    """(P, 1/(d P), blocks) of the lower bidiagonal L with diagonal d and
    subdiagonal e: L x = r reads x_k = g_k x_{k-1} + r_k / d_k with
    g_k = -e_{k-1} / d_k.  A block of rows [start, stop) restarts P at 1
    (most weights need one block); its `link` g_start P_{start-1} carries
    the block before in."""
    gamma = -e / d[1:]
    p, blocks, start = np.ones(len(d)), [], 0
    while start < len(d):
        rest = p[start + 1 :]
        with np.errstate(over="ignore", invalid="ignore"):  # beyond the block's end
            size = abs(np.cumprod(gamma[start:], out=rest))
        # The block ends before the first |P| out of bounds (a NaN is too).
        far = np.flatnonzero(~((_SCAN_BOUNDS[0] <= size) & (size <= _SCAN_BOUNDS[1])))
        stop = start + 1 + int(far[0]) if far.size else len(d)
        blocks.append((start, stop, gamma[start - 1] * p[start - 1] if start else 0.0))
        p[stop : stop + 1] = 1.0
        start = stop
    return p, 1.0 / (d * p), blocks


class _Scans:
    """F = L2^-1 L1^-1, F^T and B^-1 = F^T F for lower bidiagonal
    (diagonal, subdiagonal) pairs L1, L2 of H^T = L1 L2, or one, on a
    vector or each row of one.  L^-1 = diag(P) C diag(1/(d P)), C a numpy
    cumulative sum in each block; P restarts in blocks where it would
    leave double range.  F^T runs the same scalings in reverse order
    around C^T, which sums each block from its end on the reversed view
    and carries its link back from the next block's first entry: one set
    of rounded scalings makes B^-1 the inverse of one perturbed H^T H.
    Each factor is read once, in order: given as an iterator over a list
    [d, e] that nothing else holds, its bands are freed before the next
    factor's set-up."""

    def __init__(self, *factors):
        setups = [_scan_setup(d, e) for d, e in factors]
        n, blocks = len(setups[0][0]), [b for _, _, b in setups]
        scales = [setups[0][1], *(p * nxt[1] for (p, _, _), nxt in zip(setups, setups[1:])),
                  setups[-1][0]]
        mirrored = [[(n - stop, n - start, link) for (start, stop, _), (_, _, link)
                     in zip(b, b[1:] + [(0, 0, 0.0)])][::-1] for b in reversed(blocks)]
        self._forward = scales[0], list(zip(blocks, scales[1:])), slice(None)
        self._backward = scales[-1], list(zip(mirrored, scales[-2::-1])), slice(None, None, -1)

    def solve(self, r, transposed=False, out=None):
        """F r, or F^T r when transposed, written into `out` when given
        (which may be r itself)."""
        first, scans, order = self._backward if transposed else self._forward
        t = np.multiply(r, first, out=out)
        view = t[..., order]
        for blocks, scale in scans:
            for start, stop, link in blocks:
                seg = view[..., start:stop]
                seg.cumsum(axis=-1, out=seg)
                if start:
                    seg += link * view[..., start - 1 : start]
            t *= scale
        return t

    def __call__(self, q, out=None):
        """B^-1 q, C-ordered, written into `out` when given: the forward
        scans write into it and the transposed ones run on it in place."""
        t = self.solve(q, out=out)
        return self.solve(t, transposed=True, out=t)


def _check_norms(norms):
    """Raise OverflowError unless every norm of B^-1 x is finite: it
    leaves double range where lambda_min < ~1e-154."""
    if not all(map(math.isfinite, norms)):
        raise OverflowError("the inverse iteration leaves double range"
                            " (lambda_min below about 1e-154)")


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
        _check_norms(norms)
        if not norms.all():  # a P row vanishes when the Ritz vectors did not move
            block, norms = block[norms > 0.0], norms[norms > 0.0]
        x = out[rows : rows + len(block)]
        np.divide(block, norms[:, None], out=x)
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


def _count_below(bands, tau):
    """Number of singular values of H, with bands (h0, h1, h2), below tau.

    Streams the unpivoted LDL^T of the Golub-Kahan matrix
    [[0, H^T], [H, 0]] - tau I in the interleaved order x_0, y_0, x_1,
    y_1, ... (bandwidth 3); n of its eigenvalues, -sigma_i - tau, are
    always negative, so the negative pivots beyond n count sigma_i < tau.
    Row x_j couples to y_{j-2}, y_{j-1} through h2[j-2], h1[j-1], and
    row y_j to x_j through h0[j]; the state is the last three pivots,
    h0[j-1] and the fill-in factor l_j = L[x_j, y_{j-1}].  The bands are
    read in place, as Python floats through memoryviews (zero before
    row 0).
    """
    neg = 0
    dx = dy = dy2 = 1.0  # pivots before row 0; they meet only zero bands
    l = d_prev = 0.0
    minus_tau = -tau
    h0, h1, h2 = (memoryview(band) for band in bands)
    for d, a, b in zip(h0, chain((0.0,), h1), chain((0.0, 0.0), h2)):
        t = b * l
        u = t / dx
        num = a + u * d_prev
        l = num / dy
        dx = (minus_tau - b * b / dy2 - t * u - num * l) or _ZERO_PIVOT
        if dx < 0.0:
            neg += 1
        dy2 = dy
        dy = (minus_tau - d * d / dx) or _ZERO_PIVOT
        if dy < 0.0:
            neg += 1
        d_prev = d
    return neg - len(h0)


# The Rayleigh bound runs over an eighth of the rows at a time, at least
# _EFT_ROWS, so that its temporaries stay a share of an n-vector without
# the fixed cost of many chunks at small n.
_EFT_ROWS, _UNIT = 1024, 2.0**-53
# _positive_bracket widens its ends outward by this: at n = 1-8 they lay up
# to 3.8 units above the inertia count's switch and 3.4 below the
# eigenvalue.
_WIDEN = 8.0 * _UNIT


def _rayleigh_bound(bands, w):
    """An upper bound on ||H w||^2 / ||w||^2 >= lambda_min for the float
    bands and w.  (H w)_i by Dot2 (Ogita, Rump & Oishi, SISC 26, 2005) is
    within u |(H w)_i| + gamma_3^2 (|H| |w|)_i, gamma_3 < 3.01 u; squares are
    summed in blocks of b = ceil(sqrt(n)) in any order (gamma_b) and the
    block sums by fsum, so gamma_(2b+16) covers the rest."""
    n = len(w)
    b = math.isqrt(n - 1) + 1
    blocks = np.zeros((-(-n // b), b))
    flat = blocks.reshape(-1)
    flat[:n] = w
    ww = math.fsum(np.einsum("ij,ij->i", blocks, blocks))
    size2 = 0.0  # ||(|H| |w|)||^2, roughly: its term is tiny
    step = max(-(-n // 8), _EFT_ROWS)
    for start in range(0, n, step):
        stop = min(start + step, n)
        w_part = w[start : stop + 2]
        w_halves = split(w_part)  # one split for all three bands
        for shift, band in enumerate(bands):
            k = max(min(stop, n - shift) - start, 0)
            p, e = two_product(band[start : start + k], w_part[shift : shift + k],
                               [v[shift : shift + k] for v in w_halves])
            if not shift:  # the h0 products start the sums
                s, err, size = p, e, abs(p)
                continue
            s[:k], e_sum = two_sum(s[:k], p)
            err[:k] += e + e_sum
            size[:k] += abs(p)
        flat[start:stop] = s + err
        size2 += _dot(size, size)
    hw = math.sqrt(math.fsum(np.einsum("ij,ij->i", blocks, blocks)))
    hw += 2.0 * (3.01 * _UNIT) ** 2 * math.sqrt(size2)
    k = 2 * b + 16
    return hw * hw / ww * (1.0 + k * _UNIT / (1.0 - k * _UNIT))


def _block_size(params):
    """Vectors the iteration on all of H carries, at every n: one where the
    large-n law puts the two smallest eigenvalues far apart, else two, at
    nearly equal limits, where on 480 seeded weights near alpha, beta = -1
    one vector fails 12 that two certify and certifies 6 that two fail.

    The zeros are read at the orders clamped to the zero finder's window:
    j_nu grows with nu, so the clamped ratio never exceeds the true one and
    two orders past the window keep two vectors.  At n = 4e4 one vector
    solves (300, 0), (150, 3) and (200, 60) in 59, 54 and 78 ms, where two
    took 87, 92 and 161 ms (2-vCPU x86_64 VM, medians of 6 rounds)."""
    low, high = sorted(smallest_positive_zero(min(nu, NU_WINDOW))
                       for nu in (params.nu_alpha, params.nu_beta))
    return 1 if (high / low) ** 2 >= _SPLIT_RATIO else 2


def _certified(bands, lam, w, tol):
    """Whether lambda_min lies in [lambda (1 - tol), lambda (1 + tol)]: an
    inertia count finds no singular value of H below the lower root, and
    the Rayleigh bound of w, or where it fails a second count, one below
    the upper."""
    if _count_below(bands, math.sqrt(lam * (1.0 - tol))):
        return False
    upper = lam * (1.0 + tol)
    return _rayleigh_bound(bands, w) <= upper or _count_below(bands, math.sqrt(upper)) >= 1


def _residual(bands, w, hw, lam):
    r = ht_matvec(*bands, hw)
    r -= lam * w
    return math.sqrt(_dot(r, r))


def _solve_core(owned, tol):
    """The Solution of the pencil in the one-item list `owned`, w read-only:
    at h1 = 0 the bracket; elsewhere, or where it gives up, the iteration on
    all of H with the block size of the pencil's weight.  The one solver
    function that reads the pencil: it takes it out of the list and keeps
    the bands of H and iterators over the factors K1, K2, which the scans
    of all of H free as they set up, K1's before K2's (on Python 3.10 a
    caller holds a call's arguments until the call returns)."""
    pencil = owned.pop()
    params, bands = pencil.params, (pencil.h0, pencil.h1, pencil.h2)
    factors = iter([pencil.k1_0, pencil.k1_1]), iter([pencil.k2_0, pencil.k2_1])
    del pencil
    try:
        found = _bracket(bands, tol) if not bands[1].any() else None
        return found or _iterate(bands, factors, _block_size(params), tol)
    except OverflowError as exc:
        raise OverflowError(f"{exc} at alpha = {params.alpha!r}, beta = {params.beta!r},"
                            f" n = {len(bands[0])}") from None


def _power(b_inverse, x, solves, settle=None):
    """(x, k): x after k <= `solves` power steps x <- B^-1 x, each
    normalised; with `settle`, k is the first step at which ||B^-1 x|| moved
    by at most settle relative.  It smooths every returned w (50-digit sup
    defect at (12, 3, 199) 1.2e-9 off without, 2.4e-11 with two steps and
    5.4e-13 with four) and starts one vector on all of H."""
    k, norm_prev = 0, math.inf
    for k in range(1, solves + 1):
        x = b_inverse(x)
        norm = math.sqrt(_dot(x, x))
        _check_norms((norm,))
        x /= norm
        if settle is not None and abs(norm - norm_prev) <= settle * norm:
            break
        norm_prev = norm
    return x, k


def _solution(bands, lam, w, steps):
    """The Solution of every path: w made read-only, its residual taken on
    all of H."""
    w.flags.writeable = False
    return Solution(lam, w, _residual(bands, w, h_matvec(*bands, w), lam), steps)


@np.errstate(all="ignore")  # a lost positivity shows in the ends
def _positive_bracket(d, e, tol, x, floor=None, steps=0):
    """(low, lambda, x, B^-1, steps) from power steps x <- lo z, z = B^-1 x,
    from the positive start x, whose buffer they reuse, where B = H^T H
    and H is upper bidiagonal with diagonal d > 0 and superdiagonal e < 0;
    None past _MAX_STEPS steps, counted on from `steps`, or if positivity
    is lost.

    B^-1 is entrywise positive, so the ratios x_i / z_i of a positive x
    bracket its least eigenvalue (Collatz, Math. Z. 1942; Wielandt,
    Math. Z. 1950).  The steps end once the widened lower end `low` reaches
    `floor`, or with no floor once [low, high] closes to tol; x is then the
    next iterate lo z.  lambda is x.z / z.z, a mean of the ratios weighted
    by z_i^2 and the Rayleigh quotient at z.  The positive scans make each
    rounding a relative perturbation of one d or e by a unit that no
    cancellation amplifies: z is exact for bands a few units from d and e,
    as the inertia count's pivots are."""
    inverse = _Scans((d, e))
    while True:
        z = inverse(x)
        ratios = np.divide(x, z, out=x)  # x's buffer: the ratios, then the next x
        lo, hi = float(ratios.min()), float(ratios.max())
        if steps == _MAX_STEPS or not 0.0 < lo <= hi < math.inf:
            return None
        steps += 1
        low, high = lo * (1.0 - _WIDEN), hi * (1.0 + _WIDEN)
        if low >= (high * (1.0 - tol) if floor is None else floor):
            break
        np.multiply(z, lo, out=x)
    rayleigh = float(np.einsum("i,i,i->", ratios, z, z)) / _dot(z, z)
    return low, min(max(rayleigh, low), high), np.multiply(z, lo, out=x), inverse, steps


def _bracket(bands, tol):
    """The Solution at h1 = 0 of H with bands (h0, h1, h2) from
    _positive_bracket on the parity halves, each upper bidiagonal with
    h0 > 0 > h2; None where a half gives up.

    The half that holds index n - 1 closes to tol from x = 1, then the
    other (none at n = 1) steps from that half's closing iterate until its
    lower end reaches that one's; an other half that holds a smaller value
    (no weight's pencil has one) runs into _MAX_STEPS, which both halves
    share.  w is the first half's last iterate, smoothed by two solves on
    that half."""
    h0, _, h2 = bands
    n, p = len(h0), (len(h0) - 1) % 2
    first = _positive_bracket(h0[p::2], h2[p::2], tol, np.ones_like(h0[p::2]))
    if first is None:
        return None
    floor, lam, x, inverse, steps = first
    w = np.zeros(n)
    w[p::2] = _power(inverse, x, 2)[0]
    del first, inverse  # the first half's scans: the other half runs without them
    if n > 1:
        # At even n the halves are equally long and the other starts from x
        # itself; at odd n its entry i lies between x's i and i + 1 and
        # starts from their sum, written over x.
        if n % 2:
            x[:-1] += x[1:]
            x = x[:-1]
        # It adds its steps, or None where it gives up.
        steps = (_positive_bracket(h0[1 - p :: 2], h2[1 - p :: 2], tol, x, floor, steps)
                 or (None,))[-1]
    del x  # nothing of either half is kept while the residual is taken
    return None if steps is None else _solution(bands, lam, w, steps)


def _iterate(bands, factors, m, tol):
    """Locally optimal block inverse iteration on B = H^T H, H with bands
    (h0, h1, h2) = K2 K1, carrying m vectors (n at most); one vector starts
    with power steps.

    Each step makes Z = B^-1 Q by four scans over all vectors at once,
    (K2 K1)^-1 (K2 K1)^-T Q.  Then a Rayleigh-Ritz over span[Z, Q, P], P
    being the change of the Ritz vectors over the last step (LOBPCG with
    the exact inverse as preconditioner; Knyazev, SISC 23, 2001), which
    stalls when the inverse is of another matrix than the H whose bands
    the step reads.  The basis is one array, orthonormal in n-space; one
    product H basis gives the small matrix, and the Ritz vectors q and
    their products H q are combinations of the basis and of that product.

    A step ends the iteration when lambda has settled, the residual meets
    tol max(1, max diag B) and _certified holds for w smoothed by four
    solves; a refused step is iterated on.  The power steps count as steps
    of the iteration, in `iterations` and against _MAX_STEPS.  The
    accuracy of lambda rests on the certificate alone: a tiny lambda meets
    the absolute target at once (at alpha = beta = -1 + 2^-52, n = 73, the
    first settled Ritz vector has the residual 5e-22 = 8 lambda), but
    without the target w lies 34 times further from the 80-digit
    eigenvector at (10, 10, 30).

    `factors` holds an iterator over [diagonal, superdiagonal] of K1 and
    one of K2, each freed as its scans set up (_Scans)."""
    h0, h1, h2 = bands
    n, m = len(h0), min(len(h0), m)

    # Finite bands can have squares past double range: that is the cause
    # to report, before any scan overflows on it.
    with np.errstate(over="ignore"):
        diag_b = h0 * h0
        diag_b[1:] += h1 * h1
        diag_b[2:] += h2 * h2
    max_b = float(np.max(diag_b))
    del diag_b  # an n-vector the steps do not need
    if not math.isfinite(max_b):
        raise OverflowError(
            "the diagonal of B = H^T H leaves double range (the bands of H reach"
            f" {max(np.abs(band).max(initial=0.0) for band in bands):.3g})"
        )
    target = tol * max(1.0, max_b)
    b_inverse = _Scans(*factors)

    # Start from the indicators of the indices mod m with the sign pattern
    # of w: with S = I for h1[0] <= 0 and S = diag((-1)^k) for h1[0] > 0,
    # S H S is an upper triangular M-matrix where h1 keeps that sign
    # (sign h1 = sign(alpha - beta) and h0 > 0 > h2 on a weight's own
    # pencil), so S B^-1 S > 0.  For m = 2 the odd row flips.
    q = np.zeros((m, n))
    for row in range(m):
        q[row, row::m] = 1.0 / math.sqrt(len(range(row, n, m)))
    if n > 1 and h1[0] > 0.0:
        q[:, 1::2] *= -1.0
    # One vector first takes up to _POWER_STEPS power steps, until
    # ||B^-1 q|| settles to 1e-8: from this start the first Rayleigh-Ritz
    # steps do no more, at 4-5 times the cost.  They count as steps,
    # leaving the loop at least one.
    start = 0
    if m == 1:
        q[0], start = _power(b_inverse, q[0], min(_POWER_STEPS, _MAX_STEPS - 1), settle=1e-8)
    p = 0.0  # no change yet: zero rows, which the basis drops
    # Every n-long array of a step has one owner.  The buffer holds Z =
    # B^-1 Q, Q and P in blocks of m rows, orthonormalised in place into
    # the basis; beside it a copy of the old Q takes H Q once P is made.
    # H basis lives until the small matrix and H Q are taken.  The new Q
    # and P go into dead rows.  The buffer lives from the first step to the
    # first settled one, and again from a refused certificate to the next
    # (Q and P are copied out meanwhile): made at every step, it raised
    # solve_large_n's peak RSS by 0.16-0.79 MB (4 seeds) through the
    # allocator's reuse of freed blocks.  The message below reads the last
    # step's residual.
    buf = hw = None
    lam_prev = math.inf
    settled = refused = 0
    for steps in range(start + 1, _MAX_STEPS + 1):
        if buf is None:  # q's own array holds the old Q, then H Q
            buf, hq = np.empty((3 * m, n)), q
            buf[m : 2 * m], buf[2 * m :] = q, p
            q, p = buf[m : 2 * m], buf[2 * m :]
        hq[...] = q
        basis = _orthonormal_blocks((b_inverse(q, out=buf[:m]), q, p), buf)
        # H basis row by row: the h1 and h2 products go into the next row,
        # and the last row's into a dead row or an eighth of n at a time.
        rows, hbasis = len(basis), np.empty_like(basis)
        spare = buf[rows] if rows < 3 * m else np.empty(-(-n // 8))
        for k in range(rows):
            h_matvec(*bands, basis[k], out=hbasis[k], work=hbasis[k + 1] if k + 1 < rows else spare)
        del spare
        c = np.linalg.eigh(_gram(hbasis, hbasis))[1][:, :m]
        # The new Q whole in dead rows, or where the basis fills the buffer
        # a chunk of columns at a time: a chunk of the basis is dead once
        # combined.
        step = n if rows <= 2 * m else -(-n // (8 * m))
        for col in range(0, n, step):
            cols = slice(col, col + step)
            q[:, cols] = _combine(c, basis[:, cols], out=buf[rows : rows + m] if step == n else None)
        np.subtract(q, _combine(_gram(q, hq).T, hq, out=p), out=p)
        _combine(c, hbasis, out=hq)
        del basis, hbasis
        # The small matrix is accurate only to eps ||small||, which can
        # exceed the gap of a nearly multiple smallest eigenvalue and
        # order the Ritz vectors wrongly: take the one of least ||Hq||^2.
        norms = [_dot(row, row) for row in hq]
        i = norms.index(min(norms))
        w, hw, lam = q[i], hq[i], norms[i]
        # The residual (two n-long products) only once lambda has settled.
        change = abs(lam - lam_prev)
        if change <= 0.25 * tol * lam:
            settled += 1
            residual = _residual(bands, w, hw, lam)
            if residual <= target:
                q, p = q.copy(), p.copy()
                buf = hq = hw = w = None
                x = _power(b_inverse, q[i], 4)[0]
                if _certified(bands, lam, x, tol):
                    return _solution(bands, lam, x, steps)
                refused += 1
        lam_prev = lam
    if hw is not None:  # else the last step was refused, its residual taken
        residual = _residual(bands, w, hw, lam)
    raise ConvergenceError(
        f"did not certify lambda in {_MAX_STEPS} steps ({settled} settled steps, {refused} of"
        f" them failed the certificate; the last step's relative change of lambda"
        f" {change / lam:.3e}, settle bound tol/4 {0.25 * tol:.3e}; last residual"
        f" {residual:.3e}, target {target:.3e})"
    )


def solve(params, n, tol=1e-12):
    """The Solution of the degree-n pencil of `params`.

    The last result is memoised (one entry, keyed on (params, n, tol)),
    so the entry points that read one problem in turn share one solve;
    `solve.cache_clear()` drops it.  n and tol are checked before the
    lookup, so a result never depends on what is memoised.  A pencil
    with modified bands goes through smallest_eigenpair, which is never
    memoised.
    """
    n = check_size(n, 1, "n must be")
    check_tol(tol)
    key = params, n, tol
    if key not in _MEMO:
        # One entry, dropped before the next pencil is built: the entry
        # points that read one problem run one after another, while
        # consecutive problems of a sweep, a convergence study or a
        # benchmark pass differ, so more entries would only keep n-vectors.
        _MEMO.clear()
        _MEMO[key] = _solve_core([scaled_pencil(params, n)], tol)
    return _MEMO[key]


_MEMO = {}
solve.cache_clear = _MEMO.clear


def smallest_eigenpair(pencil, tol=1e-12):
    """The Solution of the ScaledPencil factor H as given; never memoised.
    Bands and factors must agree (pencil.check_factors; modify a pencil
    with pencil.perturb_factor).  `extremal_polynomial` maps w to the
    eigenvector of (A, D)."""
    check_tol(tol)
    if not isinstance(pencil, ScaledPencil):
        raise TypeError(f"expected ScaledPencil, got {type(pencil)}")
    check_factors(pencil)
    return _solve_core([pencil], tol)


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
    v = unit_v(params, n, sol.w)
    return h_matvec(*g_bands(params, n), v), v, sol.lambda_min ** -0.5
