"""Closed-form objects of the discrete boundary-value problem.

The solver's symmetrized vector w, the monic coefficients
v_k = w_k / sqrt(d_k) and the rescaled x_k = v_k / f_k,

    f_k = (2k+a+b+1)! / (2^k (k+a)! (k+b)!),

are tied by one map, `log_w_scale`.  In x the two zero-spectral-parameter
particular solutions with vanishing left boundary data become pure gamma
ratios

    x_k^(1) = (k+a)!/k!,          x_k^(2) = (-1)^k (k+b)!/k!.

Applying the operator A to either v^(j) leaves only the last two
components nonzero, which `residual_support` verifies on the factor H of
B = D^-1/2 A D^-1/2 = H^T H.  The 4-vector
bundle Y_k of sums/differences of consecutive x's is what converges to
the Bessel profile for large n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import check_size
from .jacobi import exponent_sum, log_norm_sequence
from .pencil import h_matvec, ht_matvec
from .special import log_gamma

__all__ = [
    "ParticularSolution",
    "log_scale_factors",
    "log_w_scale",
    "unit_v",
    "particular_v",
    "particular_x_sequence",
    "y_bundle",
    "bundle_matching_defect",
    "residual_support",
]

_V_MAX = 1e290
_SUPPORT_REL_TOL = 1e-8


@dataclass(frozen=True)
class ParticularSolution:
    """One of the two particular solutions, in v- or x-coordinates.

    branch 1 is sign-constant, branch 2 alternates as (-1)^k.
    `exponent` is the growth power b_j (alpha for branch 1, beta for 2).
    """

    branch: int
    exponent: float
    variable: str  # "v" or "x"
    values: np.ndarray


def log_scale_factors(params, n):
    """ln of the factors f_k = (2k+a+b+1)!/(2^k (k+a)!(k+b)!) for
    k = 0..n-1: ln f_0 through log-gamma, then the cumulative sum of

        ln(f_{k+1}/f_k) = ln((2k+s+2)(2k+s+3) / (2 (k+a+1)(k+b+1))),

    s = a + b.  The ratios tend to 2, so the sum runs over ln(f_{k+1} /
    (2 f_k)), which stay small, and k ln 2 is added afterwards."""
    a, b = params.alpha, params.beta
    s, lo = exponent_sum(params)
    k = np.arange(n - 1.0)
    t = 2 * k + s
    steps = np.log(((t + 2) + lo) * ((t + 3) + lo) / (4 * (k + a + 1) * (k + b + 1)))
    lead = log_gamma((s + 2.0) + lo) - log_gamma(a + 1.0) - log_gamma(b + 1.0)
    return lead + np.cumsum(np.r_[0.0, steps])[:n] + math.log(2.0) * np.arange(n)


def log_w_scale(params, n, variable):
    """ln of the factor that takes the coordinates `variable` of a vector
    to the solver's symmetrized w, for k = 0..n-1: w_k = sqrt(d_k) v_k
    and v_k = f_k x_k, so 1/2 ln d_k for "v" and 1/2 ln d_k + ln f_k
    for "x"."""
    g = 0.5 * log_norm_sequence(params, n)[:n]
    if variable == "x":
        g = g + log_scale_factors(params, n)
    elif variable != "v":
        raise ValueError(f"variable must be 'v' or 'x', got {variable!r}")
    return g


def unit_v(params, n, w):
    """The unit eigenvector v of (A, D) from the solver's symmetrized w:
    v_k = w_k / sqrt(d_k) (`log_w_scale`), in log space so the ~2^k
    dynamic range cannot overflow, with its largest-magnitude component
    positive."""
    with np.errstate(divide="ignore"):  # ln 0 = -inf, and exp(-inf) the 0 again
        t = np.log(np.abs(w)) - log_w_scale(params, n, "v")
    v = np.sign(w) * np.exp(t - np.max(t))
    v /= math.sqrt(float(np.einsum("i,i->", v, v)))
    imax = int(np.argmax(np.abs(v)))
    if v[imax] < 0:
        v = -v
    return v


def _x_values(params, j, n):
    """The exponent e of branch j in {1, 2} and x_0^(j)..x_{n-1}^(j) (inf
    past the double range), ln x_k = ln Gamma(e+1) + sum_{i<=k} ln(1 + e/i):
    as in `log_scale_factors`, summing the small log ratios keeps the
    rounding of large log-gammas out of x_k."""
    if j not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {j}")
    check_size(n, 1, "n must be")
    e = params.alpha if j == 1 else params.beta
    steps = np.log1p(e / np.arange(1.0, n))
    with np.errstate(over="ignore"):
        values = np.exp(log_gamma(e + 1.0) + np.cumsum(np.r_[0.0, steps])[:n])
    if j == 2:
        values[1::2] *= -1.0
    return e, values


def particular_v(params, j, n):
    """Particular solution v^(j) = f x^(j), j in {1, 2}.  Values grow like
    2^k times a power; an OverflowError names the first k past 1e290."""
    e, x = _x_values(params, j, n)
    with np.errstate(over="ignore"):
        values = x * np.exp(log_scale_factors(params, n))
    past = ~(np.abs(values) < _V_MAX)
    if past.any():
        raise OverflowError(f"particular solution component {int(np.argmax(past))} overflows")
    return ParticularSolution(branch=j, exponent=e, variable="v", values=values)


def particular_x_sequence(params, j, n):
    """x_0^(j)..x_{n-1}^(j) as a ParticularSolution (see `_x_values`)."""
    e, values = _x_values(params, j, n)
    if not np.isfinite(values).all():
        raise OverflowError(f"particular solution x^({j}) overflows before k = {n}")
    return ParticularSolution(branch=j, exponent=e, variable="x", values=values)


def y_bundle(x, k):
    """The 4-vector (x_{k-2}+x_{k-1}, x_{k-2}-x_{k-1},
    k(-(x_{k-2}+x_{k-1}) + (x_k+x_{k+1})),
    k(-(x_{k-2}-x_{k-1}) + (x_k-x_{k+1}))), needing x_{k-2}..x_{k+1}.

    k is an integer or an integer array; for an array the result has
    shape (4, len(k)), column i holding the vector at k[i]."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k)
    outside = (k < 2) | (k > len(x) - 2)
    if outside.any():
        bad = int(k[outside].flat[0])
        raise IndexError(f"k = {bad} needs x[{bad - 2}..{bad + 1}] inside 0..{len(x) - 1}")
    sp = x[k - 2] + x[k - 1]
    sm = x[k - 2] - x[k - 1]
    return np.array(
        [sp, sm, k * (-sp + (x[k] + x[k + 1])), k * (-sm + (x[k] - x[k + 1]))]
    )


def bundle_matching_defect(params, j, k):
    """|| Y_k^(j)(0) / k^{b_j} - C0^(j) ||_2 with C0^(1) = (2,0,4a,0) and
    C0^(2) = (0,2,0,4b); decays like 1/k.

    Branch 2 carries the alternating factor (-1)^k of x^(2), which the
    limiting vector absorbs, so the comparison is made on (-1)^k Y_k.
    """
    x = particular_x_sequence(params, j, k + 2)
    y = y_bundle(x.values, k)
    if j == 2 and k % 2 == 1:
        y = -y
    c0 = np.zeros(4)
    c0[j - 1], c0[j + 1] = 2.0, 4.0 * x.exponent
    return float(np.linalg.norm(y / float(k) ** x.exponent - c0))


def residual_support(pencil, solution):
    """Apply B = H^T H of a ScaledPencil (zero spectral parameter) to a
    particular solution and check that only the last two components
    survive.

    The solution is mapped to w through `log_w_scale`, in log space and
    divided by its largest factor: w grows only polynomially, so any n
    works.  The support statement is invariant under this diagonal
    scaling.  Each row of r = H^T H w is measured against the magnitudes
    it cancels, |r_k| / (|H|^T |H| |w|)_k, and the check passes when every
    row k < n-2 is below 1e-8 (_SUPPORT_REL_TOL).  Returns (support_ok,
    (rel_{n-2}, rel_{n-1})), the two tail rows' relative residuals.
    """
    n = pencil.n
    values = np.asarray(solution.values, dtype=float)
    if len(values) != n:
        raise ValueError(
            f"solution length {len(values)} does not match pencil size {n}"
        )
    if n < 3:
        raise ValueError("support check needs n >= 3")
    g = log_w_scale(pencil.params, n, solution.variable)
    w = values * np.exp(g - np.max(g))
    bands = (pencil.h0, pencil.h1, pencil.h2)
    abs_bands = [np.abs(h) for h in bands]
    r = ht_matvec(*bands, h_matvec(*bands, w))
    scale = ht_matvec(*abs_bands, h_matvec(*abs_bands, np.abs(w)))
    rel = np.divide(np.abs(r), scale, out=np.zeros(n), where=scale > 0)
    support_ok = bool(np.all(rel[: n - 2] < _SUPPORT_REL_TOL))
    return support_ok, (float(rel[n - 2]), float(rel[n - 1]))
