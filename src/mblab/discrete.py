"""Closed-form objects of the discrete boundary-value problem.

The eigenvector coordinates v_k admit the rescaling

    v_k = x_k (2k+a+b+1)! / (2^k (k+a)! (k+b)!),

under which the two zero-spectral-parameter particular solutions with
vanishing left boundary data become pure gamma ratios

    x_k^(1) = (k+a)!/k!,          x_k^(2) = (-1)^k (k+b)!/k!.

Applying the operator A to either v^(j) leaves only the last two
components nonzero, which `residual_support` verifies.  The 4-vector
bundle Y_k of sums/differences of consecutive x's is what converges to
the Bessel profile for large n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pencil import band_matvec, symmetrized_bands
from .special import log_gamma

__all__ = [
    "ParticularSolution",
    "log_scale_factors",
    "scale_factors",
    "scale_v_to_x",
    "scale_x_to_v",
    "particular_v",
    "particular_x",
    "particular_x_sequence",
    "y_bundle",
    "bundle_matching_defect",
    "residual_support",
]

_V_MAX = 1e290


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
    """ln of the factors (2k+a+b+1)!/(2^k (k+a)!(k+b)!) for k = 0..n-1."""
    a, b = params.alpha, params.beta
    s = a + b
    ln2 = math.log(2.0)
    return np.array(
        [
            log_gamma(2 * k + s + 2.0)
            - k * ln2
            - log_gamma(k + a + 1.0)
            - log_gamma(k + b + 1.0)
            for k in range(n)
        ]
    )


def scale_factors(params, n):
    """The factors (2k+a+b+1)!/(2^k (k+a)!(k+b)!) for k = 0..n-1; raises
    OverflowError once they leave double range (k ~ 1000)."""
    return np.array([math.exp(g) for g in log_scale_factors(params, n)])


def scale_v_to_x(params, v):
    """Componentwise v_k -> x_k (divide by the scale factor)."""
    v = np.asarray(v, dtype=float)
    return v / scale_factors(params, len(v))


def scale_x_to_v(params, x):
    """Componentwise x_k -> v_k (multiply by the scale factor)."""
    x = np.asarray(x, dtype=float)
    return x * scale_factors(params, len(x))


def particular_v(params, j, n):
    """Particular solution v^(j), j in {1, 2}, by its ratio recurrence.

    Values grow like 2^k times a power, so an OverflowError names the
    first k past the representable range.
    """
    if j not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {j}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, b = params.alpha, params.beta
    s = a + b
    low = b if j == 1 else a  # order parameter in the denominator factorial
    values = np.empty(n)
    values[0] = math.exp(log_gamma(s + 2.0) - log_gamma(low + 1.0))
    sign = 1.0 if j == 1 else -1.0
    for k in range(n - 1):
        ratio = (2 * k + s + 2.0) * (2 * k + s + 3.0) / (2.0 * (k + 1) * (k + 1 + low))
        values[k + 1] = sign * values[k] * ratio
        if not abs(values[k + 1]) < _V_MAX:
            raise OverflowError(f"particular solution component {k + 1} overflows")
    return ParticularSolution(
        branch=j,
        exponent=params.alpha if j == 1 else params.beta,
        variable="v",
        values=values,
    )


def particular_x(params, j, k):
    """x_k^(1) = (k+alpha)!/k!, x_k^(2) = (-1)^k (k+beta)!/k!."""
    if j not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {j}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    e = params.alpha if j == 1 else params.beta
    val = math.exp(log_gamma(k + e + 1.0) - log_gamma(k + 1.0))
    if j == 2 and k % 2 == 1:
        val = -val
    return val


def particular_x_sequence(params, j, n):
    """x_0^(j)..x_{n-1}^(j) as a ParticularSolution."""
    values = np.array([particular_x(params, j, k) for k in range(n)])
    return ParticularSolution(
        branch=j,
        exponent=params.alpha if j == 1 else params.beta,
        variable="x",
        values=values,
    )


def y_bundle(x, k):
    """The 4-vector (x_{k-2}+x_{k-1}, x_{k-2}-x_{k-1},
    k(-(x_{k-2}+x_{k-1}) + (x_k+x_{k+1})),
    k(-(x_{k-2}-x_{k-1}) + (x_k-x_{k+1}))), needing x_{k-2}..x_{k+1}."""
    x = np.asarray(x, dtype=float)
    if not 2 <= k <= len(x) - 2:
        raise IndexError(f"k = {k} needs x[{k - 2}..{k + 1}] inside 0..{len(x) - 1}")
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
    xs = particular_x_sequence(params, j, k + 2).values
    y = y_bundle(xs, k)
    if j == 2 and k % 2 == 1:
        y = -y
    b_j = params.alpha if j == 1 else params.beta
    if j == 1:
        c0 = np.array([2.0, 0.0, 4.0 * params.alpha, 0.0])
    else:
        c0 = np.array([0.0, 2.0, 0.0, 4.0 * params.beta])
    return float(np.linalg.norm(y / float(k) ** b_j - c0))


def residual_support(pencil, solution, rel_tol=1e-10):
    """Apply A (zero spectral parameter) to a particular solution and
    check that only the last two components survive.

    The test is run on the diagonally rescaled residual B (d^(1/2) v):
    the support statement is invariant under positive diagonal scaling,
    and in raw units the roundoff of the ~4^k dynamic range would bury
    the check.  Returns (support_ok, (tail_{n-2}, tail_{n-1})) with the
    tail reported in raw A-units.
    """
    n = pencil.n
    if len(solution.values) != n:
        raise ValueError(
            f"solution length {len(solution.values)} does not match pencil size {n}"
        )
    if n < 3:
        raise ValueError("support check needs n >= 3")
    v = solution.values
    if solution.variable == "x":
        v = scale_x_to_v(pencil.params, v)
    sd = np.sqrt(pencil.d)
    r = band_matvec(*symmetrized_bands(pencil), sd * v)
    scale = float(np.max(np.abs(r)))
    head = float(np.max(np.abs(r[: n - 2]))) if scale > 0 else 0.0
    support_ok = scale > 0 and head < rel_tol * scale
    tail = (float(sd[n - 2] * r[n - 2]), float(sd[n - 1] * r[n - 1]))
    return support_ok, tail
