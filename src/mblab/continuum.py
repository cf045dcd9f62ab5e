"""Continuum limit of the discrete problem: Bessel profiles, the limiting
ODE, the root condition for the rescaled spectral parameter, and the
numerical comparison of eigenvectors against the closed-form profile.

With t = k/n and l = n^4 lambda, the bundle components converge to

    y_j(t, l) = 2^{b_j} Gamma(nu_j + 1) / l^{nu_j/2} * t * J_{nu_j}(sqrt(l) t^2 / 2),

nu_j = (b_j - 1)/2, which solves   y'' = y'/t - (t^2 l - b_j(b_j-2)/t^2) y
and matches 2 t^{b_j} as t -> 0.  The smallest admissible l is (2 j_nu*)^2,
giving the large-n law M_n ~ n^2 / (2 j_nu*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import log_w_scale, y_bundle
from .eigensolver import sharp_constant, solve
from .exceptions import check_size
from .special import bessel_j, log_gamma, smallest_positive_zero

__all__ = [
    "ProfileBranch",
    "profile_y",
    "ode_residual",
    "root_condition_min_l",
    "ProfileComparison",
    "profile_compare",
    "convergence_study",
]


@dataclass(frozen=True)
class ProfileBranch:
    """Branch j in {1, 2} with exponent b (alpha for 1, beta for 2) and
    rescaled spectral parameter l > 0."""

    j: int
    b: float
    l: float

    def __post_init__(self):
        if self.j not in (1, 2):
            raise ValueError(f"branch must be 1 or 2, got {self.j}")
        if not self.l > 0.0:
            raise ValueError(f"rescaled parameter l must be positive, got {self.l}")
        if not self.nu > -1.0:
            raise ValueError(f"branch exponent {self.b} gives order <= -1")

    @property
    def nu(self):
        return (self.b - 1.0) / 2.0


def profile_y(branch, t):
    """Closed-form profile at t > 0, through one Bessel call: a float for
    a scalar t, an array for an array of them."""
    ts = np.asarray(t, dtype=float)
    if not (ts > 0.0).all():
        raise ValueError(f"profile requires t > 0, got {ts[~(ts > 0.0)].flat[0]}")
    nu = branch.nu
    const = math.exp(
        branch.b * math.log(2.0) + log_gamma(nu + 1.0) - 0.5 * nu * math.log(branch.l)
    )
    y = const * ts * bessel_j(nu, math.sqrt(branch.l) * ts * ts / 2.0)
    return float(y) if ts.ndim == 0 else y


_STEPS = (0.02, 0.01, 0.005, 0.0025, 0.00125, 0.000625, 0.0003125)


def ode_residual(branch, t, l=None):
    """Relative defect of the closed-form profile of `branch` in
    y'' = y'/t - (t^2 l - b(b-2)/t^2) y, l defaulting to branch.l (where
    it is analytically zero: truncation only; another l is a negative
    control).  Fourth-order central differences over the refined steps
    of _STEPS, capped at t/8 because the 1/t^2 term steepens the
    derivatives near the origin; the smallest defect is returned.  The
    profile is evaluated at every stencil point in one call."""
    b = branch.b
    l = branch.l if l is None else float(l)
    t = float(t)
    hs = np.minimum(_STEPS, t / 8.0)
    values = profile_y(branch, t + hs[:, None] * np.arange(-2.0, 3.0))
    best = math.inf
    for h, ys in zip(hs.tolist(), values.tolist()):
        d1 = (-ys[4] + 8.0 * ys[3] - 8.0 * ys[1] + ys[0]) / (12.0 * h)
        d2 = (-ys[4] + 16.0 * ys[3] - 30.0 * ys[2] + 16.0 * ys[1] - ys[0]) / (
            12.0 * h * h
        )
        lhs = d2 - d1 / t + (t * t * l - b * (b - 2.0) / (t * t)) * ys[2]
        scale = max(abs(ys[2]), abs(d1), abs(d2), 1e-30)
        best = min(best, abs(lhs) / scale)
    return best


def root_condition_min_l(params):
    """Smallest l with J_nu(alpha)(sqrt(l)/2) * J_nu(beta)(sqrt(l)/2) = 0,
    namely (2 j_nu*)^2."""
    return (2.0 * smallest_positive_zero(params.nu_star)) ** 2


@dataclass(frozen=True)
class ProfileComparison:
    """Eigenvector bundle vs closed-form profile over the window
    k in [n/4, n-2], both normalized to unit sup norm."""

    sup_defect: float
    branch: int
    degenerate: bool
    l_star: float
    t: np.ndarray
    discrete: np.ndarray
    closed_form: np.ndarray


def _sup_normalize(seq):
    imax = int(np.argmax(np.abs(seq)))
    peak = seq[imax]
    if peak == 0.0:
        raise ValueError("cannot normalize an identically zero sequence")
    return seq / peak


def profile_compare(params, n, tol=1e-12):
    """Compare the extremal eigenvector's bundle component against the
    closed-form profile at l* = n^4 lambda_min.

    The branch of the smaller exponent, which realizes nu*, is used
    (component 1 for branch 1, component 2 for branch 2, de-alternated by
    (-1)^k).  At alpha = beta both branches are admissible; branch 1 is
    used by convention and the result is flagged degenerate.
    """
    check_size(n, 50, "profile comparison needs n")
    # The zero first: outside its window it raises before a solve is spent.
    smallest_positive_zero(params.nu_star)
    sol = solve(params, n, tol)
    l_star = sol.lambda_min * float(n) ** 4

    # The factor from x to w is only polynomially large, so the bundle is
    # formed without over/underflow.
    x = sol.w * np.exp(-log_w_scale(params, n, "x"))

    degenerate = params.alpha == params.beta
    branch = 2 if params.beta < params.alpha else 1

    ks = np.arange(int(math.ceil(n / 4.0)), n - 1)
    sign = 1 - 2 * (ks % 2) if branch == 2 else 1
    discrete = sign * y_bundle(x, ks)[branch - 1]
    br = ProfileBranch(j=branch, b=params.alpha if branch == 1 else params.beta, l=l_star)
    ts = ks / float(n)
    closed = profile_y(br, ts)

    discrete = _sup_normalize(discrete)
    closed = _sup_normalize(closed)
    defect = float(np.max(np.abs(discrete - closed)))
    return ProfileComparison(
        sup_defect=defect,
        branch=branch,
        degenerate=degenerate,
        l_star=l_star,
        t=ts,
        discrete=discrete,
        closed_form=closed,
    )


def convergence_study(params, n_list, tol=1e-12):
    """Sharp-constant reports for an ascending list of degrees; the ratio
    column records M_n * 2 j_nu* / n^2."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    return [sharp_constant(params, n, tol) for n in n_list]
