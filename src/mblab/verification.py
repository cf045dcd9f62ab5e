"""Cross-module consistency checks, runnable from the CLI.

Each check returns (name, passed, detail).  A nonzero `perturb` scales
one band of the matrix under test (h2 of H for the oracle check, super2
of A elsewhere) and is expected to make the checks fail; it exists as a
negative-control hook.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import discrete, eigensolver, pencil
from .continuum import ProfileBranch, ode_residual
from .jacobi import (
    JacobiWeightParams,
    monic_eval,
    norm_sequence,
    raising_coefficient,
    recurrence_coefficients,
)
from .special import bessel_j, smallest_positive_zero

__all__ = ["CheckResult", "run_verification", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_bessel_zeros():
    worst = 0.0
    worst = max(worst, abs(smallest_positive_zero(-0.5) - np.pi / 2))
    worst = max(worst, abs(smallest_positive_zero(0.5) - np.pi))
    # independent oracle for j_0: plain bisection on [2, 3]
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j(0.0, mid) > 0:
            lo = mid
        else:
            hi = mid
    worst = max(worst, abs(smallest_positive_zero(0.0) - 0.5 * (lo + hi)))
    ok = worst < 1e-12
    grid = np.linspace(-0.99, 10.0, 23)
    zeros = [smallest_positive_zero(nu) for nu in grid]
    mono = all(z1 < z2 for z1, z2 in zip(zeros, zeros[1:]))
    return CheckResult(
        "bessel_zeros",
        ok and mono,
        f"max closed-form defect {worst:.2e}, monotone={mono}",
    )


def _check_raising_relation():
    xs = np.linspace(-1.0, 1.0, 21)
    worst = 0.0
    for (a, b) in [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5)]:
        p = JacobiWeightParams(a, b)
        p_up = JacobiWeightParams(a + 1.0, b)
        for k in range(1, 13):
            c = raising_coefficient(p, k)
            lhs = monic_eval(p, k, xs)
            rhs = monic_eval(p_up, k, xs) - c * monic_eval(p_up, k - 1, xs)
            scale = np.max(np.abs([lhs, rhs])) + 1e-300
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    return CheckResult("raising_relation", worst < 1e-10, f"max rel defect {worst:.2e}")


def _check_norm_ratio():
    worst = 0.0
    for (a, b) in [(0.0, 0.0), (-0.5, -0.5), (1.0, 2.5), (-0.9, 3.0)]:
        p = JacobiWeightParams(a, b)
        d = norm_sequence(p, 40)
        _, bk = recurrence_coefficients(p, 40)
        for k in range(1, 40):
            worst = max(worst, abs(bk[k] - d[k] / d[k - 1]) / bk[k])
    return CheckResult("norm_ratio_identity", worst < 1e-10, f"max rel defect {worst:.2e}")


def _perturbed_pencil(params, n, perturb):
    pen = pencil.build_pencil(params, n)
    return replace(pen, super2=pen.super2 * (1.0 + perturb)) if perturb else pen


def _check_particular_support(perturb):
    bad = []
    for (a, b) in [(0.0, 0.0), (1.0, 0.0), (0.5, 2.5), (-0.5, 1.0)]:
        p = JacobiWeightParams(a, b)
        pen = _perturbed_pencil(p, 20, perturb)
        for j in (1, 2):
            sol = discrete.particular_v(p, j, 20)
            ok, _ = discrete.residual_support(pen, sol)
            if not ok:
                bad.append((a, b, j))
    return CheckResult(
        "particular_support",
        not bad,
        "all tails clean" if not bad else f"support leak at {bad}",
    )


def _check_ode_residual():
    worst = 0.0
    for b in (-0.5, 0.0, 1.0, 2.5):
        for l in (4.0, 23.13, 100.0):
            br = ProfileBranch(j=1, b=b, l=l)
            for t in (0.1, 0.5, 1.0):
                worst = max(worst, ode_residual(br, t))
    return CheckResult("ode_residual", worst < 1e-6, f"max residual {worst:.2e}")


def _check_rayleigh_bound(rng, perturb):
    p = JacobiWeightParams(0.4, 1.3)
    n = 25
    pen = _perturbed_pencil(p, n, perturb)
    m2 = eigensolver.sharp_constant(p, n).m_n ** 2
    worst = -np.inf
    for _ in range(100):
        v = rng.standard_normal(n)
        num = float(v @ (pen.d * v))
        den = float(v @ pencil.apply_operator(pen, 0.0, v))
        worst = max(worst, num / den)
    ok = worst <= m2 + 1e-9
    return CheckResult(
        "rayleigh_bound", ok, f"max quotient {worst:.12g} vs M_n^2 {m2:.12g}"
    )


def _check_oracle_equivalence(perturb):
    worst = 0.0
    for (a, b) in [(-0.5, 0.0), (0.0, 0.0), (1.0, 2.5)]:
        p = JacobiWeightParams(a, b)
        for n in (1, 2, 4, 8):
            pen = pencil.build_pencil(p, n)
            sd = np.sqrt(pen.d)
            dense = np.linalg.eigvalsh(pencil.dense_a(pen) / np.outer(sd, sd))[0]
            sp = pencil.scaled_pencil(p, n)
            lam = eigensolver.smallest_eigenpair(
                replace(sp, h2=sp.h2 * (1.0 + perturb))
            ).lambda_min
            worst = max(worst, abs(lam - dense) / dense)
    return CheckResult(
        "small_n_oracle_equivalence", worst < 1e-10, f"max rel defect {worst:.2e}"
    )


CHECK_NAMES = [
    "bessel_zeros",
    "raising_relation",
    "norm_ratio_identity",
    "particular_support",
    "ode_residual",
    "rayleigh_bound",
    "small_n_oracle_equivalence",
]


def run_verification(seed=0, perturb=0.0):
    """Run every cross-module check; returns a list of CheckResult."""
    rng = np.random.default_rng(seed)
    return [
        _check_bessel_zeros(),
        _check_raising_relation(),
        _check_norm_ratio(),
        _check_particular_support(perturb),
        _check_ode_residual(),
        _check_rayleigh_bound(rng, perturb),
        _check_oracle_equivalence(perturb),
    ]
