"""Cross-module consistency checks, runnable from the CLI.

Each check returns (name, passed, detail).  The residual checks run on
the factor H of B = H^T H that every solve uses; only the small-n oracle
builds the raw pencil, as an independent dense reference.  A nonzero
`perturb` scales the band h2 of H by (1 + perturb) in all three residual
checks (particular support, Rayleigh bound, oracle equivalence) and is
expected to make them fail; it exists as a negative-control hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from . import discrete, eigensolver, pencil
from .continuum import ProfileBranch, ode_residual
from .jacobi import (
    JacobiWeightParams,
    monic_eval_table,
    norm_sequence,
    raising_coefficient,
    recurrence_coefficients,
)
from .special import smallest_positive_zero

__all__ = ["CheckResult", "run_verification", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_bessel_zeros():
    # Oracles independent of the recurrence: the closed forms j_{-1/2} =
    # pi/2 and j_{1/2} = pi, and the known j_0 and j_1 (tabulated in
    # Abramowitz & Stegun, table 9.5), their 30-digit values rounded.
    known = {
        -0.5: np.pi / 2,
        0.5: np.pi,
        0.0: 2.404825557695773,
        1.0: 3.8317059702075125,
    }
    worst = max(abs(smallest_positive_zero(nu) - z) for nu, z in known.items())
    ok = worst < 1e-12
    grid = np.linspace(-0.99, 10.0, 23)
    zeros = [smallest_positive_zero(nu) for nu in grid]
    mono = all(z1 < z2 for z1, z2 in zip(zeros, zeros[1:]))
    return CheckResult(
        "bessel_zeros",
        ok and mono,
        f"max defect against known zeros {worst:.2e}, monotone={mono}",
    )


def _check_raising_relation():
    xs = np.linspace(-1.0, 1.0, 21)
    worst = 0.0
    for (a, b) in [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5)]:
        p = JacobiWeightParams(a, b)
        table = monic_eval_table(p, 12, xs)
        table_up = monic_eval_table(JacobiWeightParams(a + 1.0, b), 12, xs)
        for k in range(1, 13):
            lhs = table[k]
            rhs = table_up[k] - raising_coefficient(p, k) * table_up[k - 1]
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


def _pencil_under_test(params, n, perturb):
    """The factor H under test: its band h2 scaled by (1 + perturb)."""
    sp = pencil.scaled_pencil(params, n)
    return replace(sp, h2=sp.h2 * (1.0 + perturb)) if perturb else sp


def _check_particular_support(perturb):
    bad = []
    for (a, b) in [(0.0, 0.0), (1.0, 0.0), (0.5, 2.5), (-0.5, 1.0)]:
        p = JacobiWeightParams(a, b)
        sp = _pencil_under_test(p, 20, perturb)
        for j in (1, 2):
            sol = discrete.particular_v(p, j, 20)
            ok, _ = discrete.residual_support(sp, sol)
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
    """Random vectors stay below M_n^2 = 1/lambda_min, and the solver's
    vector w attains it (to 1e-9 relative): quotients ||w||^2 / ||Hw||^2
    on the factor H under test."""
    p = JacobiWeightParams(0.4, 1.3)
    n = 25
    sp = _pencil_under_test(p, n, perturb)
    result = eigensolver.solve(p, n)
    m2 = 1.0 / result.lambda_min

    def quotient(w):
        hw = pencil.h_matvec(sp.h0, sp.h1, sp.h2, w)
        return float(w @ w) / float(hw @ hw)

    draws = ([rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(100))
    worst = max(quotient(np.array(w)) for w in draws)
    attained = quotient(result.w)
    ok = worst <= m2 + 1e-9 and abs(attained - m2) <= 1e-9 * m2
    return CheckResult(
        "rayleigh_bound",
        ok,
        f"max quotient {worst:.12g}, at the extremal vector {attained:.12g},"
        f" vs M_n^2 {m2:.12g}",
    )


def _dense_b(params, n):
    """Dense B = D^-1/2 A D^-1/2 from the raw pencil's bands."""
    b0, b1, b2 = pencil.symmetrized_bands(pencil.build_pencil(params, n))
    i = np.arange(n)
    dense = np.diag(b0)
    dense[i[:-1], i[1:]] = dense[i[1:], i[:-1]] = b1
    dense[i[:-2], i[2:]] = dense[i[2:], i[:-2]] = b2
    return dense


def _check_oracle_equivalence(perturb):
    worst = 0.0
    for (a, b) in [(-0.5, 0.0), (0.0, 0.0), (1.0, 2.5)]:
        p = JacobiWeightParams(a, b)
        for n in (1, 2, 4, 8):
            dense = np.linalg.eigvalsh(_dense_b(p, n))[0]
            sp = _pencil_under_test(p, n, perturb)
            lam = eigensolver.smallest_eigenpair(sp).lambda_min
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
    """Run every cross-module check; returns a list of CheckResult.

    `seed`, a non-negative integer, fixes the Rayleigh check's vectors,
    drawn from the standard library's generator so that numpy.random
    never loads."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    return [
        _check_bessel_zeros(),
        _check_raising_relation(),
        _check_norm_ratio(),
        _check_particular_support(perturb),
        _check_ode_residual(),
        _check_rayleigh_bound(rng, perturb),
        _check_oracle_equivalence(perturb),
    ]
