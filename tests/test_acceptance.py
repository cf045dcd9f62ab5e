"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import math

import numpy as np
import scipy.linalg

from mblab import (
    JacobiWeightParams,
    build_pencil,
    bundle_matching_defect,
    extremal_polynomial,
    gauss_jacobi_quadrature,
    monic_eval_table,
    particular_v,
    profile_compare,
    residual_support,
    scaled_pencil,
    sharp_constant,
    smallest_eigenpair,
    smallest_positive_zero,
)
from mblab.continuum import ProfileBranch, ode_residual
from mblab.pencil import dense_a, dense_d
from conftest import j0_oracle, rayleigh_supremum

GRID = [-0.5, 0.0, 0.5, 1.0, 2.5]


def _report(cid, ok, detail=""):
    print(f"criterion {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_1_exact_small_n_constants():
    cases = [
        (0.0, 0.0, 1, math.sqrt(3.0)),
        (0.0, 0.0, 2, math.sqrt(15.0)),
        (1.0, 1.0, 1, math.sqrt(5.0)),
    ]
    worst = 0.0
    for alpha, beta, n, want in cases:
        got = sharp_constant(JacobiWeightParams(alpha, beta), n).m_n
        worst = max(worst, abs(got - want) / want)
        # independent confirmation from exact moments + dense eigensolve
        brute = rayleigh_supremum(int(alpha), int(beta), n)
        worst = max(worst, abs(got - brute) / brute)
    # parameterized scan for the degree-1 cases: Q = cos(s) + sin(s) x
    for alpha, beta, want2 in [(0, 0, 3.0), (1, 1, 5.0)]:
        best = 0.0
        w0 = {0: 2.0, 1: 4.0 / 3.0}[alpha]
        w2 = {0: 2.0 / 3.0, 1: 4.0 / 15.0}[alpha]
        for s in np.linspace(0.0, math.pi, 20001):
            a, b = math.cos(s), math.sin(s)
            best = max(best, w0 * b * b / (w0 * a * a + w2 * b * b))
        ok = abs(best - want2) < 1e-3 and best <= want2 + 1e-12
        if not ok:
            _report(1, False, f"scan for ({alpha},{beta}) gave {best}")
    _report(1, worst < 1e-10, f"max relative defect {worst:.2e}")


def test_criterion_2_dense_oracle_equivalence():
    worst = 0.0
    for alpha in GRID:
        for beta in GRID:
            p = JacobiWeightParams(alpha, beta)
            for n in range(1, 9):
                pen = build_pencil(p, n)
                dense = scipy.linalg.eigh(
                    dense_a(pen), dense_d(pen), eigvals_only=True
                )[0]
                lam = smallest_eigenpair(scaled_pencil(p, n)).lambda_min
                worst = max(worst, abs(lam - dense) / dense)
    _report(2, worst < 1e-10, f"max relative defect {worst:.2e} over 25 pairs, n <= 8")


def test_criterion_3_asymptotic_law():
    ok = True
    details = []
    for alpha, beta in [(0.0, 0.0), (1.0, 1.0), (0.0, 2.0), (2.5, 0.0), (0.0, 3.9)]:
        p = JacobiWeightParams(alpha, beta)
        d50 = abs(sharp_constant(p, 50).ratio - 1.0)
        d400 = abs(sharp_constant(p, 400).ratio - 1.0)
        ok = ok and d400 < d50 and d400 < 0.1
        details.append(f"({alpha},{beta}): {d50:.3e}->{d400:.3e}")
    _report(3, ok, "; ".join(details))


def test_criterion_4_particular_solution_support():
    bad = []
    for alpha in GRID:
        for beta in GRID:
            p = JacobiWeightParams(alpha, beta)
            pen = build_pencil(p, 20)
            for j in (1, 2):
                good, _ = residual_support(pen, particular_v(p, j, 20))
                if not good:
                    bad.append((alpha, beta, j))
    _report(4, not bad, "all 50 cases clean" if not bad else f"leaks at {bad}")


def test_criterion_5_matching_law():
    ok = True
    worst = (0.0, 0.0)
    for alpha, beta in [(1.5, 0.5), (2.5, 1.0), (0.5, 3.0)]:
        p = JacobiWeightParams(alpha, beta)
        for j in (1, 2):
            for k in (20, 40, 60, 100):
                r = bundle_matching_defect(p, j, k) / bundle_matching_defect(p, j, 2 * k)
                ok = ok and 1.6 <= r <= 2.4
                worst = max(worst, (abs(r - 2.0), r))
    _report(5, ok, f"halving ratios within [1.6, 2.4], extreme {worst[1]:.3f}")


def test_criterion_6_ode_and_profile_consistency():
    worst = 0.0
    for b in (-0.5, 0.0, 1.0, 2.5):
        for l in (4.0, 23.13, 100.0):
            br = ProfileBranch(j=1, b=b, l=l)
            for t in (0.1, 0.5, 1.0):
                worst = max(worst, ode_residual(br, t))
    p = JacobiWeightParams(0.0, 0.0)
    d100 = profile_compare(p, 100).sup_defect
    d400 = profile_compare(p, 400).sup_defect
    ok = worst < 1e-6 and d400 < d100 and d400 < 0.05
    _report(
        6, ok, f"ode residual {worst:.2e}; profile defect {d100:.3e} -> {d400:.3e}"
    )


def test_criterion_7_bessel_layer():
    e1 = abs(smallest_positive_zero(-0.5) - math.pi / 2)
    e2 = abs(smallest_positive_zero(0.5) - math.pi)
    e3 = abs(smallest_positive_zero(0.0) - j0_oracle())
    grid = np.linspace(-0.99, 10.0, 23)
    zeros = [smallest_positive_zero(nu) for nu in grid]
    mono = all(a < b for a, b in zip(zeros, zeros[1:]))
    ok = max(e1, e2, e3) < 1e-12 and mono
    _report(7, ok, f"closed-form defects {e1:.1e}/{e2:.1e}, oracle {e3:.1e}, monotone={mono}")


def test_criterion_8_quadrature_cross_check():
    worst = 0.0
    for alpha, beta in [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5), (0.5, 2.5)]:
        p = JacobiWeightParams(alpha, beta)
        for n in (5, 20, 50):
            u, v, m_n = extremal_polynomial(p, n)
            nodes, weights = gauss_jacobi_quadrature(p, n + 2)
            table = monic_eval_table(p, n, nodes)
            qprime = v @ table[:n, :]
            q = u @ table[1:, :]
            ratio = math.sqrt(
                float(weights @ (qprime**2)) / float(weights @ (q**2))
            )
            worst = max(worst, abs(ratio - m_n) / m_n)
    _report(8, worst < 1e-6, f"max relative defect {worst:.2e} up to n = 50")
