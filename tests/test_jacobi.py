import math

import mpmath
import numpy as np
import pytest
import scipy.special

from mblab import (
    JacobiWeightParams,
    gauss_jacobi_quadrature,
    log_norm_sequence,
    monic_eval_table,
    norm_ratio,
    norm_sequence,
    raising_coefficient,
    recurrence_coefficients,
)
from conftest import UNEQUAL_NEAR_MINUS_ONE

P00 = JacobiWeightParams(0.0, 0.0)
P11 = JacobiWeightParams(1.0, 1.0)


def test_params_validation_and_orders():
    with pytest.raises(ValueError):
        JacobiWeightParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiWeightParams(0.0, -1.5)
    p = JacobiWeightParams(0.0, 2.0)
    assert p.nu_alpha == -0.5
    assert p.nu_beta == 0.5
    assert p.nu_star == -0.5


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite_exponents(name, x):
    with pytest.raises(ValueError, match=f"finite {name}"):
        JacobiWeightParams(**{"alpha": 0.5, "beta": 0.5, name: x})


@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_params_reject_exponent_whose_bessel_order_rounds_to_minus_one(name):
    # refused when the weight is built, so before any solve
    x = -0.9999999999999999
    assert x > -1.0 and (x - 1.0) / 2.0 == -1.0
    with pytest.raises(ValueError, match=f"{name} = {x!r}"):
        JacobiWeightParams(**{"alpha": 0.5, "beta": 0.5, name: x})
    # the next float up still works
    ok = JacobiWeightParams(**{"alpha": 0.5, "beta": 0.5, name: -0.9999999999999998})
    assert ok.nu_star > -1.0


def test_norms_legendre():
    d = norm_sequence(P00, 2)
    assert d[0] == pytest.approx(1.0, rel=1e-14)
    assert d[1] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert d[2] == pytest.approx(4.0 / 45.0, rel=1e-14)


def test_norms_alpha_beta_one():
    d = norm_sequence(P11, 1)
    assert d[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert d[1] == pytest.approx(1.0 / 30.0, rel=1e-14)


def test_norms_positive_and_overflow_reported():
    d = norm_sequence(JacobiWeightParams(-0.5, -0.5), 120)
    assert np.all(d > 0)
    with pytest.raises(OverflowError):
        norm_sequence(P00, 700)
    with pytest.raises(ValueError, match="n >= 1, got 0"):
        norm_sequence(P00, 0)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: monic_eval_table(P00, -1, [0.0]), "monic_eval_table requires kmax >= 0, got -1"),
        (lambda: recurrence_coefficients(P00, 0), "recurrence_coefficients requires m >= 1, got 0"),
        (lambda: log_norm_sequence(P00, -1), "log_norm_sequence requires n >= 0, got -1"),
    ],
    ids=["monic_eval_table", "recurrence_coefficients", "log_norm_sequence"],
)
def test_sizes_below_range_name_the_argument(call, message):
    # The least valid sizes still work: norm_sequence reads log_norm_sequence(p, 0)
    with pytest.raises(ValueError, match=message):
        call()
    assert monic_eval_table(P00, 0, [0.0]).shape == (1, 1)
    assert recurrence_coefficients(P00, 1)[1][0] == 2.0
    assert log_norm_sequence(P00, 0).tolist() == [0.0]


@pytest.mark.parametrize(
    "alpha,beta", [(0.0, 0.0), (0.3, 1.7), (-0.95, 12.0), (49.5, 49.5), (-0.999999, -0.95)]
)
def test_log_norm_sequence_matches_mpmath(alpha, beta):
    # ln d_k = 2k ln 2 + lnG(k+1) + lnG(k+a+1) + lnG(k+b+1) + lnG(k+s+1)
    #          - lnG(2k+s+1) - lnG(2k+s+2), with s = a + b, at 40 digits
    logd = log_norm_sequence(JacobiWeightParams(alpha, beta), 40000)
    lg = mpmath.loggamma
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        s = a + b
        for k in (0, 1, 2, 3, 10, 100, 481, 1000, 9999, 20000, 39999, 40000):
            # lnG(k+s+1) - lnG(2k+s+1) cancels at k = 0, where s+1 may be <= 0
            pair = lg(k + s + 1) - lg(2 * k + s + 1) if k else 0
            exact = (
                2 * k * mpmath.log(2) + lg(k + 1) + lg(k + a + 1) + lg(k + b + 1)
                + pair - lg(2 * k + s + 2)
            )
            assert abs(logd[k] - float(exact)) <= 1e-10, k


@pytest.mark.parametrize(
    "alpha,beta", [(0.0, 0.0), (-0.5, -0.5), (1.0, 2.5), (-0.9, 3.0), (2.5, -0.9)]
)
def test_recurrence_matches_norm_ratio(alpha, beta):
    # monic orthogonal polynomials satisfy b_k = d_k / d_{k-1}; d_k here
    # carries one k-independent global factor, which cancels in the ratio
    p = JacobiWeightParams(alpha, beta)
    d = norm_sequence(p, 40)
    _, bk = recurrence_coefficients(p, 40)
    for k in range(1, 40):
        assert bk[k] == pytest.approx(d[k] / d[k - 1], rel=1e-10)
    for k in range(0, 39):
        assert norm_ratio(p, k) == pytest.approx(d[k + 1] / d[k], rel=1e-12)


def _recurrence_50_digits(alpha, beta, m):
    """The closed forms of recurrence_coefficients at 50 digits, on the
    exact binary values of alpha and beta."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        s = a + b
        ak, bk = [(b - a) / (s + 2)], [2 ** (s + 1) * mpmath.beta(a + 1, b + 1)]
        for k in range(1, m):
            t = 2 * k + s
            ak.append((b * b - a * a) / (t * (t + 2)))
            bk.append(4 * k * (k + a) * (k + b) * (k + s) / (t**2 * (t + 1) * (t - 1)))
        bk[1] = 4 * (1 + a) * (1 + b) / ((s + 2) ** 2 * (s + 3))
        return [float(x) for x in ak], [float(x) for x in bk]


@pytest.mark.parametrize(
    "alpha,beta",
    [
        (0.3, 0.3 + 1e-9),
        (-0.9999999, -0.9999998),
        (-0.99999999993, -0.99999999991),
        (2.5, -0.5),
        (12.0, 6.5),
    ],
)
def test_recurrence_coefficients_match_50_digits(alpha, beta):
    # alpha + beta enters every factor as (2k + s + c) + lo, so a_k keeps
    # its digits where b^2 - a^2 and the rounded alpha + beta lose them.
    ak, bk = recurrence_coefficients(JacobiWeightParams(alpha, beta), 40)
    exact_a, exact_b = _recurrence_50_digits(alpha, beta, 40)
    assert ak == pytest.approx(exact_a, rel=1e-14, abs=0.0)
    assert bk == pytest.approx(exact_b, rel=1e-14, abs=0.0)


def test_monic_eval_basics():
    assert monic_eval_table(P00, 0, 0.37).tolist() == [[1.0]]
    assert monic_eval_table(P00, 1, 0.0)[1, 0] == pytest.approx(0.0, abs=1e-15)
    # monic Legendre of degree 2 is x^2 - 1/3
    assert monic_eval_table(P00, 2, 1.0)[2, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)
    xs = np.linspace(-1, 1, 7)
    assert monic_eval_table(P00, 2, xs)[2] == pytest.approx(xs**2 - 1.0 / 3.0, abs=1e-14)


def test_monic_eval_table_consistent():
    # against scipy's Jacobi polynomials divided by their leading coefficient
    xs = np.linspace(-1, 1, 11)
    for p in (P11, JacobiWeightParams(2.5, -0.5)):
        table = monic_eval_table(p, 6, xs)
        for k in range(7):
            poly = scipy.special.jacobi(k, p.alpha, p.beta)
            assert table[k] == pytest.approx(poly(xs) / poly.coeffs[0], abs=1e-13)


def test_raising_coefficient_values():
    assert raising_coefficient(P00, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert raising_coefficient(P00, 2) == pytest.approx(2.0 / 5.0, rel=1e-15)
    assert raising_coefficient(JacobiWeightParams(1.0, 0.0), 1) == pytest.approx(
        1.0 / 6.0, rel=1e-15
    )
    with pytest.raises(ValueError):
        raising_coefficient(P00, 0)


@pytest.mark.parametrize("k", [-1, -2, 2.5, math.inf, [0, 1, -1], np.array([0.0, 0.5])])
def test_norm_ratio_refuses_indices_outside_the_integers_from_zero(k):
    # d_{k+1} / d_k exists only for integers k >= 0; the closed form
    # would return a number for any k (NaN at k = inf)
    with pytest.raises(ValueError, match="k >= 0"):
        norm_ratio(P00, k)


@pytest.mark.parametrize("k", [0, -1, 2.5, math.inf, math.nan, [1, 2.5], np.array([1.0, np.inf])])
def test_raising_coefficient_refuses_indices_outside_the_integers_from_one(k):
    # c_k exists only for integers k >= 1; the closed form gave 0.4167 at
    # k = 2.5 and NaN at k = inf
    with pytest.raises(ValueError, match="k >= 1"):
        raising_coefficient(P00, k)


@pytest.mark.parametrize("alpha,beta,n,lam", UNEQUAL_NEAR_MINUS_ONE)
def test_closed_forms_keep_the_rounding_of_alpha_plus_beta(alpha, beta, n, lam):
    # norm_ratio's 2k + s + 2 and 2k + s + 3 are about 1e-6 and 1 at k = 0;
    # rounded from a float alpha + beta, the ratio was 3e-10 off
    p = JacobiWeightParams(alpha, beta)
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        s = a + b
        for k in (0, 1, 2, 10):
            exact = 4 * (k + 1) * (k + 1 + a) * (k + 1 + b) / (
                (2 * k + s + 2) ** 2 * (2 * k + s + 3)
            )
            if k:
                exact *= (k + 1 + s) / (2 * k + s + 1)
            assert abs(norm_ratio(p, k) / float(exact) - 1.0) <= 1e-14, k
        for k in (1, 2, 10, 100):
            exact = 2 * k * (k + b) / ((2 * k + s) * (2 * k + s + 1))
            assert abs(raising_coefficient(p, k) / float(exact) - 1.0) <= 1e-14, k


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5)])
def test_raising_relation(alpha, beta):
    p = JacobiWeightParams(alpha, beta)
    up = JacobiWeightParams(alpha + 1.0, beta)
    xs = np.linspace(-1.0, 1.0, 25)
    table, table_up = monic_eval_table(p, 12, xs), monic_eval_table(up, 12, xs)
    for k in range(1, 13):
        c = raising_coefficient(p, k)
        lhs = table[k]
        rhs = table_up[k] - c * table_up[k - 1]
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.5, 0.5), (-0.5, 2.0)])
def test_differentiation_relation(alpha, beta):
    # d/dx P_k^(a,b) = k P_{k-1}^(a+1,b+1), checked by refined central
    # differences
    p = JacobiWeightParams(alpha, beta)
    up = JacobiWeightParams(alpha + 1.0, beta + 1.0)
    xs = np.linspace(-0.9, 0.9, 9)
    table_up = monic_eval_table(up, 10, xs)
    for k in (1, 3, 6, 10):
        want = k * table_up[k - 1]
        best = np.inf
        for h in (1e-4, 5e-5, 2.5e-5):
            plus, minus = monic_eval_table(p, k, xs + h)[k], monic_eval_table(p, k, xs - h)[k]
            fd = (plus - minus) / (2 * h)
            best = min(best, np.max(np.abs(fd - want)) / max(1e-30, np.max(np.abs(want))))
        assert best < 1e-6


def test_quadrature_legendre_small():
    nodes, weights = gauss_jacobi_quadrature(P00, 1)
    assert nodes == pytest.approx([0.0], abs=1e-15)
    assert weights == pytest.approx([2.0], rel=1e-14)
    nodes, weights = gauss_jacobi_quadrature(P00, 2)
    assert nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-14)
    assert weights == pytest.approx([1.0, 1.0], rel=1e-13)


def test_quadrature_total_weight():
    _, weights = gauss_jacobi_quadrature(P11, 3)
    assert weights.sum() == pytest.approx(4.0 / 3.0, rel=1e-13)
    with pytest.raises(ValueError):
        gauss_jacobi_quadrature(P11, 0)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5)])
def test_quadrature_orthogonality(alpha, beta):
    p = JacobiWeightParams(alpha, beta)
    nodes, weights = gauss_jacobi_quadrature(p, 16)
    table = monic_eval_table(p, 12, nodes)
    gram = (table * weights) @ table.T
    diag = np.diag(gram)
    for k in range(13):
        for j in range(13):
            if k != j:
                assert abs(gram[k, j]) < 1e-9 * math.sqrt(diag[k] * diag[j])


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (-0.5, 2.0)])
def test_quadrature_norms_match_d_up_to_global_factor(alpha, beta):
    # the stored d_k differ from the weighted-integral norms by one
    # k-independent factor; only the ratio is pinned down
    p = JacobiWeightParams(alpha, beta)
    d = norm_sequence(p, 10)
    nodes, weights = gauss_jacobi_quadrature(p, 14)
    table = monic_eval_table(p, 10, nodes)
    quad = (table**2 * weights).sum(axis=1)
    ratio = quad / d
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-10


@pytest.mark.parametrize("m", [5, 40])
def test_quadrature_moments_near_minus_one(m):
    # The monomial moments of the weight, 2^(alpha+beta+1) sum_i C(j,i)
    # 2^i (-1)^(j-i) B(beta+i+1, alpha+1), at 50 digits; the rule is exact
    # for degree j < 2m.
    alpha, beta = -0.9999999, -0.9999998
    nodes, weights = gauss_jacobi_quadrature(JacobiWeightParams(alpha, beta), m)
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        exact = [
            float(2 ** (a + b + 1) * mpmath.fsum(
                mpmath.binomial(j, i) * 2**i * (-1) ** (j - i) * mpmath.beta(b + i + 1, a + 1)
                for i in range(j + 1)
            ))
            for j in range(min(20, 2 * m))
        ]
    sums = [float(np.sum(weights * nodes**j)) for j in range(len(exact))]
    assert sums == pytest.approx(exact, rel=1e-13, abs=0.0)
