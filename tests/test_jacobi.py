import math

import numpy as np
import pytest

from mblab import (
    JacobiWeightParams,
    gauss_jacobi_quadrature,
    monic_eval,
    monic_eval_table,
    norm_ratio,
    norm_sequence,
    raising_coefficient,
    recurrence_coefficients,
)

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


def test_monic_eval_basics():
    assert monic_eval(P00, 0, 0.37) == 1.0
    assert monic_eval(P00, 1, 0.0) == pytest.approx(0.0, abs=1e-15)
    # monic Legendre of degree 2 is x^2 - 1/3
    assert monic_eval(P00, 2, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    xs = np.linspace(-1, 1, 7)
    assert monic_eval(P00, 2, xs) == pytest.approx(xs**2 - 1.0 / 3.0, abs=1e-14)


def test_monic_eval_table_consistent():
    xs = np.linspace(-1, 1, 11)
    table = monic_eval_table(P11, 6, xs)
    for k in range(7):
        assert table[k] == pytest.approx(monic_eval(P11, k, xs), abs=1e-13)


def test_raising_coefficient_values():
    assert raising_coefficient(P00, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert raising_coefficient(P00, 2) == pytest.approx(2.0 / 5.0, rel=1e-15)
    assert raising_coefficient(JacobiWeightParams(1.0, 0.0), 1) == pytest.approx(
        1.0 / 6.0, rel=1e-15
    )
    with pytest.raises(ValueError):
        raising_coefficient(P00, 0)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5)])
def test_raising_relation(alpha, beta):
    p = JacobiWeightParams(alpha, beta)
    up = JacobiWeightParams(alpha + 1.0, beta)
    xs = np.linspace(-1.0, 1.0, 25)
    for k in range(1, 13):
        c = raising_coefficient(p, k)
        lhs = monic_eval(p, k, xs)
        rhs = monic_eval(up, k, xs) - c * monic_eval(up, k - 1, xs)
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.5, 0.5), (-0.5, 2.0)])
def test_differentiation_relation(alpha, beta):
    # d/dx P_k^(a,b) = k P_{k-1}^(a+1,b+1), checked by refined central
    # differences
    p = JacobiWeightParams(alpha, beta)
    up = JacobiWeightParams(alpha + 1.0, beta + 1.0)
    xs = np.linspace(-0.9, 0.9, 9)
    for k in (1, 3, 6, 10):
        want = k * monic_eval(up, k - 1, xs)
        best = np.inf
        for h in (1e-4, 5e-5, 2.5e-5):
            fd = (monic_eval(p, k, xs + h) - monic_eval(p, k, xs - h)) / (2 * h)
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
