import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from mblab import (
    JacobiWeightParams,
    bundle_matching_defect,
    log_norm_sequence,
    particular_v,
    particular_x_sequence,
    raising_coefficient,
    residual_support,
    scaled_pencil,
    y_bundle,
)
from mblab.discrete import ParticularSolution, log_scale_factors, log_w_scale
from mblab.pencil import _c2_entries
from conftest import UNEQUAL_NEAR_MINUS_ONE

P00 = JacobiWeightParams(0.0, 0.0)
P10 = JacobiWeightParams(1.0, 0.0)


def test_scale_factors_legendre():
    f = np.exp(log_scale_factors(P00, 3))
    assert f[0] == pytest.approx(1.0, rel=1e-14)
    assert f[1] == pytest.approx(3.0, rel=1e-14)  # 3!/(2*1*1)
    assert f[2] == pytest.approx(7.5, rel=1e-13)  # 5!/(4*2*2)


@pytest.mark.parametrize(
    "alpha,beta", [(0.0, 0.0), (-0.95, -0.95), (0.3, 1.7), (49.5, 0.0)]
)
def test_log_scale_factors_match_mpmath(alpha, beta):
    # ln f_k = lnG(2k+s+2) - k ln 2 - lnG(k+a+1) - lnG(k+b+1) at 40 digits
    logf = log_scale_factors(JacobiWeightParams(alpha, beta), 40001)
    lg = mpmath.loggamma
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        for k in (0, 1, 2, 3, 10, 100, 1000, 9999, 20000, 39999, 40000):
            exact = lg(2 * k + a + b + 2) - k * mpmath.log(2) - lg(k + a + 1) - lg(k + b + 1)
            assert abs(logf[k] - float(exact)) <= 1e-9, k
    assert log_scale_factors(JacobiWeightParams(alpha, beta), 0).shape == (0,)


@pytest.mark.parametrize("alpha,beta,n,lam", UNEQUAL_NEAR_MINUS_ONE)
def test_log_scale_factors_keep_the_rounding_of_alpha_plus_beta(alpha, beta, n, lam):
    # lnG(2k+s+2) at k = 0 and the first ratios read 2 + alpha + beta, about
    # 1e-6 here; rounded from a float alpha + beta they were 1.6e-10 off
    logf = log_scale_factors(JacobiWeightParams(alpha, beta), 5)
    lg = mpmath.loggamma
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        for k in range(5):
            exact = lg(2 * k + a + b + 2) - k * mpmath.log(2) - lg(k + a + 1) - lg(k + b + 1)
            assert abs(logf[k] - float(exact)) <= 1e-14, k


@pytest.mark.parametrize(
    "alpha,beta", [(0.0, 0.0), (-0.95, -0.95), (0.3, 1.7), (49.5, -0.9999999999999998)]
)
def test_particular_x_sequence_matches_mpmath(alpha, beta):
    # x_k = (-1)^{k(j-1)} Gamma(k+e+1) / k! at 40 digits, e = alpha, beta
    p = JacobiWeightParams(alpha, beta)
    for j, e in ((1, alpha), (2, beta)):
        xs = particular_x_sequence(p, j, 40001).values
        with mpmath.workdps(40):
            for k in (0, 1, 2, 3, 10, 100, 1000, 9999, 20000, 39999, 40000):
                exact = mpmath.gamma(k + mpmath.mpf(e) + 1) / mpmath.factorial(k)
                exact *= (-1) ** (k * (j - 1))
                assert abs(xs[k] / float(exact) - 1.0) <= 1e-10, (j, k)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            particular_x_sequence(p, j, 0)


@pytest.mark.parametrize("n", [0, -1])
def test_particular_solutions_refuse_an_empty_range(n):
    # an empty solution would pass for a valid one downstream
    for particular in (particular_x_sequence, particular_v):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            particular(P00, 1, n)


def test_log_w_scale():
    # w = sqrt(d) v and v = f x
    p = JacobiWeightParams(0.3, 1.7)
    g_v, g_x = log_w_scale(p, 50, "v"), log_w_scale(p, 50, "x")
    assert np.array_equal(g_v, 0.5 * log_norm_sequence(p, 50)[:50])
    assert np.array_equal(g_x, g_v + log_scale_factors(p, 50))
    with pytest.raises(ValueError):
        log_w_scale(p, 50, "w")


def test_particular_v_values():
    v1 = particular_v(P00, 1, 3).values
    assert v1 == pytest.approx([1.0, 3.0, 7.5], rel=1e-13)
    v2 = particular_v(P00, 2, 3).values
    assert v2 == pytest.approx([1.0, -3.0, 7.5], rel=1e-13)
    assert particular_v(P10, 1, 1).values[0] == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(ValueError):
        particular_v(P00, 3, 4)
    with pytest.raises(OverflowError):
        particular_v(P00, 1, 1200)
    # x^(1) itself leaves double range before k = 900; v_0 is already past 1e290
    with pytest.raises(OverflowError, match="component 0 overflows"):
        particular_v(JacobiWeightParams(160.0, 3.0), 1, 900)


def test_particular_x_values():
    assert particular_x_sequence(P00, 1, 6).values[5] == pytest.approx(1.0, rel=1e-14)
    x2 = particular_x_sequence(P00, 2, 6).values
    assert x2 == pytest.approx([(-1.0) ** k for k in range(6)], rel=1e-14)
    assert particular_x_sequence(P10, 1, 4).values[3] == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(ValueError):
        particular_x_sequence(P00, 3, 4)
    with pytest.raises(OverflowError, match="x\\^\\(1\\) overflows before k = 900"):
        particular_x_sequence(JacobiWeightParams(160.0, 3.0), 1, 900)


def test_sign_patterns():
    sol1 = particular_v(JacobiWeightParams(0.7, 1.9), 1, 12)
    assert np.all(sol1.values > 0)
    sol2 = particular_v(JacobiWeightParams(0.7, 1.9), 2, 12)
    signs = np.sign(sol2.values)
    assert np.array_equal(signs, (-1.0) ** np.arange(12))


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5)])
def test_homogeneous_annihilation(alpha, beta):
    # branch 1 kills the rows of C1; the companion alternating sequence
    # h_k = (2k+a+b+2)!/((-2)^k k!(k+a+1)!) kills the rows of C2
    p = JacobiWeightParams(alpha, beta)
    n = 18
    v = particular_v(p, 1, n).values
    c1 = -raising_coefficient(p, np.arange(1, n))
    for i in range(n - 1):
        assert abs(v[i] + c1[i] * v[i + 1]) < 1e-12 * abs(v[i])
    s = alpha + beta
    h = np.empty(n)
    h[0] = math.exp(math.lgamma(s + 3.0) - math.lgamma(alpha + 2.0))
    for k in range(n - 1):
        h[k + 1] = -h[k] * (2 * k + s + 3.0) * (2 * k + s + 4.0) / (
            2.0 * (k + 1) * (k + alpha + 2.0)
        )
    c2 = _c2_entries(p, n)
    for i in range(n - 1):
        assert abs(h[i] + c2[i] * h[i + 1]) < 1e-12 * abs(h[i])


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize(
    "alpha,beta", [(0.0, 0.0), (-0.95, -0.95), (0.3, 1.7), (49.5, 0.0)]
)
def test_particular_v_matches_mpmath(alpha, beta, j):
    # v_k = f_k x_k = (-1)^{k(j-1)} Gamma(2k+s+2) / (2^k k! Gamma(k+c+1)) at
    # 40 digits, c = beta for branch 1 and alpha for branch 2; past 1e290
    # particular_v raises, naming the first such k.  exp of ln f_k carries
    # about |ln f_k| units of rounding: 1.5e-13 at (49.5, 0), k = 400.
    p = JacobiWeightParams(alpha, beta)
    lg = mpmath.loggamma
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        c = b if j == 1 else a
        exact = [
            (-1) ** (k * (j - 1))
            * mpmath.exp(lg(2 * k + a + b + 2) - k * mpmath.log(2) - lg(k + 1) - lg(k + c + 1))
            for k in range(801)
        ]
        past = [k for k, v in enumerate(exact) if abs(v) >= 1e290]
    n = past[0] if past else 801
    if past:
        with pytest.raises(OverflowError, match=f"component {n} overflows"):
            particular_v(p, j, 801)
    v = particular_v(p, j, n).values
    for k in (0, 1, 2, 10, 100, 400, 800):
        if k < n:
            assert abs(v[k] / float(exact[k]) - 1.0) <= 4e-13, k


@pytest.mark.parametrize("n", [6, 20])
@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.0), (0.5, 2.5)])
def test_residual_support(alpha, beta, n):
    p = JacobiWeightParams(alpha, beta)
    sp = scaled_pencil(p, n)
    for j in (1, 2):
        ok, tail = residual_support(sp, particular_v(p, j, n))
        assert ok
        assert tail[0] != 0.0 or tail[1] != 0.0


def test_residual_support_negative_control():
    sp = scaled_pencil(P00, 20)
    rng = np.random.default_rng(9)
    fake = ParticularSolution(
        branch=1, exponent=0.0, variable="v", values=rng.standard_normal(20)
    )
    ok, _ = residual_support(sp, fake)
    assert not ok
    with pytest.raises(ValueError):
        residual_support(sp, ParticularSolution(1, 0.0, "v", np.ones(5)))
    # two rows are both tail rows: no support to check
    with pytest.raises(ValueError, match="n >= 3"):
        residual_support(scaled_pencil(P00, 2), particular_v(P00, 1, 2))


@pytest.mark.parametrize("n", [600, 40000])
@pytest.mark.parametrize(
    "alpha,beta", [(0.3, 1.7), (-0.9, 2.0), (-0.95, -0.95), (12.0, 6.5)]
)
def test_residual_support_past_the_raw_range(alpha, beta, n):
    # the raw norms d_k leave double range near k = 480; the check on H
    # holds at any n, and its tail rows stay finite and do not cancel
    p = JacobiWeightParams(alpha, beta)
    sp = scaled_pencil(p, n)
    for j in (1, 2):
        sol = particular_x_sequence(p, j, n)
        ok, tail = residual_support(sp, sol)
        assert ok
        assert all(0.1 < t < 1.0 for t in tail), tail
        if n == 600:
            perturbed = replace(sp, h2=sp.h2 * (1.0 + 1e-3))
            assert not residual_support(perturbed, sol)[0]
    if n == 600:
        fake = ParticularSolution(
            1, 0.0, "x", np.random.default_rng(3).standard_normal(n)
        )
        assert not residual_support(sp, fake)[0]


def test_y_bundle_constant_and_alternating():
    c = 1.7
    const = np.full(12, c)
    assert y_bundle(const, 5) == pytest.approx([2 * c, 0.0, 0.0, 0.0], abs=1e-14)
    alt = c * (-1.0) ** np.arange(12)
    for k in (4, 5):
        out = y_bundle(alt, k)
        assert out[0] == pytest.approx(0.0, abs=1e-14)
        assert abs(out[1]) == pytest.approx(2 * c, rel=1e-14)
        assert out[2] == pytest.approx(0.0, abs=1e-13)
        assert out[3] == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(IndexError):
        y_bundle(const, 1)
    with pytest.raises(IndexError):
        y_bundle(const, 11)


def test_y_bundle_array_k_matches_scalar_k():
    x = np.random.default_rng(4).standard_normal(20)
    ks = np.arange(2, 19)
    table = y_bundle(x, ks)
    assert table.shape == (4, len(ks))
    for i, k in enumerate(ks):
        assert table[:, i].tolist() == y_bundle(x, int(k)).tolist()
    with pytest.raises(IndexError, match="k = 1 "):
        y_bundle(x, np.array([5, 1, 19]))
    with pytest.raises(IndexError, match="k = 19 "):
        y_bundle(x, np.array([5, 19]))


def test_bundle_leading_vector_branch_one():
    # x from branch 1 behaves like k^alpha (2, 0, 4 alpha, 0)
    p = JacobiWeightParams(1.5, 0.5)
    xs = particular_x_sequence(p, 1, 260).values
    k = 200
    y = y_bundle(xs, k) / float(k) ** p.alpha
    assert y[0] == pytest.approx(2.0, abs=0.05)
    assert y[2] == pytest.approx(4.0 * p.alpha, abs=0.15)
    assert abs(y[1]) < 0.05
    assert abs(y[3]) < 0.15


@pytest.mark.parametrize("alpha,beta", [(1.5, 0.5), (2.5, 1.0), (0.5, 3.0)])
@pytest.mark.parametrize("j", [1, 2])
def test_matching_defect_decays_like_one_over_k(alpha, beta, j):
    p = JacobiWeightParams(alpha, beta)
    for k in (20, 40, 100):
        d1 = bundle_matching_defect(p, j, k)
        d2 = bundle_matching_defect(p, j, 2 * k)
        assert 1.6 <= d1 / d2 <= 2.4
    # absolute bound C/k on the window with C fitted at k = 20
    c = bundle_matching_defect(p, j, 20) * 20.0
    for k in (50, 100, 200):
        assert bundle_matching_defect(p, j, k) <= 1.2 * c / k


def test_matching_defect_exact_when_exponent_zero():
    # branch with b_j = 0 gives the limiting vector exactly
    assert bundle_matching_defect(P10, 2, 21) < 1e-13
    assert bundle_matching_defect(JacobiWeightParams(0.0, 1.0), 1, 20) < 1e-13
