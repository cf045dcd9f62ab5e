import re

import mpmath
import numpy as np
import pytest

from mblab import (
    JacobiWeightParams,
    norm_ratio,
    norm_sequence,
    raising_coefficient,
    scaled_pencil,
    sharp_constant,
    smallest_eigenpair,
    solve,
)
from mblab.jacobi import exponent_sum
from mblab.pencil import (
    _c2_entries,
    build_pencil,
    check_factors,
    g_bands,
    h_matvec,
    ht_matvec,
    symmetrized_bands,
)
from conftest import b_bands, dense_a, dense_d, dense_h

P00 = JacobiWeightParams(0.0, 0.0)
P11 = JacobiWeightParams(1.0, 1.0)
P10 = JacobiWeightParams(1.0, 0.0)


def c1_superdiagonal(p, n):
    """C1 = I + diag(c1) T (T the upper shift), c1_k = -raising coefficient."""
    return np.array([-raising_coefficient(p, k) for k in range(1, n)])


def c2_superdiagonal(p, n):
    """C2 = I + diag(c2) T: the raising coefficients of the weight with alpha
    raised by one and reflected by x -> -x, which swaps alpha and beta."""
    q = JacobiWeightParams(p.beta, p.alpha + 1.0)
    return np.array([raising_coefficient(q, k) for k in range(1, n)])


def unit_upper_bidiagonal(sup):
    return np.eye(len(sup) + 1) + np.diag(sup, 1)


def test_c2_entries():
    assert c2_superdiagonal(P00, 2) == pytest.approx([1.0 / 3.0], rel=1e-15)
    # 2k(k+alpha+1)/((2k+a+b+1)(2k+a+b+2)) at k=1, (alpha,beta)=(1,0)
    assert c2_superdiagonal(P10, 2) == pytest.approx([6.0 / 20.0], rel=1e-15)
    assert c2_superdiagonal(P10, 1).size == 0


def test_pencil_one_by_one():
    pen = build_pencil(P00, 1)
    assert pen.diag == pytest.approx([1.0 / 3.0], rel=1e-14)
    assert pen.d == pytest.approx([1.0], rel=1e-14)
    pen = build_pencil(P11, 1)
    assert pen.diag == pytest.approx([1.0 / 30.0], rel=1e-13)
    assert pen.d == pytest.approx([1.0 / 6.0], rel=1e-14)
    with pytest.raises(ValueError, match="n must be >= 1"):
        scaled_pencil(P00, 0)


def test_pencil_two_by_two_legendre():
    # the two bidiagonal superdiagonals cancel, so A is diagonal
    pen = build_pencil(P00, 2)
    assert pen.super1 == pytest.approx([0.0], abs=1e-16)
    assert pen.diag == pytest.approx([1.0 / 3.0, 1.0 / 45.0], rel=1e-13)
    assert pen.d == pytest.approx([1.0, 1.0 / 3.0], rel=1e-14)


def test_apply_operator():
    # B = H^T H applied through the band products of H
    def apply_b(sp, w):
        return ht_matvec(sp.h0, sp.h1, sp.h2, h_matvec(sp.h0, sp.h1, sp.h2, w))

    sp = scaled_pencil(P00, 2)  # B = diag(1/3, 1/15) for Legendre
    assert apply_b(sp, np.array([1.0, 0.0])) == pytest.approx([1.0 / 3.0, 0.0], abs=1e-15)
    assert apply_b(sp, np.array([0.0, 1.0])) == pytest.approx([0.0, 1.0 / 15.0], abs=1e-15)
    sp1 = scaled_pencil(P00, 1)
    lam = sp1.h0[0] ** 2
    assert apply_b(sp1, np.array([1.0])) - lam == pytest.approx([0.0], abs=1e-16)
    assert apply_b(sp, np.zeros(2)) == pytest.approx([0.0, 0.0], abs=0)
    with pytest.raises(ValueError):
        h_matvec(sp.h0, sp.h1, sp.h2, np.zeros(3))


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_band_matvec_matches_dense(n):
    sp = scaled_pencil(JacobiWeightParams(1.0, 0.5), n)
    h = dense_h(sp)
    rng = np.random.default_rng(n)
    w = rng.standard_normal(n)
    for got, want in (
        (h_matvec(sp.h0, sp.h1, sp.h2, w), h @ w),
        (ht_matvec(sp.h0, sp.h1, sp.h2, w), h.T @ w),
    ):
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * np.max(np.abs(want)))
    block = rng.standard_normal((3, n))
    assert h_matvec(sp.h0, sp.h1, sp.h2, block) == pytest.approx(
        block @ h.T, rel=1e-13, abs=1e-13 * np.max(np.abs(block @ h.T))
    )


@pytest.mark.parametrize("alpha,beta,n", [(0.0, 0.0, 12), (1.0, 0.5, 9), (2.5, -0.5, 15)])
def test_bandwidth_and_factored_consistency(alpha, beta, n):
    p = JacobiWeightParams(alpha, beta)
    pen = build_pencil(p, n)
    # independent dense assembly
    c1 = unit_upper_bidiagonal(c1_superdiagonal(p, n))
    c2 = unit_upper_bidiagonal(c2_superdiagonal(p, n))
    g = np.diag(1.0 / np.arange(1, n + 1)) @ c2 @ c1
    prod = c2 @ c1
    for i in range(n):
        for j in range(n):
            if j - i > 2 or j < i:
                assert prod[i, j] == 0.0
    a_dense = g.T @ np.diag(norm_sequence(p, n)[1:]) @ g
    mine = dense_a(pen)
    scale = np.max(np.abs(a_dense))
    assert np.max(np.abs(mine - a_dense)) < 1e-14 * scale
    # pentadiagonal, symmetric
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 2:
                assert mine[i, j] == 0.0
    assert np.array_equal(mine, mine.T)


@pytest.mark.parametrize("alpha,beta,n", [(0.0, 0.0, 20), (-0.5, 1.5, 25), (2.5, 2.5, 16)])
def test_positive_definite_pivots(alpha, beta, n):
    pen = build_pencil(JacobiWeightParams(alpha, beta), n)
    chol = np.linalg.cholesky(dense_a(pen))  # raises unless positive definite
    assert np.all(np.diag(chol) > 0)


def test_rayleigh_quotient_bounded_by_sharp_constant():
    p = JacobiWeightParams(0.4, 1.3)
    n = 25
    pen = build_pencil(p, n)
    a, d = dense_a(pen), dense_d(pen)
    m2 = sharp_constant(p, n).m_n ** 2
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(n)
        quotient = float(v @ d @ v) / float(v @ a @ v)
        assert quotient <= m2 + 1e-9


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (-0.5, 2.0)])
def test_scaled_pencil_matches_congruence(alpha, beta):
    p = JacobiWeightParams(alpha, beta)
    n = 40
    sp = scaled_pencil(p, n)
    sb0, sb1, sb2 = b_bands(sp)
    b0, b1, b2 = symmetrized_bands(build_pencil(p, n))
    assert sb0 == pytest.approx(b0, rel=1e-12, abs=1e-15)
    assert sb1 == pytest.approx(b1, rel=1e-12, abs=1e-15)
    assert sb2 == pytest.approx(b2, rel=1e-12, abs=1e-15)
    # B = H^T H as dense matrices
    h = dense_h(sp)
    b = h.T @ h
    dense = np.diag(sb0)
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = sb1[i]
    for i in range(n - 2):
        dense[i, i + 2] = dense[i + 2, i] = sb2[i]
    assert np.max(np.abs(b - dense)) < 1e-14 * np.max(np.abs(b))


def test_scaled_pencil_large_n_no_overflow():
    # raw norms underflow long before n = 2000; the scaled form must not
    b0 = b_bands(scaled_pencil(P00, 2000))[0]
    assert np.all(np.isfinite(b0))
    assert np.all(b0 > 0)


@pytest.mark.parametrize("alpha,beta", [(1e200, 0.5), (0.5, 1e200), (1e103, 1e103)])
@pytest.mark.parametrize("n", [1, 2, 10])
def test_scaled_pencil_refuses_bands_past_double_range(recwarn, alpha, beta, n):
    # 2k + alpha + beta cubed overflows, so the norm ratios come out 0 or
    # NaN: refused with the exponents named, and without warnings
    named = re.escape(f"alpha = {alpha!r}, beta = {beta!r}, n = {n}")
    with pytest.raises(OverflowError, match=named):
        scaled_pencil(JacobiWeightParams(alpha, beta), n)
    with pytest.raises(OverflowError):
        solve(JacobiWeightParams(alpha, beta), n)
    assert not recwarn.list


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.0, 0.0), (0.3, 1.7), (-0.95, -0.95), (-0.5, 0.5), (12.0, 6.5), (300.0, 0.0), (1000.0, 1000.0)],
)
@pytest.mark.parametrize("n", [3, 4000])
def test_factors_reproduce_the_bands(alpha, beta, n):
    # H = K2 K1: every entry of the product is within 4 units of rounding
    # (eps times the magnitude of its terms) of the closed-form band
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    bound = 4 * np.finfo(float).eps
    first, second = sp.k2_0[:-1] * sp.k1_1, sp.k2_1 * sp.k1_0[1:]
    prod0, prod2 = sp.k2_0 * sp.k1_0, sp.k2_1[:-1] * sp.k1_1[1:]
    assert np.all(np.abs(sp.h0 - prod0) <= bound * np.abs(prod0))
    assert np.all(np.abs(sp.h1 - (first + second)) <= bound * (np.abs(first) + np.abs(second)))
    assert np.all(np.abs(sp.h2 - prod2) <= bound * np.abs(prod2))
    if alpha == beta:
        # the parity split needs the closed form's exact zero
        assert np.all(sp.h1 == 0.0)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (-0.5, 2.0)])
def test_factors_match_their_definition(alpha, beta):
    # K1 = D+^1/2 C1 D^-1/2 and K2 = D+^1/2 N^-1 C2 D+^-1/2 as dense matrices
    p = JacobiWeightParams(alpha, beta)
    n = 12
    sp = scaled_pencil(p, n)
    d = norm_sequence(p, n)
    c1 = unit_upper_bidiagonal(c1_superdiagonal(p, n))
    c2 = unit_upper_bidiagonal(c2_superdiagonal(p, n))
    k1 = np.diag(np.sqrt(d[1:])) @ c1 @ np.diag(d[:-1] ** -0.5)
    k2 = np.diag(np.sqrt(d[1:]) / np.arange(1, n + 1)) @ c2 @ np.diag(d[1:] ** -0.5)
    for dense, diag, sup in ((k1, sp.k1_0, sp.k1_1), (k2, sp.k2_0, sp.k2_1)):
        assert np.allclose(dense, np.diag(diag) + np.diag(sup, 1), rtol=1e-13, atol=0.0)
    assert np.allclose(k2 @ k1, dense_h(sp), rtol=1e-13, atol=1e-16)


# Both exponents near -1 and unequal, so alpha + beta is rounded.
NEAR_MINUS_ONE = [
    (-0.9998911284669925, -0.9998911453236693, 4074),
    (-0.9999994934650505, -0.9999994908776558, 25),
    (-0.9999911065227076, -0.9999911061881602, 10),
]


@pytest.mark.parametrize("alpha,beta,n", NEAR_MINUS_ONE)
def test_closed_forms_keep_the_rounding_of_alpha_plus_beta(alpha, beta, n):
    # 2k + alpha + beta is 2e-4 to 1e-6 at k = 1, where the rounding of
    # alpha + beta alone is up to 1e-10 of it; 40-digit mpmath
    p = JacobiWeightParams(alpha, beta)
    got = (scaled_pencil(p, 4).k1_1, _c2_entries(p, 4), g_bands(p, 4)[1])
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        for k in (1, 2, 3):
            t = 2 * k + a + b
            want = (
                -2 * k * (k + b) / (t * (t + 1)),
                2 * k * (k + a + 1) / ((t + 1) * (t + 2)),
                2 * (a - b) / (t * (t + 2)),
            )
            for band, exact in zip(got, want):
                assert abs(band[k - 1] / float(exact) - 1.0) <= 1e-14, k


@pytest.mark.parametrize("n", [1, 2, 3, 50, 4000])
@pytest.mark.parametrize(
    "alpha,beta",
    [(0.3, 1.7), (300.0, 0.0), (12.0, 12.0), (-0.9999996372309563, -0.9999996582336216)],
)
def test_scaled_pencil_equals_its_closed_forms_evaluated_apart(alpha, beta, n):
    # scaled_pencil evaluates each closed form once and shares it between
    # the bands and the factors; every entry must equal what the closed
    # forms give when each is evaluated on its own, bit for bit.
    p = JacobiWeightParams(alpha, beta)
    k = np.arange(1.0, n)  # float indices: the checked path of the closed forms
    sr = np.sqrt(norm_ratio(p, np.arange(float(n))))
    raising = raising_coefficient(p, k)
    c2 = _c2_entries(p, n)
    s, lo = exponent_sum(p)
    t = 2 * k + s
    g0 = 1.0 / np.arange(1.0, n + 1)
    g1 = 2.0 * (alpha - beta) / ((t + lo) * ((t + 2) + lo))
    g2 = c2[:-1] * -raising[1:] / k[:-1]
    want = {
        "h0": sr * g0, "h1": g1, "h2": g2 / sr[1 : n - 1],
        "k1_0": sr, "k1_1": -raising, "k2_0": g0, "k2_1": c2 / (k * sr[1:]),
    }
    sp = scaled_pencil(p, n)
    for band, values in want.items():
        assert getattr(sp, band).tobytes() == values.tobytes(), band
    for got, values in zip(g_bands(p, n), (g0, g1, g2)):
        assert got.tobytes() == values.tobytes()


@pytest.mark.parametrize("alpha,beta,n", NEAR_MINUS_ONE)
def test_near_minus_one_pencil_passes_check_factors(alpha, beta, n):
    # the closed-form h1 agrees with K2 K1, so the pencil solves as given
    p = JacobiWeightParams(alpha, beta)
    sp = scaled_pencil(p, n)
    check_factors(sp)
    assert smallest_eigenpair(sp).lambda_min == solve(p, n).lambda_min
