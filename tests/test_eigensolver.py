import dataclasses
import json
import math
import time
import tracemalloc
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg

from mblab import (
    AccuracyWindowError,
    ConvergenceError,
    JacobiWeightParams,
    convergence_study,
    extremal_polynomial,
    monic_eval_table,
    norm_sequence,
    profile_compare,
    scaled_pencil,
    sharp_constant,
    smallest_eigenpair,
    solve,
)
from mblab import eigensolver
from mblab.eigensolver import _Scans, _block_size, _rayleigh_bound, _scan_setup
from mblab.pencil import build_pencil, h_matvec, ht_matvec, perturb_factor
from conftest import (
    UNEQUAL_NEAR_MINUS_ONE,
    b_bands,
    dense_a,
    dense_d,
    dense_h,
    mp_lambda_min,
    rayleigh_supremum,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

P00 = JacobiWeightParams(0.0, 0.0)
P11 = JacobiWeightParams(1.0, 1.0)


def _all_of_h(sp, tol=1e-12):
    """The iteration on all of H for the ScaledPencil sp, with the block
    size of its weight: what _solve_core runs where the bracket is not
    taken or gives up."""
    factors = iter([sp.k1_0, sp.k1_1]), iter([sp.k2_0, sp.k2_1])
    return eigensolver._iterate((sp.h0, sp.h1, sp.h2), factors, _block_size(sp.params), tol)


def test_smallest_eigenvalue_closed_forms():
    assert smallest_eigenpair(scaled_pencil(P00, 1)).lambda_min == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )
    assert smallest_eigenpair(scaled_pencil(P00, 2)).lambda_min == pytest.approx(
        1.0 / 15.0, rel=1e-12
    )
    assert smallest_eigenpair(scaled_pencil(P11, 1)).lambda_min == pytest.approx(
        1.0 / 5.0, rel=1e-12
    )


def test_sharp_constants_small_n():
    assert sharp_constant(P00, 1).m_n == pytest.approx(math.sqrt(3.0), rel=1e-10)
    assert sharp_constant(P00, 2).m_n == pytest.approx(math.sqrt(15.0), rel=1e-10)
    assert sharp_constant(P11, 1).m_n == pytest.approx(math.sqrt(5.0), rel=1e-10)


def test_report_fields():
    r = sharp_constant(P00, 10)
    assert r.n == 10 and r.alpha == 0.0 and r.beta == 0.0
    assert r.m_n**2 * r.lambda_min == pytest.approx(1.0, rel=1e-12)
    assert r.predicted == pytest.approx(100.0 / math.pi, rel=1e-12)
    assert r.ratio == pytest.approx(r.m_n / r.predicted, rel=1e-14)
    assert r.residual <= 1e-12


def test_monotone_in_degree():
    for p in (P00, JacobiWeightParams(1.0, 0.5)):
        values = [sharp_constant(p, n).m_n for n in range(1, 13)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("alpha,beta", [(-0.5, 0.5), (0.0, 2.5), (1.0, 1.0)])
def test_dense_oracle_small_n(alpha, beta):
    p = JacobiWeightParams(alpha, beta)
    for n in range(1, 9):
        pen = build_pencil(p, n)
        dense = scipy.linalg.eigh(dense_a(pen), dense_d(pen), eigvals_only=True)[0]
        mine = smallest_eigenpair(scaled_pencil(p, n)).lambda_min
        assert mine == pytest.approx(dense, rel=1e-10)


def test_solution_certificate():
    p = JacobiWeightParams(0.5, 1.5)
    pen = build_pencil(p, 30)
    sp = scaled_pencil(p, 30)
    res = smallest_eigenpair(sp, tol=1e-12)
    assert res.residual <= 1e-12
    # a simple smallest eigenvalue: the second lies above the bracket
    sigma = np.linalg.svd(dense_h(sp), compute_uv=False)
    assert sigma[-2] ** 2 > res.lambda_min * (1 + 1e-12)
    _, v, _ = extremal_polynomial(p, 30, tol=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    # raw-space residual is meaningful at this size
    va = dense_a(pen) @ v
    vd = dense_d(pen) @ v
    raw = np.linalg.norm(va - res.lambda_min * vd) / np.linalg.norm(vd)
    assert raw < 1e-9


def test_inertia_brackets_the_eigenvalue():
    # the certified bracket lambda (1 -+ tol) must hold the true eigenvalue
    res = smallest_eigenpair(scaled_pencil(JacobiWeightParams(1.0, 0.0), 20), tol=1e-12)
    exact = mp_lambda_min(1, 0, 20)
    lam = res.lambda_min
    assert lam * (1 - 1e-12) < exact <= lam * (1 + 1e-12)


EDGE = -0.9999999999999998


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 120])
@pytest.mark.parametrize(
    "alpha,beta",
    [(EDGE, EDGE), (EDGE, 49.5), (49.5, 49.5), (12.0, 12.0), (0.0, 0.0), (-0.95, 11.5), (0.3, 1.7)],
)
def test_inertia_count_matches_dense_svd(alpha, beta, n):
    # Between two singular values of H that a dense SVD separates by well
    # over its eps ||H|| accuracy, the count must equal the dense count.
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    # np.diag of an empty band is not n x n for n < 3: cut it back
    h = np.diag(sp.h0) + np.diag(sp.h1, 1)[:n, :n] + np.diag(sp.h2, 2)[:n, :n]
    sigma = np.sort(np.linalg.svd(h, compute_uv=False))
    margin = 1e3 * np.finfo(float).eps * sigma[-1]
    checked = 0
    for below, (lo, hi) in enumerate(zip([0.0, *sigma], [*sigma, 4.0 * sigma[-1]])):
        tau = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        if tau - lo > margin and hi - tau > margin:
            assert eigensolver._count_below((sp.h0, sp.h1, sp.h2), tau) == below, (below, tau)
            checked += 1
    # the bracket above the spectrum always counts, and most gaps do
    assert checked >= max(1, n // 2)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 120])
@pytest.mark.parametrize(
    "alpha,beta",
    [(EDGE, EDGE), (EDGE, 49.5), (49.5, 49.5), (12.0, 12.0), (0.0, 0.0), (-0.95, 11.5), (0.3, 1.7)],
)
def test_inertia_count_reads_strided_read_only_bands(alpha, beta, n):
    # The count reads the bands in place: every other entry of a
    # read-only buffer counts as a contiguous copy does, at every shift.
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    copies, views = {}, {}
    for name in ("h0", "h1", "h2"):
        band = getattr(sp, name)
        copies[name] = np.ascontiguousarray(band)
        views[name] = np.repeat(band, 2)[::2]
        views[name].flags.writeable = False
    contiguous, strided = dataclasses.replace(sp, **copies), dataclasses.replace(sp, **views)
    assert n < 2 or not strided.h0.flags.c_contiguous
    h = np.diag(sp.h0) + np.diag(sp.h1, 1)[:n, :n] + np.diag(sp.h2, 2)[:n, :n]
    sigma = np.sort(np.linalg.svd(h, compute_uv=False))
    for lo, hi in zip([0.0, *sigma], [*sigma, 4.0 * sigma[-1]]):
        tau = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        assert eigensolver._count_below((strided.h0, strided.h1, strided.h2), tau) == eigensolver._count_below(
            (contiguous.h0, contiguous.h1, contiguous.h2), tau)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        sharp_constant(P00, 5, tol=1e-15)
    with pytest.raises(ValueError):
        sharp_constant(P00, 5, tol=1e-3)
    with pytest.raises(ValueError):
        sharp_constant(P00, 0)
    with pytest.raises(TypeError):
        smallest_eigenpair(np.eye(3))
    with pytest.raises(TypeError):
        smallest_eigenpair(build_pencil(P00, 3))


def test_matches_brute_force_rayleigh_supremum():
    # independent oracle: exact monomial moments + dense eigensolve
    for (a, b, n) in [(0, 0, 1), (0, 0, 2), (1, 1, 1), (1, 1, 4), (0, 1, 3)]:
        want = rayleigh_supremum(a, b, n)
        got = sharp_constant(JacobiWeightParams(float(a), float(b)), n).m_n
        assert got == pytest.approx(want, rel=1e-10)


def test_extremal_polynomial_degree_one():
    u, v, m_n = extremal_polynomial(P00, 1)
    assert u == pytest.approx([1.0], rel=1e-12)
    assert v == pytest.approx([1.0], rel=1e-12)
    assert m_n == pytest.approx(math.sqrt(3.0), rel=1e-10)


def test_extremal_polynomial_degree_two():
    # v ~ e_1, u ~ e_1 / 2: Q is proportional to x^2 - 1/3 and Q' to x
    u, v, m_n = extremal_polynomial(P00, 2)
    assert abs(v[0]) < 1e-10
    assert v[1] == pytest.approx(1.0, rel=1e-12)
    assert u[1] / v[1] == pytest.approx(0.5, rel=1e-12)
    xs = np.linspace(-1, 1, 9)
    q = u @ monic_eval_table(P00, 2, xs)[1:]
    assert q == pytest.approx(0.5 * (xs**2 - 1.0 / 3.0), abs=1e-12)
    assert m_n == pytest.approx(math.sqrt(15.0), rel=1e-10)


@pytest.mark.parametrize("alpha,beta,n", [(0.0, 0.0, 12), (1.0, 0.5, 20), (2.5, -0.5, 35)])
def test_extremal_coefficient_identity(alpha, beta, n):
    p = JacobiWeightParams(alpha, beta)
    u, v, m_n = extremal_polynomial(p, n)
    d = norm_sequence(p, n)
    lhs = float(v**2 @ d[:n]) / float(u**2 @ d[1:])
    assert lhs == pytest.approx(m_n**2, rel=1e-9)


def test_large_n_runs_without_raw_norms():
    # raw pencil underflows near n ~ 480; the scaled route must not
    r = sharp_constant(P00, 700)
    assert 0.99 < r.ratio < 1.01


def test_edge_parameters_still_solve():
    r = sharp_constant(JacobiWeightParams(-0.99, -0.99), 200)
    assert r.residual <= 1e-12 and r.lambda_min > 0
    r = sharp_constant(JacobiWeightParams(49.5, 20.0), 50)
    assert r.residual <= 1e-12 and r.m_n > 0


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5)])
@pytest.mark.parametrize("n", [50, 150, 400])
def test_banded_lapack_oracle_moderate_n(alpha, beta, n):
    # independent banded route; LAPACK's absolute eps*||B|| floor lands
    # around 1e-9 relative on these tiny eigenvalues, whereas the solve
    # on the factor H keeps relative accuracy, so 1e-9 is the fair bar
    p = JacobiWeightParams(alpha, beta)
    band = np.zeros((3, n))
    b0, b1, b2 = b_bands(scaled_pencil(p, n))
    band[0] = b0
    band[1, : n - 1] = b1
    band[2, : n - 2] = b2
    ref = scipy.linalg.eig_banded(
        band, lower=True, eigvals_only=True, select="i", select_range=(0, 0)
    )[0]
    mine = sharp_constant(p, n).lambda_min
    assert mine == pytest.approx(ref, rel=1e-9)


def test_even_odd_decoupling_at_equal_exponents():
    # for alpha = beta the pencil splits into even/odd blocks, so the
    # extremal eigenvector lives on a single parity class
    for p, n in [(P11, 41), (JacobiWeightParams(-0.95, -0.95), 4000)]:
        w = smallest_eigenpair(scaled_pencil(p, n)).w
        even = np.linalg.norm(w[::2])
        odd = np.linalg.norm(w[1::2])
        assert min(even, odd) < 1e-10 * max(even, odd)


def test_extremal_derivative_linkage():
    # d/dx sum u_k P_{k+1} equals sum v_k P_k pointwise
    p = JacobiWeightParams(0.5, 1.5)
    n = 15
    u, v, _ = extremal_polynomial(p, n)
    xs = np.linspace(-0.8, 0.8, 7)
    h = 1e-6
    upper = u @ monic_eval_table(p, n, xs + h)[1:]
    lower = u @ monic_eval_table(p, n, xs - h)[1:]
    dq = (upper - lower) / (2 * h)
    qprime = v @ monic_eval_table(p, n, xs)[:n]
    assert np.max(np.abs(dq - qprime)) < 1e-7


def test_perturbed_bands_are_honored():
    # the solver must consume the stored bands, not rebuild from params;
    # scaling K1's diagonal scales h0 by exactly 1 + 1e-3
    sp = scaled_pencil(JacobiWeightParams(0.5, 1.5), 12)
    res = smallest_eigenpair(sp)
    perturbed = perturb_factor(sp, "k1_0", 1e-3)
    assert np.allclose(perturbed.h0, sp.h0 * (1.0 + 1e-3), rtol=1e-15, atol=0.0)
    res2 = smallest_eigenpair(perturbed)
    assert abs(res2.lambda_min - res.lambda_min) / res.lambda_min > 1e-4


def test_bands_that_disagree_with_the_factors_are_refused():
    # H is inverted through K2 K1, so bands changed without their factors
    # would be solved with the inverse of another matrix
    sp = scaled_pencil(JacobiWeightParams(0.5, 1.5), 12)
    with pytest.raises(ValueError, match="factors"):
        smallest_eigenpair(dataclasses.replace(sp, h0=sp.h0 * (1.0 + 1e-3)))
    with pytest.raises(ValueError, match="factors"):
        smallest_eigenpair(dataclasses.replace(sp, h1=sp.h1 + 1e-12 * sp.h0[:-1]))
    with pytest.raises(ValueError, match="factors"):
        smallest_eigenpair(dataclasses.replace(sp, k2_0=np.zeros(12)))
    with pytest.raises(ValueError, match="factor band"):
        perturb_factor(sp, "h2", 1e-3)


# At alpha = 131.5 the scan of K1^T restarts its running product at row
# 405 (ln|P| passes 300 there): n = 404, 405 and 406 lie on both sides.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 400, 404, 405, 406])
@pytest.mark.parametrize("q", [1, 2])
def test_scans_match_dense(n, q):
    far = JacobiWeightParams(131.5, 0.0)
    sp = scaled_pencil(far, 406)
    assert [b[0] for b in _scan_setup(sp.k1_0, sp.k1_1)[2]] == [0, 405]
    for p in (JacobiWeightParams(0.3, 1.7), JacobiWeightParams(-0.95, -0.95), far):
        sp = scaled_pencil(p, n)
        h = dense_h(sp)
        r = np.random.default_rng(n).standard_normal((q, n))
        # H^T y = r by K1^T then K2^T; H z = r by the transpose of those
        scans = _Scans((sp.k1_0, sp.k1_1), (sp.k2_0, sp.k2_1))
        y, z = scans.solve(r), scans.solve(r, transposed=True)
        for got, mat in ((y, h.T), (z, h)):
            want = scipy.linalg.solve_triangular(mat, r.T, lower=mat is not h).T
            assert got.shape == (q, n) and got.flags.c_contiguous
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


# At n = 800, (1000, 0) and (0, 1000) restart P in 5 scan blocks of one
# factor, (600, 3) and (3, 600) in 4; at n = 300, in 3 and 2.
BLOCKED = [(1000.0, 0.0), (0.0, 1000.0), (600.0, 3.0), (3.0, 600.0)]


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.7), (-0.95, -0.95), *BLOCKED])
@pytest.mark.parametrize("n", [1, 2, 300, 800])
def test_the_transposed_scans_are_the_adjoint(alpha, beta, n):
    # <F x, y> = <x, F^T y> for the scans of K1^T, K2^T and for those of
    # one parity half, as the bracket runs them, up to rounding: relative
    # to the sum of |(F x)_i y_i|, the two lay up to 25 units apart over
    # 200 seeds, while the sums themselves cancel by up to 260 times
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    rng = np.random.default_rng(n)
    for factors in (((sp.k1_0, sp.k1_1), (sp.k2_0, sp.k2_1)), ((sp.h0[::2], sp.h2[::2]),)):
        scans = _Scans(*factors)
        x, y = rng.standard_normal((2, len(factors[0][0])))
        fx = scans.solve(x)
        assert abs(fx @ y - x @ scans.solve(y, transposed=True)) <= 64 * 2.0**-53 * (abs(fx) @ abs(y))


@pytest.mark.parametrize("alpha,beta", BLOCKED)
@pytest.mark.parametrize("n", [300, 800])
def test_b_inverse_matches_dense_solves_across_scan_blocks(alpha, beta, n):
    # The transposed scans carry each block's link back from the next
    # block's first entry
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    factors = (sp.k1_0, sp.k1_1), (sp.k2_0, sp.k2_1)
    assert max(len(_scan_setup(d, e)[2]) for d, e in factors) > 1
    h = dense_h(sp)
    q = np.random.default_rng(n).standard_normal((2, n))
    want = scipy.linalg.solve_triangular(h, scipy.linalg.solve_triangular(h, q.T, trans="T")).T
    got = _Scans(*factors)(q)
    assert np.linalg.norm(got - want) <= 5e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("alpha,beta,n,blocks", [(0.3, 1.7, 400, 1), (300.0, 0.0, 100000, 7)])
def test_b_inverse_into_a_callers_array_keeps_the_bytes(alpha, beta, n, blocks):
    # With `out` the forward scans write into it and the transposed ones
    # run there in place; at (300, 0) the first scan restarts in 7 blocks,
    # so its links run on the in-place path as well
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    factors = (sp.k1_0, sp.k1_1), (sp.k2_0, sp.k2_1)
    assert len(_scan_setup(*factors[0])[2]) == blocks
    scans = _Scans(*factors)
    q = np.random.default_rng(n).standard_normal((2, n))
    fresh = np.empty_like(q)
    assert scans(q, out=fresh) is fresh
    assert fresh.tobytes() == scans(q).tobytes()
    buffer = np.full((6, n), np.nan)
    scans(q[1], out=buffer[3])  # one row of a larger buffer
    assert buffer[3].tobytes() == scans(q[1]).tobytes()
    scans(q, out=buffer[:2])  # m = 2 rows
    assert buffer[:2].tobytes() == scans(q).tobytes()
    assert np.isnan(buffer[[2, 4, 5]]).all()  # no other row is written
    assert q.tobytes() == np.random.default_rng(n).standard_normal((2, n)).tobytes()


@pytest.mark.parametrize(
    "alpha, beta, n, lam",
    [
        # lambda from the partitioned triangular solves on the bands of H
        # that the scans replaced; an unblocked scan underflows here
        (300.0, 0.0, 2000, 4.655865987227533e-13),
        (0.0, 300.0, 5000, 1.4043498598597071e-14),
        (1000.0, 1000.0, 1000, 8.787920830750817e-08),
    ],
)
def test_far_weights_solve_through_blocked_scans(alpha, beta, n, lam):
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    setups = [_scan_setup(d, e) for d, e in ((sp.k1_0, sp.k1_1), (sp.k2_0, sp.k2_1))]
    assert max(len(blocks) for _, _, blocks in setups) > 1
    got = solve(JacobiWeightParams(alpha, beta), n).lambda_min
    assert abs(got - lam) <= 1e-12 * lam


def test_lambda_matches_50_digit_reference():
    # 50-digit values from an mpmath solve that shares no code with mblab.
    # Past n = 4000 the rounding of H itself moves lambda by more than
    # 1e-12 (measured worst 1.73e-12 at n = 4e4).
    cases = json.loads(REFERENCE.read_text())["lambda"]
    checked = {"small": 0, "large": 0}
    for key, value in cases.items():
        alpha, beta, n = key.split(",")
        size = "small" if int(n) <= 4000 else "large"
        lam = sharp_constant(JacobiWeightParams(float(alpha), float(beta)), int(n)).lambda_min
        rel = 1e-12 if size == "small" else 2.5e-12
        assert lam == pytest.approx(float(value), rel=rel), key
        checked[size] += 1
    assert checked == {"small": 58, "large": 27}


def test_reference_solves_take_their_step_count():
    # Any change to the arithmetic of the iteration or of the bracket moves
    # this total: 953 steps over the 85 cases at the last change to it, the
    # warm start of the bracket's other half (1017 from a start of ones).
    cases = json.loads(REFERENCE.read_text())["lambda"]
    steps = 0
    for key in cases:
        alpha, beta, n = key.split(",")
        steps += solve(JacobiWeightParams(float(alpha), float(beta)), int(n)).iterations
    assert (len(cases), steps) == (85, 953)


@pytest.mark.parametrize("alpha,beta,n,lam", UNEQUAL_NEAR_MINUS_ONE)
def test_lambda_near_minus_one_with_unequal_exponents(alpha, beta, n, lam):
    # the norm ratio at k = 0 rounded alpha + beta away, and the certified
    # lambda of that float H lay 3.4e-11 to 1.4e-10 from the oracle
    assert abs(solve(JacobiWeightParams(alpha, beta), n).lambda_min / lam - 1.0) <= 1e-14


@pytest.mark.parametrize(
    "alpha,beta,n,lam",
    [
        # 80-digit perfbench/oracle.py values; each of these settled on a
        # lambda the certificate refused, and the solve raised
        (-0.9999999999998386, -0.9999999999998387, 13, 3.940679976081554e-17),
        (-0.9999999999142298, -0.9999999999142579, 34, 4.852791428256683e-16),
        (-0.999999998227946, -0.9999999982270296, 698, 5.956768640171505e-20),
        (-0.9999999999999882, -0.9999999999999882, 1078, 6.958672824012218e-26),
        # neither the parity half nor all of H certified this one; the
        # bracket does
        (-0.9999999999998678, -0.9999999999998678, 4269, 3.1834934912728254e-27),
        # certified by the triangular solves that the scans replaced
        (-1.0 + 1e-9, -1.0 + 1e-9, 1000, 7.984039696327434e-21),
    ],
)
def test_iteration_goes_on_until_the_certificate_holds(alpha, beta, n, lam):
    got = solve(JacobiWeightParams(alpha, beta), n).lambda_min
    assert abs(got / lam - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "alpha,n,lam",
    [
        # lambda at alpha = beta certified by the triangular solves that the
        # bidiagonal scans replaced; the scans through K2 K1, whose h1
        # cancels to 0, did not certify it, the scans on a parity half do
        (-1.0 + 2.0**-52, 300, 2.178533942749289e-25),
        (-1.0 + 2.0**-52, 1000, 1.7728129897792884e-27),
        (-1.0 + 2.0**-52, 4000, 6.93542662427592e-30),
        (-1.0 + 1e-9, 20000, 4.9994999223475933e-26),
        (-1.0 + 1e-12, 20000, 4.999389464952083e-29),
    ],
)
def test_equal_exponents_near_minus_one_at_large_n(alpha, n, lam):
    got = solve(JacobiWeightParams(alpha, alpha), n).lambda_min
    assert abs(got / lam - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [73, 200])
def test_nearly_multiple_smallest_eigenvalue_is_certified(n):
    # At the float just above the edge, lambda_1 and lambda_2 lie within 6%
    # of each other and far below eps ||B||: the Rayleigh-Ritz matrix put
    # the second eigenvector first, and the certificate failed.
    alpha = -0.9999999999999998
    sp = scaled_pencil(JacobiWeightParams(alpha, alpha), n)
    result = smallest_eigenpair(sp)
    h = np.diag(sp.h0) + np.diag(sp.h1, 1) + np.diag(sp.h2, 2)
    sigma = np.linalg.svd(h, compute_uv=False)[-1]
    upper = math.sqrt(result.lambda_min * (1 + 1e-12))
    assert eigensolver._count_below((sp.h0, sp.h1, sp.h2), upper) >= 1
    assert result.lambda_min == pytest.approx(sigma**2, rel=1e-6)


@pytest.mark.parametrize("alpha,beta,max_steps", [(12.0, 12.0, 10), (49.5, 49.5, 16)])
def test_step_count_at_clustered_spectra(alpha, beta, max_steps):
    # Both endpoints give a Bessel-zero family of eigenvalues; plain block
    # inverse iteration took 22 and 45 steps here, the three-term step 9
    # and 14.  The iteration on all of H, which runs where the bracket
    # gives up; both brackets close here.
    result = _all_of_h(scaled_pencil(JacobiWeightParams(alpha, beta), 4000))
    assert result.iterations <= max_steps


@pytest.mark.parametrize("n", [400, 1000, 4000])
def test_iteration_on_all_of_h_at_the_edge(n):
    # The bracket's fallback at alpha = beta = -1 + 2^-52.  From n = 400 on
    # lambda settles only where B^-1 inverts one matrix: with H^-1 built
    # apart from H^-T, on the reversed factors, it never settled within
    # tol/4 in _MAX_STEPS steps.
    p = JacobiWeightParams(-1.0 + 2.0**-52, -1.0 + 2.0**-52)
    assert _block_size(p) == 2
    sp = scaled_pencil(p, n)
    want = eigensolver._bracket((sp.h0, sp.h1, sp.h2), 1e-12).lambda_min
    got = _all_of_h(sp).lambda_min
    assert abs(got / want - 1.0) <= 1e-12


P37 = JacobiWeightParams(0.3, 1.7)


def _count_solves(monkeypatch):
    """Record (n, tol) of every _solve_core call from here on."""
    calls = []
    core = eigensolver._solve_core

    def counting(owned, tol):
        calls.append((owned[0].n, tol))
        return core(owned, tol)

    monkeypatch.setattr(eigensolver, "_solve_core", counting)
    return calls


def _bits(*values):
    """Exact bit patterns of floats and arrays, for bit-for-bit equality."""
    return [v.tobytes() if isinstance(v, np.ndarray) else float(v).hex() for v in values]


def _views(p, n, between=lambda: None):
    """Everything the three entry points return for (p, n), as bits;
    `between` runs before each entry point."""
    between()
    rep = sharp_constant(p, n)
    between()
    u, v, m_n = extremal_polynomial(p, n)
    between()
    c = profile_compare(p, n)
    return (
        _bits(*(getattr(rep, f.name) for f in dataclasses.fields(rep)))
        + _bits(u, v, m_n)
        + _bits(c.sup_defect, c.branch, c.l_star, c.t, c.discrete, c.closed_form)
    )


def test_one_solve_serves_every_entry_point(monkeypatch):
    calls = _count_solves(monkeypatch)
    sharp_constant(P37, 1000)
    extremal_polynomial(P37, 1000)
    profile_compare(P37, 1000)
    assert calls == [(1000, 1e-12)]
    # One entry: a study's degrees are distinct problems, and the one
    # before the last evicts the earlier 1000.
    convergence_study(P37, [200, 1000])
    assert calls == [(1000, 1e-12), (200, 1e-12), (1000, 1e-12)]


def test_zero_outside_window_raises_before_a_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(AccuracyWindowError, match="zero finder supports nu <= 50.0, got 74.5"):
        sharp_constant(JacobiWeightParams(150.0, 160.0), 20000)
    # The profile's Bessel orders lie past the window too: bessel_j refused
    # them only after a 47 ms solve.
    with pytest.raises(AccuracyWindowError, match="zero finder supports nu <= 50.0, got 74.5"):
        profile_compare(JacobiWeightParams(150.0, 150.0), 4000)
    assert calls == []


def test_memoised_results_equal_fresh_ones():
    for p in (P37, JacobiWeightParams(1.0, 1.0)):
        memoised = _views(p, 600)
        assert _views(p, 600) == memoised
        assert _views(p, 600, between=solve.cache_clear) == memoised


def test_returned_arrays_are_the_callers_own():
    before = _views(P37, 300)
    u, v, _ = extremal_polynomial(P37, 300)
    c = profile_compare(P37, 300)
    for a in (u, v, c.t, c.discrete, c.closed_form):
        a[:] = 7.0
    assert _views(P37, 300) == before
    for result in (solve(P37, 300), smallest_eigenpair(scaled_pencil(P37, 300))):
        with pytest.raises(ValueError):
            result.w[0] = 1.0


def test_tolerances_do_not_share_an_entry(monkeypatch):
    calls = _count_solves(monkeypatch)
    sharp_constant(P37, 300)
    sharp_constant(P37, 300, 1e-10)
    sharp_constant(P37, 300, tol=1e-10)
    assert calls == [(300, 1e-12), (300, 1e-10)]
    assert solve(P37, 300, 1e-10) is solve(P37, 300, np.float64(1e-10))


def test_perturbed_pencil_is_never_memoised():
    p = JacobiWeightParams(0.5, 1.5)
    lam = sharp_constant(p, 400).lambda_min
    sp = scaled_pencil(p, 400)
    # K1's superdiagonal scaled: h2 moves by exactly 1 + 1e-3, and h1 with it
    perturbed = smallest_eigenpair(perturb_factor(sp, "k1_1", 1e-3))
    assert abs(perturbed.lambda_min - lam) > 0.05 * lam
    assert sharp_constant(p, 400).lambda_min == lam


def test_failures_are_raised_again_and_not_memoised(monkeypatch):
    calls = _count_solves(monkeypatch)
    monkeypatch.setattr(eigensolver, "_MAX_STEPS", 1)
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            sharp_constant(P37, 400)
    assert len(calls) == 2
    monkeypatch.setattr(eigensolver, "_MAX_STEPS", 200)
    assert sharp_constant(P37, 400).lambda_min > 0.0
    assert len(calls) == 3
    for _ in range(2):
        with pytest.raises(ValueError):
            extremal_polynomial(P37, 0)
        with pytest.raises(ValueError):
            sharp_constant(P37, 400, tol=1e-3)
    assert len(calls) == 3


def test_failure_says_whether_lambda_settled(monkeypatch):
    sp = scaled_pencil(P37, 400)
    first = smallest_eigenpair(sp).iterations  # the first settled step
    monkeypatch.setattr(eigensolver, "_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match=r"in 1 steps \(0 settled steps, 0 of them failed"
                       r".* relative change of lambda inf, settle bound tol/4 2\.500e-13;"):
        smallest_eigenpair(sp)
    # every step from the first settled one on reaches the certificate
    monkeypatch.setattr(eigensolver, "_MAX_STEPS", 20)
    monkeypatch.setattr(eigensolver, "_certified", lambda *args: False)
    refused = 20 - first + 1
    with pytest.raises(ConvergenceError) as info:
        smallest_eigenpair(sp)
    assert str(info.value) == (
        f"did not certify lambda in 20 steps ({refused} settled steps, {refused} of them failed"
        " the certificate; the last step's relative change of lambda 1.999e-16, settle bound"
        " tol/4 2.500e-13; last residual 3.865e-20, target 1.000e-12)"
    )
    assert refused == 13


@pytest.mark.parametrize("params", [P37, JacobiWeightParams(1.0, 1.2)])
def test_a_refused_certificate_remakes_the_rayleigh_ritz_buffers(monkeypatch, params):
    # The basis buffers are freed while w is smoothed and certified; after
    # a refusal the iteration makes them again and certifies a later step.
    sp = scaled_pencil(params, 400)
    want = smallest_eigenpair(sp)
    outs, refusals = [], []
    orthonormal, certified = eigensolver._orthonormal_blocks, eigensolver._certified

    def record(blocks, out):
        outs.append(out)  # kept alive, so that identities are not reused
        return orthonormal(blocks, out)

    def refuse_once(*args):
        if refusals:
            return certified(*args)
        refusals.append(len(outs))
        return False

    monkeypatch.setattr(eigensolver, "_orthonormal_blocks", record)
    monkeypatch.setattr(eigensolver, "_certified", refuse_once)
    got = smallest_eigenpair(sp)
    assert got.iterations > want.iterations
    assert abs(got.lambda_min / want.lambda_min - 1.0) <= 1e-12
    (split,) = refusals
    before, after = outs[:split], outs[split:]
    assert before and after
    assert all(out is before[0] for out in before) and all(out is after[0] for out in after)
    assert after[0] is not before[0]


def _traced_peak_in_n_vectors(params, n):
    """The traced peak of sharp_constant(params, n) over 8n bytes, after a
    warm-up at n = 100 and with nothing memoised."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        sharp_constant(params, 100)
        solve.cache_clear()
        tracemalloc.reset_peak()
        sharp_constant(params, n)
        return tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        solve.cache_clear()
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "params,vectors,n,bound",
    [
        # The iteration on all of H holds H's bands, the three scalings of
        # B^-1, the basis buffer (Z, Q and P, three rows a vector) and a copy
        # of the old Q: the factors K1, K2 are freed as B^-1 sets them up,
        # H basis is made row by row without temporaries and lives only
        # until the small matrix and H Q are taken, the new Q and P go into
        # the buffer's dead rows and H Q into the old Q's array, and the
        # buffer is dropped while w is certified.  No frame is handed the
        # pencil itself, so this holds on Python 3.10, where a caller keeps a
        # call's arguments.  With one vector the peak is H basis of a step
        # whose basis keeps all three rows (13.2 at n = 2e4, 12.0 where a
        # row is dropped); at n = 4000 it is the Rayleigh bound, whose
        # chunks are an eighth of n but at least 1024 rows (14.3).  With two
        # it is H basis of six rows (20.2; 20.65 at n = 4000, where 10 KB of
        # warm-up leftovers are 0.3 n-vectors).
        (P37, 1, 20000, 13.5),
        (P37, 1, 4000, 14.6),
        (JacobiWeightParams(1.0, 1.2), 2, 20000, 20.5),
        (JacobiWeightParams(1.0, 1.2), 2, 4000, 21.0),
        # The bracket at alpha = beta (11.0) runs one parity half at a
        # time: the first half's iterate and scans die with its call, and
        # the other half's before the residual on all of H, which sets the
        # peak, is taken.
        (P00, None, 20000, 11.5),
    ],
)
def test_traced_peak_of_a_solve(params, vectors, n, bound):
    if vectors is not None:
        assert _block_size(params) == vectors
    assert _traced_peak_in_n_vectors(params, n) <= bound


@pytest.mark.parametrize("alpha,beta", [(-0.95, 11.5), (-0.9, 2.0), (0.3, 1.7), (12.0, 6.5),
                                        (7.0, -0.5), (4.0, 9.0)])
def test_traced_peak_of_a_one_vector_solve_at_large_n(alpha, beta):
    # The unequal weights of the benchmark's large-n requests: their steps
    # at n = 4e4 keep at most two basis rows, so H basis, the buffer, the
    # old Q, the bands and the scalings make 12 n-vectors.
    params = JacobiWeightParams(alpha, beta)
    assert _block_size(params) == 1
    assert _traced_peak_in_n_vectors(params, 40000) <= 12.5


def test_the_memo_drops_its_solution_before_the_next_pencil(monkeypatch):
    w = weakref.ref(solve(P37, 300).w)
    alive = []
    build = eigensolver.scaled_pencil

    def recording(params, n):
        alive.append(w() is not None)
        return build(params, n)

    monkeypatch.setattr(eigensolver, "scaled_pencil", recording)
    solve(P37, 400)
    assert alive == [False]


def test_degree_is_checked_before_the_memo(monkeypatch):
    calls = _count_solves(monkeypatch)
    one = extremal_polynomial(P37, 1)
    for bad in (True, 1.0, 2.5, "1"):
        with pytest.raises(TypeError):
            extremal_polynomial(P37, bad)
        with pytest.raises(TypeError):
            sharp_constant(P37, bad)
    assert _bits(*extremal_polynomial(P37, np.int64(1))) == _bits(*one)
    assert sharp_constant(P37, np.int32(1)).m_n == one[2]
    # A study checks every degree before its first solve
    with pytest.raises(TypeError, match=r"n must be >= 1 as an integer, got 200\.5"):
        convergence_study(P37, [100, 200.5])
    assert len(calls) == 1


@pytest.mark.parametrize("n", [300, 4000])
@pytest.mark.parametrize("signed,plain", [((-0.0, 1.7), (0.0, 1.7)), ((2.0, -0.0), (2.0, 0.0))])
def test_signed_zero_exponent_shares_the_entry(monkeypatch, n, signed, plain):
    calls = _count_solves(monkeypatch)
    neg = solve(JacobiWeightParams(*signed), n)
    solve.cache_clear()
    pos = solve(JacobiWeightParams(*plain), n)
    assert _bits(neg.lambda_min, neg.w) == _bits(pos.lambda_min, pos.w)
    assert solve(JacobiWeightParams(*signed), n) is pos
    assert len(calls) == 2
    assert sharp_constant(JacobiWeightParams(*signed), n).alpha == signed[0]


def _mp_quotient(sp, w):
    """||H w||^2 / ||w||^2 of the float bands and the float w at 50 digits."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(v)) for v in w]
        bands = [[mpmath.mpf(float(v)) for v in band] for band in (sp.h0, sp.h1, sp.h2)]
        hw = [
            mpmath.fsum(band[i] * x[i + k] for k, band in enumerate(bands) if i < len(band))
            for i in range(sp.n)
        ]
        return mpmath.fsum(v * v for v in hw) / mpmath.fsum(v * v for v in x)


@pytest.mark.parametrize(
    "alpha,beta,n",
    [
        (0.0, 0.0, 500), (0.3, 1.7, 500), (-0.95, 11.5, 400), (-0.9, 2.0, 500),
        (12.0, 6.5, 300), (12.0, 12.0, 500), (4.0, 9.0, 450), (EDGE, EDGE, 73),
        (EDGE, 49.5, 120), (49.5, 20.0, 200), (2.5, -0.5, 500), (300.0, 0.0, 406),
    ],
)
def test_rayleigh_bound_is_never_below_the_50_digit_quotient(alpha, beta, n):
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    w = smallest_eigenpair(sp).w
    start = np.ones(n)
    for x in (w, start, np.random.default_rng(n).standard_normal(n)):
        exact = _mp_quotient(sp, x)
        bound = _rayleigh_bound((sp.h0, sp.h1, sp.h2), x)
        assert bound >= exact
        # the allowance at n = 500 is gamma_(2 * 23 + 16), about 7e-15
        assert bound <= exact * (1 + 1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rayleigh_bound_at_the_smallest_degrees(n):
    # h1 is empty at n = 1 and h2 at n <= 2
    for p in (P00, P37, JacobiWeightParams(EDGE, EDGE)):
        sp = scaled_pencil(p, n)
        for x in (smallest_eigenpair(sp).w, np.arange(1.0, n + 1.0)):
            exact = _mp_quotient(sp, x)
            assert exact <= _rayleigh_bound((sp.h0, sp.h1, sp.h2), x) <= exact * (1 + 1e-14)


def _count_passes(monkeypatch):
    """Record the shift of every inertia count from here on."""
    shifts = []
    count = eigensolver._count_below

    def counting(pencil, tau):
        shifts.append(tau)
        return count(pencil, tau)

    monkeypatch.setattr(eigensolver, "_count_below", counting)
    return shifts


@pytest.mark.parametrize(
    "alpha,beta,n,tol,lam",
    [
        # The float w's own quotient lies 4e-11 above lambda here.
        (EDGE, EDGE, 73, 1e-12, 6.08950333689939e-23),
        # At n = 1e4 the allowance, about 2.4e-14, exceeds tol.
        (12.0, 12.0, 10000, 1e-14, 3.48240994547101e-14),
        (12.0, 6.5, 10000, 1e-14, 1.469244125816185e-14),
    ],
)
def test_upper_bound_falls_back_to_an_inertia_count(monkeypatch, alpha, beta, n, tol, lam):
    # lam is what the two inertia passes certified before the bound
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    shifts = _count_passes(monkeypatch)
    got = _all_of_h(sp, tol)
    assert _rayleigh_bound((sp.h0, sp.h1, sp.h2), got.w) > got.lambda_min * (1 + tol)
    assert len(shifts) == 2
    assert got.lambda_min == pytest.approx(lam, rel=tol)


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.7), (12.0, 12.0), (EDGE, 49.5)])
def test_rayleigh_bound_replaces_the_upper_count(monkeypatch, alpha, beta):
    shifts = _count_passes(monkeypatch)
    for n in (1, 2, 8, 199, 200, 1000):
        got = _all_of_h(scaled_pencil(JacobiWeightParams(alpha, beta), n))
        # one rule at every n: the bound holds, so only the lower count runs
        assert shifts == [math.sqrt(got.lambda_min * (1 - 1e-12))]
        shifts.clear()


def test_refused_lower_count_skips_the_rayleigh_bound(monkeypatch):
    sp = scaled_pencil(P37, 400)
    got = smallest_eigenpair(sp)
    bounds = []
    bound = eigensolver._rayleigh_bound

    def bounding(pencil, w):
        bounds.append(w)
        return bound(pencil, w)

    monkeypatch.setattr(eigensolver, "_rayleigh_bound", bounding)
    shifts = _count_passes(monkeypatch)
    # at twice lambda_min the lower count finds a singular value below
    assert not eigensolver._certified((sp.h0, sp.h1, sp.h2), 2.0 * got.lambda_min, got.w, 1e-12)
    assert bounds == [] and len(shifts) == 1
    assert eigensolver._certified((sp.h0, sp.h1, sp.h2), got.lambda_min, got.w, 1e-12)
    assert len(bounds) == 1 and len(shifts) == 2


@pytest.mark.parametrize(
    "alpha,beta,m,lam",
    [
        # lambda at n = 2000 from two vectors and two inertia counts
        (0.5, 0.8, 1, 1.0029910069462275e-12),  # ratio of the limits 1.256
        (0.5, 0.7, 2, 1.003089145548638e-12),  # 1.169, below 1.2
        (-0.6, -0.35, 1, 2.1917110927860147e-13),  # alpha + beta = -0.95
        (-0.6, -0.45, 1, 2.1919280625407164e-13),  # alpha + beta = -1.05
        # past the zero finder's window (nu > 50) the zeros are read at
        # nu clamped to 50; lambda at n = 2000 from perfbench/oracle.py
        # at 50 digits
        (300.0, 0.0, 1, 4.655865987227515e-13),  # nu_alpha = 149.5
        (150.0, 3.0, 1, 3.1612481171558436e-12),  # nu_alpha = 74.5
        (300.0, 95.0, 2, 5.05232692139426e-10),  # clamped ratio 1.12, true 8.7
        (200.0, 200.5, 2, 2.0152699744230905e-09),  # both orders past 50
        (1.0, 1.0, 2, None),
        (0.5, 0.5 + 1e-6, 2, None),
    ],
)
def test_block_size_rule(alpha, beta, m, lam, monkeypatch):
    p = JacobiWeightParams(alpha, beta)
    # the iteration carries the same m at every n: the rule reads the
    # weight alone (and n rows at most)
    rows, orthonormal = [], eigensolver._orthonormal_blocks

    def record(blocks, out):
        rows.append(len(blocks[1]))
        return orthonormal(blocks, out)

    monkeypatch.setattr(eigensolver, "_orthonormal_blocks", record)
    for n in (1, 4, 8, 199, 200, 2000):
        rows.clear()
        _all_of_h(scaled_pencil(p, n))
        assert set(rows) == {min(n, m)}, n
    assert _block_size(p) == m
    if lam is not None:
        assert abs(solve(p, 2000).lambda_min - lam) <= 1e-13 * lam


@pytest.mark.parametrize(
    "alpha,beta,n,lam",
    [
        # One vector settled 4e-12 to 6e-10 high here while the certificate
        # ran only after the iteration.  50-digit perfbench/oracle.py values;
        # at n = 98235 the rounding of H's bands alone moves lambda 4.7e-12
        # from the oracle's 5.231298497441327e-21, so that row pins the
        # 50-digit lambda of the float bands, by the oracle's counts
        (-0.9996, -0.9998, 3462, 1.113866603850937e-17),
        (-0.98, -0.96, 36215, 9.348179994487014e-20),
        (-0.94, -0.92, 98235, 5.231298497416787e-21),
    ],
)
def test_one_vector_with_both_exponents_near_minus_one(alpha, beta, n, lam):
    p = JacobiWeightParams(alpha, beta)
    assert _block_size(p) == 1
    assert abs(solve(p, n).lambda_min - lam) <= 1e-13 * lam


@pytest.mark.parametrize("alpha,beta,steps", [(0.3, 1.7, 7), (12.0, 6.5, 13), (4.0, 9.0, 11)])
def test_one_vector_step_counts(alpha, beta, steps):
    # 5, 11 and 9 power steps, then 2 Rayleigh-Ritz steps; two vectors took
    # 6, 8 and 7 steps
    p = JacobiWeightParams(alpha, beta)
    assert _block_size(p) == 1
    assert solve(p, 4000).iterations == steps


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.7), (12.0, 6.5), (7.0, -0.5)])
def test_one_vector_follows_the_perron_sign_pattern(alpha, beta):
    # h0 > 0 > h2 and sign h1 = sign(alpha - beta): with S = I for
    # alpha <= beta and diag((-1)^k) for alpha > beta, S H S is an upper
    # triangular M-matrix, so S B^-1 S > 0 and S w has one sign
    p = JacobiWeightParams(alpha, beta)
    assert _block_size(p) == 1
    w = solve(p, 4000).w
    s = (-1.0) ** np.arange(4000) if alpha > beta else np.ones(4000)
    signs = set(np.sign(s * w))
    assert signs in ({1.0}, {-1.0})


@pytest.mark.parametrize("n", [2, 200, 4000])
@pytest.mark.parametrize("alpha,beta", [(0.3, 1.7), (12.0, 6.5), (7.0, -0.5)])
def test_the_iteration_reads_the_bands_not_the_weight(alpha, beta, n):
    # The start's sign pattern comes from h1 and the block size from the
    # zeros of both orders, so swapping the labels of the weight changes
    # no bit; a start signed by alpha > beta flipped here.
    sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
    swapped = dataclasses.replace(sp, params=JacobiWeightParams(beta, alpha))
    got, want = smallest_eigenpair(swapped), smallest_eigenpair(sp)
    assert _bits(got.lambda_min, got.w, got.residual) == _bits(want.lambda_min, want.w, want.residual)
    assert got.iterations == want.iterations


def test_the_power_start_is_capped():
    # K1's diagonal scaled by 1 + 1e-3 puts the two least eigenvalues
    # 1.0104 apart (dense SVD), and ||B^-1 q|| does not settle: the power
    # start ran 199 steps and left one Rayleigh-Ritz step, which did not
    # certify.  Capped, the Rayleigh-Ritz steps certify lambda 7.7e-15 from
    # the dense value 2.1131980069204394e-12.
    sp = perturb_factor(scaled_pencil(P37, 2000), "k1_0", 1e-3)
    got = smallest_eigenpair(sp)
    assert got.iterations > eigensolver._POWER_STEPS
    bands = sp.h0, sp.h1, sp.h2
    assert eigensolver._count_below(bands, math.sqrt(got.lambda_min * (1 - 1e-12))) == 0
    assert eigensolver._count_below(bands, math.sqrt(got.lambda_min * (1 + 1e-12))) >= 1


def _record_paths(monkeypatch):
    """Record, from here on, "bracket" or "open bracket" for every _bracket
    call that closes or gives up, and "iterate" for every _iterate call."""
    calls = []
    bracket, iterate = eigensolver._bracket, eigensolver._iterate

    def bracketing(pencil, tol):
        found = bracket(pencil, tol)
        calls.append("bracket" if found else "open bracket")
        return found

    def recording(*args):
        calls.append("iterate")
        return iterate(*args)

    monkeypatch.setattr(eigensolver, "_bracket", bracketing)
    monkeypatch.setattr(eigensolver, "_iterate", recording)
    return calls


@pytest.mark.parametrize(
    "alpha,beta,n,path",
    [
        # h1 = 0: at alpha = beta, and at n = 1 where it is empty
        (0.0, 0.0, 1, ["bracket"]),
        (0.3, 1.7, 1, ["bracket"]),
        (EDGE, EDGE, 73, ["bracket"]),
        (12.0, 12.0, 4001, ["bracket"]),
        (49.0, 49.0, 400, ["bracket"]),
        (49.5, 49.5, 400, ["bracket"]),
        # no bracket closes in _MAX_STEPS power steps: all of H
        (300.0, 300.0, 1000, ["open bracket", "iterate"]),
        (0.3, 1.7, 400, ["iterate"]),
        (100.0, 100.0, 200, ["bracket"]),
        # from a start of ones the other half ran out of the 200 steps here
        (101.0, 101.0, 100000, ["bracket"]),
        (120.0, 120.0, 4000, ["bracket"]),
        # the iteration on the parity half settled 194 times here on
        # lambdas the lower count refused
        (-0.999999950836762, -0.999999950836762, 7939, ["bracket"]),
    ],
)
def test_the_path_each_pencil_takes(monkeypatch, alpha, beta, n, path):
    calls = _record_paths(monkeypatch)
    shifts = _count_passes(monkeypatch)
    smallest_eigenpair(scaled_pencil(JacobiWeightParams(alpha, beta), n))
    assert calls == path
    # a closed bracket certifies lambda without an inertia count
    assert (shifts == []) == (path == ["bracket"])


@pytest.mark.parametrize("n", [1000, 10001])
@pytest.mark.parametrize("alpha", [-0.95, 0.0, 12.0, 49.5])
def test_the_other_half_starts_from_the_first_halfs_iterate(monkeypatch, alpha, n):
    # From a start of ones the other half took 3-29 steps to pass the first
    # half's lower end; from that half's closing iterate (at odd n the sums
    # of its neighbours) it takes one or two
    steps = []
    kernel = eigensolver._positive_bracket

    def recording(d, e, tol, x, floor=None, before=0):
        found = kernel(d, e, tol, x, floor, before)
        steps.append(found[-1] - before)
        return found

    monkeypatch.setattr(eigensolver, "_positive_bracket", recording)
    sp = scaled_pencil(JacobiWeightParams(alpha, alpha), n)
    assert eigensolver._bracket((sp.h0, sp.h1, sp.h2), 1e-12) is not None
    assert len(steps) == 2 and steps[1] <= 2


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
@pytest.mark.parametrize("alpha", [EDGE, -1.0 + 1e-12, -1.0 + 1e-9, -0.95, 0.0, 12.0])
def test_the_bracket_agrees_with_the_inertia_count(alpha, tol):
    # The Collatz-Wielandt bracket of the returned w holds lambda and is
    # closed; the count finds no singular value below it and one within
    # tol above lambda.  (At (-1 + 1e-9, same, 3) the count switches 5e-16
    # above the bracket's upper end: both are backward statements.)
    widen = eigensolver._WIDEN
    for n in range(1, 9):
        sp = scaled_pencil(JacobiWeightParams(alpha, alpha), n)
        got, p = eigensolver._bracket((sp.h0, sp.h1, sp.h2), tol), (n - 1) % 2
        x = got.w[p::2]
        assert x.min() > 0.0 and not got.w[n % 2 :: 2].any()
        ratios = x / _Scans((sp.h0[p::2], sp.h2[p::2]))(x)
        lo, hi = ratios.min() * (1 - widen), ratios.max() * (1 + widen)
        assert lo <= got.lambda_min <= hi <= lo * (1 + tol)
        assert eigensolver._count_below((sp.h0, sp.h1, sp.h2), math.sqrt(lo)) == 0
        assert eigensolver._count_below((sp.h0, sp.h1, sp.h2), math.sqrt(got.lambda_min * (1 + tol))) >= 1


def test_a_bracket_that_does_not_close_falls_back_to_all_of_h(monkeypatch):
    # the bracket needs 52 steps here, the iteration on all of H 9
    monkeypatch.setattr(eigensolver, "_MAX_STEPS", 20)
    calls = _record_paths(monkeypatch)
    sp = scaled_pencil(JacobiWeightParams(12.0, 12.0), 1000)
    got, want = smallest_eigenpair(sp), _all_of_h(sp)
    assert calls == ["open bracket", "iterate", "iterate"]
    assert _bits(got.lambda_min, got.w) == _bits(want.lambda_min, want.w)


def test_lost_positivity_falls_back_to_all_of_h(monkeypatch):
    # At alpha = 1000 the tail of the power iterate underflows to 0, so the
    # ratios x / z leave (0, inf) at power step 107; the bracket gives up
    # without a warning (RuntimeWarnings are errors here) and all of H runs.
    sp = scaled_pencil(JacobiWeightParams(1000.0, 1000.0), 2000)
    calls = _record_paths(monkeypatch)
    got, want = smallest_eigenpair(sp), _all_of_h(sp)
    assert calls == ["open bracket", "iterate", "iterate"]
    assert _bits(got.lambda_min, got.w) == _bits(want.lambda_min, want.w)


@pytest.mark.parametrize("n", [8, 9, 400])
def test_a_smaller_other_half_gives_up_the_bracket(n):
    # Halving the bands of the half without index n - 1 quarters its
    # eigenvalues and puts the least of all of H there; its lower end then
    # never reaches the first half's, and the step limit ends the bracket.
    sp = scaled_pencil(P00, n)
    h0, h2 = sp.h0.copy(), sp.h2.copy()
    h0[n % 2 :: 2] *= 0.5
    h2[n % 2 :: 2] *= 0.5
    smaller = dataclasses.replace(sp, h0=h0, h2=h2)
    sigma = np.linalg.svd(dense_h(smaller), compute_uv=False)
    assert sigma[-1] < np.linalg.svd(dense_h(sp), compute_uv=False)[-1]
    assert eigensolver._bracket((smaller.h0, smaller.h1, smaller.h2), 1e-12) is None


@pytest.mark.parametrize(
    "alpha,n", [(0.0, 1), (EDGE, 1), (0.0, 2), (0.0, 1000), (12.0, 4001), (-0.95, 4000), (EDGE, 73)]
)
def test_equal_exponents_bracket_the_parity_half_of_the_last_index(alpha, n):
    # h1 = 0 splits H into its even and odd halves; the bracket's w lies on
    # the half that holds index n - 1 (at n = 1, H itself), and the count
    # over all of H shows that the other half holds no smaller value
    sp = scaled_pencil(JacobiWeightParams(alpha, alpha), n)
    got = smallest_eigenpair(sp)
    assert not got.w[np.arange(n) % 2 != (n - 1) % 2].any()
    assert eigensolver._count_below((sp.h0, sp.h1, sp.h2), math.sqrt(got.lambda_min * (1 - 1e-12))) == 0


def _turan(m):
    """The least eigenvalue of B = H^T H for the m-row upper bidiagonal H
    with 1 on the diagonal and -1 above it: sigma_min(H) = 2 sin(pi /
    (4m + 2)) (P. Turan, Mathematica (Cluj) 2, 1960)."""
    return 4.0 * math.sin(math.pi / (4 * m + 2)) ** 2


TURAN_N = [1, 2, 3, 10, 1000, 100001, 1000000]


@pytest.mark.parametrize("m", TURAN_N)
def test_the_positive_bracket_meets_turans_closed_form(m):
    # An exact oracle at every size: the bracket is exact for bands a few
    # units from the given ones, and these bands are exact in floats
    start = time.perf_counter()
    low, lam, _, _, _ = eigensolver._positive_bracket(np.ones(m), -np.ones(m - 1), 1e-12, np.ones(m))
    assert time.perf_counter() - start < 2.0
    assert abs(lam / _turan(m) - 1.0) <= 1e-13
    assert low <= _turan(m)


@pytest.mark.parametrize("n", TURAN_N)
def test_the_bracket_meets_turans_closed_form_on_its_parity_half(n):
    # h1 = 0 splits H into two (1, -1) bidiagonals; the one that holds
    # index n - 1 has ceil(n / 2) rows and the least eigenvalue
    pencil = np.ones(n), np.zeros(n - 1), -np.ones(max(n - 2, 0))
    start = time.perf_counter()
    got = eigensolver._bracket(pencil, 1e-12)
    assert time.perf_counter() - start < 2.0
    assert abs(got.lambda_min / _turan(-(-n // 2)) - 1.0) <= 1e-13
    assert not got.w[n % 2 :: 2].any()


def _laguerre_lambda(a, n):
    """1 / M^2 at 60 digits, M the sharp constant of ||p'|| <= M ||p|| over
    degrees 0..n in L^2 of the weight x^a e^-x on (0, inf): M^2 is the
    largest eigenvalue of G^-1 D for the monomial Gram matrices
    G_ij = Gamma(i + j + a + 1) and D_ij = i j Gamma(i + j + a - 1)."""
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        g = mpmath.matrix(n + 1, n + 1)
        d = mpmath.matrix(n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                g[i, j] = mpmath.gamma(i + j + a + 1)
                d[i, j] = i * j * mpmath.gamma(i + j + a - 1) if i and j else 0
        root = mpmath.inverse(mpmath.cholesky(g))  # G = L L^T: L^-1 D L^-T
        return float(1 / max(mpmath.eigsy(root * d * root.T, eigvals_only=True)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 3.0])
def test_the_positive_bracket_on_the_laguerre_bidiagonal(a, n):
    # A diagonal that varies, against an oracle that shares no closed form
    # with the Jacobi pencil: the Laguerre bidiagonal, with diagonal
    # sqrt((j + a + 1) / (j + 1)) and -1 above it, has lambda = 1 / M^2
    j = np.arange(n)
    d = np.sqrt((j + a + 1.0) / (j + 1.0))
    low, lam, _, _, _ = eigensolver._positive_bracket(d, -np.ones(n - 1), 1e-12, np.ones(n))
    want = _laguerre_lambda(a, n)
    assert abs(lam / want - 1.0) <= 1e-14
    assert low <= want


@pytest.mark.parametrize("alpha", [1e4, 1e6])
def test_one_step_hermite_limit_is_exact(alpha):
    # At n = 1, Q = x and ||Q'||^2 / ||Q||^2 = 2 alpha + 3 at alpha = beta:
    # the integral of x^2 is 1 / (2 alpha + 3) of the weight's total.
    m_1 = solve(JacobiWeightParams(alpha, alpha), 1).lambda_min ** -0.5
    assert abs(m_1 / math.sqrt(2.0 * alpha + 3.0) - 1.0) <= 1e-14


@pytest.mark.parametrize("n,bar", [(5, 1e-6), (50, 1e-3), (400, 2e-2)])
def test_high_order_hermite_limit(n, bar):
    # As alpha = beta -> inf at fixed n, x = y / sqrt(alpha) takes the
    # weight to the Hermite one, whose constant is sqrt(2n) (orthonormal
    # h_k' = sqrt(2k) h_{k-1}; Szego, Orthogonal Polynomials, 5.6), and
    # M_n / sqrt(2 n alpha) - 1 ~ 3n / (4 alpha).  Orders far past any
    # mpmath oracle: n = 5 closes the bracket, n = 50 and 400 run the
    # iteration on all of H, where the bracket loses positivity.
    alpha = 1e6
    m_n = solve(JacobiWeightParams(alpha, alpha), n).lambda_min ** -0.5
    rate = (m_n / math.sqrt(2.0 * n * alpha) - 1.0) / (3.0 * n / (4.0 * alpha))
    assert abs(rate - 1.0) <= bar


def _mp_eigenvector(d, e, w, steps=3):
    """The eigenvector of B = H^T H, H upper bidiagonal (d, e), that w
    approximates: inverse iteration from w at 50 digits."""
    with mpmath.workdps(50):
        d, e, x = ([mpmath.mpf(float(v)) for v in a] for a in (d, e, w))
        for _ in range(steps):
            for k in range(len(x)):  # H^T u = x
                x[k] = (x[k] - (e[k - 1] * x[k - 1] if k else 0)) / d[k]
            for k in reversed(range(len(x))):  # H z = u
                x[k] = (x[k] - (e[k] * x[k + 1] if k + 1 < len(x) else 0)) / d[k]
            norm = mpmath.sqrt(mpmath.fsum(t * t for t in x))
            x = [t / norm for t in x]
        return np.array([float(t) for t in x])


def test_the_bracket_certifies_where_the_half_does_not(monkeypatch):
    # At odd n with alpha + 1 ~ 1e-14 the even half holds indices 0 and
    # n - 1; the Ritz value of the iteration on it jitters, and the
    # certificate refuses every settled step.  All of H took over there
    # and certified a lambda 3.7e-13 off.  80-digit perfbench/oracle.py
    # value.
    calls = _record_paths(monkeypatch)
    alpha = -0.999999999999984
    sp = scaled_pencil(JacobiWeightParams(alpha, alpha), 445)
    got = smallest_eigenpair(sp)
    assert calls == ["bracket"]
    assert abs(got.lambda_min / 3.2469630463728775e-24 - 1.0) <= 1e-12
    # The smoothed w vanishes off its parity and lies 6.7e-16 from the
    # eigenvector of the float bands (and of the 80-digit oracle); the w
    # of all of H lay 2.4e-15 off its parity.  Its residual is bounded by
    # the rounding of its own evaluation, half a unit of |H^T| |H| |w|:
    # row 0 of H w cancels to a unit of w[0] ~ 1, and |h2[0]| = 4.6e6
    # carries it into H^T H w.  All of H read residual <= 1e8 lambda here
    # by that rounding alone: in exact arithmetic on the float bands its
    # w has the residual 1.5e12 lambda, and no float w meets 1e8 lambda.
    assert not got.w[1::2].any()
    want = _mp_eigenvector(sp.h0[::2], sp.h2[::2], got.w[::2])
    assert np.max(abs(got.w[::2] - want)) <= 1e-15
    bands = abs(sp.h0), abs(sp.h1), abs(sp.h2)
    assert got.residual <= 2.0**-53 * np.linalg.norm(ht_matvec(*bands, h_matvec(*bands, abs(got.w))))


def test_inverse_iteration_past_double_range_names_the_weight():
    # H is finite at alpha = 1e78, but lambda_min < 1e-154, so ||B^-1 q||^2
    # overflows; it gave "min() arg is an empty sequence"
    with pytest.raises(OverflowError, match=r"alpha = 1e\+78, beta = 0.5, n = 10\b"):
        solve(JacobiWeightParams(1e78, 0.5), 10)


def test_bands_whose_squares_overflow_are_named(recwarn):
    # The bands stay finite (|h1| up to 3.3e299), but their squares on the
    # diagonal of B do not: the cause is the bands, not a tiny lambda_min,
    # and no overflow warning comes before it
    sp = perturb_factor(scaled_pencil(JacobiWeightParams(0, 0), 8), "k2_1", 1e300)
    named = r"^the diagonal of B = H\^T H leaves double range \(the bands of H reach 3\.33e\+299\)"
    with pytest.raises(OverflowError, match=named + r" at alpha = 0, beta = 0, n = 8$"):
        smallest_eigenpair(sp)
    assert not recwarn.list


def test_scan_setup_takes_one_product_inside_the_range():
    sp = scaled_pencil(P37, 4000)
    for d, e in ((sp.k1_0, sp.k1_1), (sp.k2_0, sp.k2_1)):
        p, pre, blocks = _scan_setup(d, e)
        assert blocks == [(0, 4000, 0.0)]
        assert np.array_equal(p[1:], np.cumprod(-e / d[1:]))
