import dataclasses
import json
import math
from pathlib import Path

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
from mblab.eigensolver import _Recurrence
from mblab.pencil import build_pencil
from conftest import b_bands, dense_a, dense_d, mp_lambda_min, rayleigh_supremum

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

P00 = JacobiWeightParams(0.0, 0.0)
P11 = JacobiWeightParams(1.0, 1.0)


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


def test_eigen_result_certificate():
    p = JacobiWeightParams(0.5, 1.5)
    pen = build_pencil(p, 30)
    res = smallest_eigenpair(scaled_pencil(p, 30), tol=1e-12)
    assert res.residual <= 1e-12
    assert res.multiplicity == 1
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
    forward = eigensolver._inertia_bands(sp)
    checked = 0
    for below, (lo, hi) in enumerate(zip([0.0, *sigma], [*sigma, 4.0 * sigma[-1]])):
        tau = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        if tau - lo > margin and hi - tau > margin:
            assert eigensolver._count_below(forward, tau) == below, (below, tau)
            checked += 1
    # the bracket above the spectrum always counts, and most gaps do
    assert checked >= max(1, n // 2)


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
    # the solver must consume the stored bands, not rebuild from params
    sp = scaled_pencil(JacobiWeightParams(0.5, 1.5), 12)
    res = smallest_eigenpair(sp)
    res2 = smallest_eigenpair(dataclasses.replace(sp, h0=sp.h0 * (1.0 + 1e-3)))
    assert abs(res2.lambda_min - res.lambda_min) / res.lambda_min > 1e-4


def _dense_h(sp):
    n, k = sp.n, np.arange(sp.n)
    h = np.zeros((n, n))
    h[k, k] = sp.h0
    h[k[:-1], k[:-1] + 1] = sp.h1
    h[k[:-2], k[:-2] + 2] = sp.h2
    return h


# 404, 405, 406 are m*p - 1, m*p and m*p + 1 for the m = 9, p = 45 blocks
# of n = 405.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 400, 404, 405, 406])
@pytest.mark.parametrize("q", [1, 2])
def test_partitioned_solve_matches_dense(n, q):
    assert _Recurrence(np.ones(405), np.ones(404), np.ones(403))._bands.shape == (3, 9, 45)
    for p in (JacobiWeightParams(0.3, 1.7), JacobiWeightParams(-0.95, -0.95)):
        sp = scaled_pencil(p, n)
        h = _dense_h(sp)
        r = np.random.default_rng(n).standard_normal((q, n))
        # H^T y = r, and H z = r on the reversed bands
        y = _Recurrence(sp.h0, sp.h1, sp.h2).solve(r)
        z = _Recurrence(sp.h0[::-1], sp.h1[::-1], sp.h2[::-1]).solve(r[:, ::-1])[:, ::-1]
        for got, mat in ((y, h.T), (z, h)):
            want = np.linalg.solve(mat, r.T).T
            assert got.shape == (q, n)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


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
    assert result.multiplicity >= 1
    assert result.lambda_min == pytest.approx(sigma**2, rel=1e-6)


@pytest.mark.parametrize("alpha,beta,max_steps", [(12.0, 12.0, 10), (49.5, 49.5, 16)])
def test_step_count_at_clustered_spectra(alpha, beta, max_steps):
    # Both endpoints give a Bessel-zero family of eigenvalues; plain block
    # inverse iteration took 22 and 45 steps here, the three-term step 9
    # and 14.
    result = smallest_eigenpair(scaled_pencil(JacobiWeightParams(alpha, beta), 4000))
    assert result.iterations <= max_steps


P37 = JacobiWeightParams(0.3, 1.7)


def _count_solves(monkeypatch):
    """Record (n, tol) of every _solve_core call from here on."""
    calls = []
    core = eigensolver._solve_core

    def counting(pencil, tol):
        calls.append((pencil.n, tol))
        return core(pencil, tol)

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
    perturbed = smallest_eigenpair(dataclasses.replace(sp, h2=sp.h2 * (1.0 + 1e-3)))
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
