import math

import mpmath
import numpy as np
import pytest

from mblab import (
    AccuracyWindowError,
    ConvergenceError,
    bessel_j,
    bessel_j_derivative,
    log_gamma,
    smallest_positive_zero,
    special,
)
from conftest import j0_oracle


def test_log_gamma_closed_forms():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_matches_stdlib_on_window():
    xs = np.geomspace(0.1, 200.0, 160)
    for x in xs:
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_bessel_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(2.3, 0.0) == 0.0
    assert bessel_j(-0.5, 0.0) == math.inf


def test_bessel_half_integer_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x
    assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-13)
    for x in np.linspace(0.05, 10.0, 80):
        want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - want) < 1e-12


def test_bessel_domain_and_window():
    with pytest.raises(ValueError):
        bessel_j(0.0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(-1.2, 1.0)
    with pytest.raises(AccuracyWindowError):
        bessel_j(0.0, 121.0)
    with pytest.raises(AccuracyWindowError):
        bessel_j(50.5, 1.0)
    with pytest.raises(AccuracyWindowError):
        bessel_j_derivative(0.0, 121.0)
    for x in (0.0, -1.0):
        with pytest.raises(ValueError, match="x > 0"):
            bessel_j_derivative(1.0, x)
    # (x/2)^nu / Gamma(nu + 1) at the least subnormal: e^733 at nu = -0.99
    with pytest.raises(OverflowError, match=r"J_-0\.99\(5e-324\) overflows"):
        bessel_j(-0.99, 5e-324)


def test_three_term_recurrence():
    rng = np.random.default_rng(3)
    for _ in range(60):
        nu = rng.uniform(0.2, 20.0)
        x = rng.uniform(0.3, 40.0)
        lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
        rhs = (2.0 * nu / x) * bessel_j(nu, x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_derivative_against_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(25):
        nu = rng.uniform(-0.9, 6.0)
        x = rng.uniform(0.5, 12.0)
        h = 1e-5
        fd = (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2.0 * h)
        assert bessel_j_derivative(nu, x) == pytest.approx(fd, abs=5e-9, rel=5e-9)


@pytest.mark.parametrize("nu", [-0.99, -0.5, 0.0, 0.5, 3.7])
def test_derivative_against_mpmath(nu):
    # orders <= 0 once needed a term-by-term differentiated series
    for x in (0.05, 0.7, 2.5, 9.0, 30.0):
        want = float(mpmath.besselj(nu, x, derivative=1))
        assert bessel_j_derivative(nu, x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_smallest_zero_closed_forms():
    assert abs(smallest_positive_zero(-0.5) - math.pi / 2) < 1e-12
    assert abs(smallest_positive_zero(0.5) - math.pi) < 1e-12


def test_smallest_zero_j0_against_mpmath_oracle():
    j0 = smallest_positive_zero(0.0)
    assert abs(j0 - j0_oracle()) < 1e-12
    assert j0 == pytest.approx(2.404825557695773, abs=1e-12)


@pytest.fixture
def fresh_zeros():
    """`_smallest_zero` memoises its zeros: cleared before a test, so that
    no cached zero hides a patch, and after it, so that no patched zero
    leaks into the next."""
    special._smallest_zero.cache_clear()
    yield
    special._smallest_zero.cache_clear()


def _ratio_at_points(value):
    """`_backward` as it is on the march's grid, and `value` at the single
    points of the refinement."""
    real = special._backward
    return lambda nu, x, neumann: real(nu, x, neumann) if np.ndim(x) else np.float64(value)


@pytest.mark.parametrize(
    "backward,message",
    [
        # no point of the grid has J_nu <= 0
        (lambda nu, x, neumann: np.ones_like(x), "no sign change of J_0.0 found below"),
        # g = 1 > 0 everywhere with a Newton step of about 0.6: bisection
        # walks to the bracket's end and the step never shrinks
        (_ratio_at_points(1.0), "zero refinement did not converge for nu=0.0"),
        # slope about -g^2, so the step -1/g is below 1e-12 of the root
        # while g itself is not
        (_ratio_at_points(1e13), "zero refinement stalled for nu=0.0"),
    ],
    ids=["no-sign-change", "no-convergence", "stalled"],
)
def test_zero_finder_fails_loudly(monkeypatch, fresh_zeros, backward, message):
    monkeypatch.setattr(special, "_backward", backward)
    with pytest.raises(ConvergenceError, match=message):
        smallest_positive_zero(0.0)


def test_zero_is_a_zero_and_first():
    for nu in np.linspace(-0.99, 10.0, 23):
        j = smallest_positive_zero(nu)
        assert abs(bessel_j(nu, j)) < 1e-12
        # no sign change before it
        probes = np.linspace(j * 1e-3, j * 0.995, 40)
        assert all(bessel_j(nu, t) > 0.0 for t in probes)


def test_zero_monotone_in_order():
    grid = np.linspace(-0.99, 10.0, 23)
    zeros = [smallest_positive_zero(nu) for nu in grid]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_large_order_zero():
    j = smallest_positive_zero(50.0)
    assert 50.0 < j < 60.0
    assert abs(bessel_j(50.0, j)) < 1e-12


def test_bessel_against_scipy_reference():
    # third route: scipy's jv is an entirely different algorithm
    import scipy.special as sp

    rng = np.random.default_rng(17)
    for _ in range(150):
        nu = rng.uniform(-0.99, 50.0)
        x = rng.uniform(0.0, 60.0)
        ref = float(sp.jv(nu, x))
        assert abs(bessel_j(nu, x) - ref) < 1e-13 * max(1.0, abs(ref))


def test_integer_order_zeros_against_scipy():
    import scipy.special as sp

    for k in range(0, 16):
        want = float(sp.jn_zeros(k, 1)[0])
        assert abs(smallest_positive_zero(float(k)) - want) < 1e-12


def _mp_besselj(nu, xs):
    with mpmath.workdps(40):
        return [float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x))) for x in xs]


# nu = 2 on [4, 6] and nu = 25 on [20, 40] hold zeros where the ascending
# series cancels heavily; nu -> -1+ has J large near 0.  Then the whole
# window in bins of x, each probed densely enough to meet the points where
# the start rule's margin steps up and, for nu >= 1, the turning region
# x ~ nu, where the start error dies out slowest.
_X_BINS = [(1e-8, 5.0), (5.0, 10.0), (10.0, 20.0), (20.0, 40.0), (40.0, 70.0), (70.0, 120.0)]


@pytest.mark.parametrize(
    "nu,lo,hi",
    [(2.0, 4.0, 6.0), (25.0, 20.0, 40.0), (-0.999999, 1e-6, 3.0), (-0.5, 0.05, 10.0)]
    + [(nu, lo, hi) for nu in (-0.999, -0.5, 0.0, 1.0, 2.75, 5.5, 12.0, 25.0, 50.0)
       for lo, hi in _X_BINS],
)
def test_bessel_array_against_mpmath(nu, lo, hi):
    xs = np.linspace(lo, hi, 41)
    got = bessel_j(nu, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    for x, value, ref in zip(xs, got, _mp_besselj(nu, xs)):
        assert abs(value - ref) < 1e-13 * max(1.0, abs(ref)), x


@pytest.mark.parametrize("nu", [-0.99999999, 0.0, 10.0, 25.0, 50.0])
def test_bessel_window_edge_against_mpmath(nu):
    # The backward recurrence must start far enough above x: a margin of
    # 40 orders leaves errors of about 1e-6 here.
    xs = np.linspace(100.0, 120.0, 81)
    got = bessel_j(nu, xs)
    for x, value, ref in zip(xs, got, _mp_besselj(nu, xs)):
        assert abs(value - ref) < 1e-13 * max(1.0, abs(ref)), x


def test_bessel_recurrence_failure_is_loud(monkeypatch):
    # With the start pulled down to order 11.5 (m = 10 above mu = 1.5),
    # below x ~ 22, the second downward step divides by
    # 2 (nu + 10) - x r = 21 - x (x / 23), which vanishes exactly at
    # x = sqrt(21 * 23); the non-finite value must raise rather than be
    # returned.
    monkeypatch.setattr(special, "_start", lambda nu, x: np.full_like(x, 10.0))
    x = math.sqrt(21.0 * 23.0)
    assert 21.0 - x * (x / 23.0) == 0.0
    with pytest.raises(ConvergenceError):
        bessel_j(0.5, x)
    with pytest.raises(ConvergenceError):
        bessel_j(0.5, np.array([3.0, x]))


def test_bessel_array_matches_scalar_calls():
    xs = np.array([[0.0, 0.5, 5.1], [5.2, 37.0, 119.0]])
    for nu in (-0.99, -0.5, 0.0, 2.0, 25.0, 50.0):
        got = bessel_j(nu, xs)
        assert got.shape == xs.shape
        assert got.tolist() == [[bessel_j(nu, x) for x in row] for row in xs]


@pytest.mark.parametrize("neumann", [False, True])
def test_backward_on_a_float64_matches_a_0d_array(neumann):
    # The zero finder's Newton steps run on np.float64 points: the same
    # operations on numpy scalars must give the 0-d array's bits.
    for nu in (-0.999999, -0.95, -0.5, 0.0, 0.5, 5.5, 24.5, 49.5, 50.0):
        for x in (1e-12, 0.03, 0.7, 2.404825557695773, 9.9, 37.0, 71.3, 119.0):
            got = special._backward(nu, np.float64(x), neumann)
            want = special._backward(nu, np.asarray(x), neumann)
            assert float(got).hex() == float(want).hex(), (nu, x)


def test_bessel_array_with_origin():
    assert bessel_j(0.0, np.array([0.0, 0.0])).tolist() == [1.0, 1.0]
    assert bessel_j(2.3, np.array([1.0, 0.0]))[1] == 0.0
    assert bessel_j(-0.5, np.array([0.0, 1.0]))[0] == math.inf
    assert bessel_j(1.0, np.array([])).shape == (0,)


def test_bessel_array_domain_and_window():
    with pytest.raises(ValueError):
        bessel_j(0.0, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        bessel_j(0.0, np.array([1.0, math.nan]))
    with pytest.raises(AccuracyWindowError):
        bessel_j(0.0, np.array([1.0, 121.0]))
    with pytest.raises(AccuracyWindowError):
        bessel_j(50.5, np.array([1.0]))


def test_bessel_at_subnormal_x():
    # x/2 underflows to zero here; the series must not take its log
    assert bessel_j(0.0, 5e-324) == 1.0
    assert bessel_j(2.0, np.array([5e-324, 1e-300])).tolist() == [0.0, 0.0]
    want = math.sqrt(2.0 / math.pi) / math.sqrt(5e-324)  # 2/(pi x) overflows
    assert bessel_j(-0.5, 5e-324) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "nu",
    [-0.99999999, -0.9999, -0.999, -0.99, -0.9, -0.5, 10.3, 37.7]
    + np.linspace(0.0, 50.0, 21).tolist(),
)
def test_zero_against_mpmath(nu):
    # Below nu ~ -0.9975 j_nu lies under the first march point; mpmath's
    # besseljzero takes only nu >= 0, so negative orders polish a root.
    # The march grid and the Newton points of the orders up to 50 run
    # from x ~ 0.1 to j_50 ~ 57, across several steps of the start rule.
    got = smallest_positive_zero(nu)
    with mpmath.workdps(30):
        if nu >= 0.0:
            ref = float(mpmath.besseljzero(nu, 1))
        else:
            ref = float(mpmath.findroot(lambda x: mpmath.besselj(nu, x), got))
    assert abs(got - ref) <= 1e-13 * max(1.0, ref)


@pytest.mark.parametrize("nu", [-0.9999999999999999, -0.9999999999999998])
def test_least_orders_above_minus_one_against_mpmath(nu):
    # mu = nu + 1 lies below ulp(2), where the Neumann coefficient ratio
    # (mu + 2) mu / mu rounded to 0 / 0; alpha = -1 + 2^-52 has such an order.
    xs = np.array([1e-3, 0.5, 2.0, 5.0])
    with mpmath.workdps(40):
        want = [float(mpmath.besselj(nu, x)) for x in xs]
        zero = smallest_positive_zero(nu)
        ref = float(mpmath.findroot(lambda x: mpmath.besselj(nu, x), zero))
    assert bessel_j(nu, xs) == pytest.approx(want, rel=1e-14)
    assert zero == pytest.approx(ref, rel=1e-13)
