"""Property tests: the solve entry points never return NaN or inf, near
the edges of the weight range included; they return a certified value or
raise a documented exception."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mblab import (
    ConvergenceError,
    JacobiWeightParams,
    extremal_polynomial,
    norm_ratio,
    profile_compare,
    scaled_pencil,
    sharp_constant,
    smallest_eigenpair,
)

# Exponents anywhere in (-1, 50], and often just above -1, where the
# weight is barely integrable and alpha + beta -> -2 when both are there.
EXPONENT = st.one_of(
    st.floats(min_value=-1.0, max_value=50.0, exclude_min=True),
    st.floats(min_value=-1.0, max_value=-0.9, exclude_min=True),
    st.integers(min_value=1, max_value=12).map(lambda k: -1.0 + 10.0**-k),
)
# JacobiWeightParams refuses -0.9999999999999999, whose Bessel order
# (x - 1)/2 rounds to -1.
VALID = EXPONENT.filter(lambda x: x > -0.9999999999999999)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=EXPONENT, beta=EXPONENT, n=st.integers(min_value=1, max_value=2000))
def test_sharp_constant_is_finite_or_raises(alpha, beta, n):
    try:
        report = sharp_constant(JacobiWeightParams(alpha, beta), n)
    except (ConvergenceError, ValueError):
        return
    assert math.isfinite(report.lambda_min) and report.lambda_min > 0.0
    assert math.isfinite(report.residual)
    assert math.isfinite(report.m_n)


# A Rayleigh-Ritz on the Gram matrix of a non-orthonormal basis failed
# the certificate at the two pinned examples.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=EXPONENT, beta=EXPONENT, n=st.integers(min_value=1, max_value=2000))
@example(alpha=-0.95, beta=12.0, n=200)
@example(alpha=12.0, beta=-0.95, n=200)
def test_smallest_eigenpair_is_certified_or_raises(alpha, beta, n):
    try:
        result = smallest_eigenpair(scaled_pencil(JacobiWeightParams(alpha, beta), n))
    except (ConvergenceError, ValueError):
        return
    assert math.isfinite(result.lambda_min) and result.lambda_min > 0.0
    assert math.isfinite(result.residual)
    assert result.multiplicity >= 1
    assert abs(math.sqrt(float(np.sum(result.w * result.w))) - 1.0) <= 1e-12
    assert np.all(np.isfinite(result.eigenvector))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=EXPONENT, beta=EXPONENT, n=st.integers(min_value=1, max_value=2000))
@example(alpha=-0.95, beta=12.0, n=200)
def test_extremal_polynomial_is_finite_or_raises(alpha, beta, n):
    try:
        u, v, m_n = extremal_polynomial(JacobiWeightParams(alpha, beta), n)
    except (ConvergenceError, ValueError):
        return
    assert u.shape == v.shape == (n,)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    assert math.isfinite(m_n) and m_n > 0.0


# profile_compare raises ValueError below n = 50.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=EXPONENT, beta=EXPONENT, n=st.integers(min_value=1, max_value=2000))
@example(alpha=-0.95, beta=12.0, n=200)
def test_profile_compare_is_finite_or_raises(alpha, beta, n):
    try:
        result = profile_compare(JacobiWeightParams(alpha, beta), n)
    except (ConvergenceError, ValueError):
        return
    assert math.isfinite(result.sup_defect)
    assert math.isfinite(result.l_star) and result.l_star > 0.0
    assert np.all(np.isfinite(result.discrete)) and np.all(np.isfinite(result.closed_form))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=VALID, beta=VALID, n=st.integers(min_value=1, max_value=300))
def test_norm_ratio_array_matches_scalar(alpha, beta, n):
    params = JacobiWeightParams(alpha, beta)
    ratios = norm_ratio(params, np.arange(n))
    assert ratios.tolist() == [norm_ratio(params, k) for k in range(n)]
