"""Property test: sharp_constant never returns NaN or inf, near the edges
of the weight range included; it returns a certified value or raises a
documented exception."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mblab import ConvergenceError, JacobiWeightParams, sharp_constant

# Exponents anywhere in (-1, 50], and often just above -1, where the
# weight is barely integrable and alpha + beta -> -2 when both are there.
EXPONENT = st.one_of(
    st.floats(min_value=-1.0, max_value=50.0, exclude_min=True),
    st.floats(min_value=-1.0, max_value=-0.9, exclude_min=True),
    st.integers(min_value=1, max_value=12).map(lambda k: -1.0 + 10.0**-k),
)


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
