"""Property tests: the solve entry points never return NaN or inf, near
the edges of the weight range included; they return a certified value or
raise a documented exception.  The CLI's rows are finite, and a sweep row
is the `constant` row of the same problem."""

import contextlib
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mblab import (
    ConvergenceError,
    bessel_j,
    JacobiWeightParams,
    extremal_polynomial,
    norm_ratio,
    profile_compare,
    raising_coefficient,
    scaled_pencil,
    sharp_constant,
    smallest_eigenpair,
    solve,
)
from mblab import eigensolver
from mblab.cli import main

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
        sp = scaled_pencil(JacobiWeightParams(alpha, beta), n)
        result = smallest_eigenpair(sp)
    except (ConvergenceError, ValueError):
        return
    assert math.isfinite(result.lambda_min) and result.lambda_min > 0.0
    assert math.isfinite(result.residual)
    upper = math.sqrt(result.lambda_min * (1 + 1e-12))
    assert eigensolver._count_below(sp, upper) >= 1
    assert abs(math.sqrt(float(np.sum(result.w * result.w))) - 1.0) <= 1e-12
    assert np.all(np.isfinite(result.w))


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
    coeffs = raising_coefficient(params, np.arange(1, n))
    assert coeffs.tolist() == [raising_coefficient(params, k) for k in range(1, n)]
    with pytest.raises(ValueError):
        raising_coefficient(params, np.arange(n))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nu=st.floats(min_value=-1.0, max_value=50.0, exclude_min=True),
    xs=st.lists(st.floats(min_value=0.0, max_value=120.0), max_size=12),
)
def test_bessel_j_array_matches_scalar(nu, xs):
    # J_nu(x) leaves double range for nu < 0 and subnormal x.
    try:
        want = [bessel_j(nu, x) for x in xs]
    except OverflowError:
        with pytest.raises(OverflowError):
            bessel_j(nu, np.array(xs))
        return
    assert bessel_j(nu, np.array(xs)).tolist() == want


# The CLI, run in process: exponents in (-1, 12], often just above -1,
# and ascending degree lists in [2, 200].
CLI_EXPONENT = st.one_of(
    st.floats(min_value=-1.0, max_value=12.0, exclude_min=True),
    st.floats(min_value=-1.0, max_value=-0.9, exclude_min=True),
    st.integers(min_value=1, max_value=16).map(lambda k: -1.0 + 10.0**-k),
)
DEGREES = st.lists(
    st.integers(min_value=2, max_value=200), min_size=1, max_size=4, unique=True
).map(sorted)


def _cli(argv):
    """(exit code, stdout) of one in-process `mblab` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _weight_argv(alpha, beta):
    # "--alpha=-0.5": argparse would read a separate "-0.5" as a flag.
    return [f"--alpha={alpha!r}", f"--beta={beta!r}"]


def _accepted(alpha, beta):
    """False for the exponents next to -1 that JacobiWeightParams refuses
    (exit 1)."""
    try:
        JacobiWeightParams(alpha, beta)
    except ValueError:
        return False
    return True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=CLI_EXPONENT, beta=CLI_EXPONENT, ns=DEGREES)
@example(alpha=-0.9999999999999999, beta=0.3, ns=[2, 200])
@example(alpha=-0.9999999999999998, beta=12.0, ns=[2, 3, 199, 200])
def test_cli_asymptotics_rows_are_finite_and_positive(alpha, beta, ns):
    code, out = _cli(
        ["asymptotics", *_weight_argv(alpha, beta), "--n-list", ",".join(map(str, ns)),
         "--format", "csv"]
    )
    if not _accepted(alpha, beta):
        assert (code, out) == (1, "")
        return
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["n"]) for row in rows] == ns
    for row in rows:
        for key in ("lambda_min", "ratio"):
            value = float(row[key])
            assert math.isfinite(value) and value > 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=CLI_EXPONENT, beta=CLI_EXPONENT, ns=DEGREES)
@example(alpha=-0.9999999999999999, beta=0.3, ns=[2, 200])
@example(alpha=-0.9999999999999998, beta=12.0, ns=[2, 3, 199, 200])
def test_cli_sweep_rows_equal_constant_rows(alpha, beta, ns):
    weight = _weight_argv(alpha, beta)
    code, out = _cli(
        ["sweep", *weight, "--n", ",".join(map(str, ns)), "--parallel", "1", "--format", "csv"]
    )
    if not _accepted(alpha, beta):
        assert (code, out) == (1, "")
        return
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == len(ns)
    for n, row in zip(ns, rows):
        solve.cache_clear()  # each command makes its own solve
        code, out = _cli(["constant", *weight, "--n", str(n), "--format", "csv"])
        assert code == 0
        assert out.splitlines() == [header, row]
