"""The cross-module checks of `mblab verify` pass on the package and fail
under the negative-control perturbation."""

import pytest

from mblab.verification import CHECK_NAMES, run_verification


def _outcomes(**kwargs):
    return {check.name: check.passed for check in run_verification(**kwargs)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_check_passes(seed):
    outcomes = _outcomes(seed=seed)
    assert list(outcomes) == CHECK_NAMES
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("perturb", [1e-3, -1e-3, 1e300])
@pytest.mark.parametrize(
    "check", ["particular_support", "rayleigh_bound", "small_n_oracle_equivalence"]
)
def test_residual_checks_fail_under_perturbation(check, perturb):
    # K2's superdiagonal scaled by 1 +- 1e-3 (h2 of H with it, h1 moving
    # too): the support leaks on branch 2 of every case, the extremal
    # vector's quotient is off M_n^2 by about 0.08% while random vectors
    # stay far below it, and the oracle defect is about 2e-3 (1.99e-3 at
    # +1e-3) against 1e-10.  Scaled by 1e300 the bands leave double
    # range: the oracle's solve raises, and the check fails with its message
    assert not _outcomes(perturb=perturb)[check]
