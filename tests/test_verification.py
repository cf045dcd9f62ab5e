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


@pytest.mark.parametrize("perturb", [1e-3, -1e-3])
@pytest.mark.parametrize(
    "check", ["particular_support", "rayleigh_bound", "small_n_oracle_equivalence"]
)
def test_residual_checks_fail_under_perturbation(check, perturb):
    # h2 of H scaled by 1 +- 1e-3: every case's support leaks (worst head
    # row 2e-4 or more against 1e-8), the extremal vector's quotient moves
    # by about 0.6% while random vectors stay far below M_n^2, and the
    # oracle defect is about 2.6e-3 against 1e-10
    assert not _outcomes(perturb=perturb)[check]
