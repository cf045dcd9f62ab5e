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
def test_rayleigh_bound_fails_under_perturbation(perturb):
    # random vectors stay far below M_n^2 either way; the extremal vector
    # on the perturbed raw pencil is 12-15% off
    assert not _outcomes(perturb=perturb)["rayleigh_bound"]
