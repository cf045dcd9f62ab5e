"""The cross-module checks of `mblab verify` pass on the package and fail
under the negative-control perturbation."""

import dataclasses
import json
import math

import pytest

from mblab import verification
from mblab.verification import CHECK_NAMES, run_verification


def _outcomes(**kwargs):
    results = run_verification(**kwargs)
    # `passed` is a Python bool, not numpy's, which json cannot encode
    assert all(type(r.passed) is bool for r in results)
    json.dumps([dataclasses.asdict(r) for r in results])
    return {r.name: r.passed for r in results}


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


@pytest.mark.parametrize(
    "kwargs,error,message",
    [
        ({"seed": 1.5}, TypeError, "seed must be >= 0 as an integer, got 1.5"),
        ({"seed": True}, TypeError, "seed must be >= 0 as an integer, got True"),
        ({"seed": -1}, ValueError, "seed must be >= 0, got -1"),
        ({"perturb": math.nan}, ValueError, "perturb must be finite, got nan"),
        ({"perturb": -math.inf}, ValueError, "perturb must be finite, got -inf"),
    ],
    ids=["float-seed", "bool-seed", "negative-seed", "nan-perturb", "infinite-perturb"],
)
def test_arguments_are_refused_before_any_check(monkeypatch, kwargs, error, message):
    # With no check left to run, only the arguments' own checks can refuse
    monkeypatch.setattr(verification, "_CHECKS", {})
    with pytest.raises(error, match=message):
        run_verification(**kwargs)
