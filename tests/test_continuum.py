import json
import math
from pathlib import Path

import numpy as np
import pytest

from mblab import (
    JacobiWeightParams,
    ProfileBranch,
    bessel_j,
    convergence_study,
    ode_residual,
    profile_compare,
    profile_y,
    root_condition_min_l,
    sharp_constant,
    smallest_positive_zero,
    solve,
)
from mblab.eigensolver import _block_size

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

P00 = JacobiWeightParams(0.0, 0.0)
P11 = JacobiWeightParams(1.0, 1.0)


def test_branch_validation():
    with pytest.raises(ValueError):
        ProfileBranch(j=3, b=1.0, l=1.0)
    with pytest.raises(ValueError):
        ProfileBranch(j=1, b=1.0, l=0.0)
    with pytest.raises(ValueError):
        ProfileBranch(j=1, b=-1.2, l=1.0)
    assert ProfileBranch(j=1, b=2.0, l=1.0).nu == 0.5


def test_profile_unit_exponent_reduces_to_bessel():
    # b = 1 gives nu = 0 and the prefactor collapses to 2
    br = ProfileBranch(j=1, b=1.0, l=7.0)
    for t in (0.2, 0.6, 1.0):
        want = 2.0 * t * bessel_j(0.0, math.sqrt(7.0) * t * t / 2.0)
        assert profile_y(br, t) == pytest.approx(want, rel=1e-13)


def test_profile_vanishes_at_matched_root():
    for b in (0.0, 1.0, 2.5):
        nu = (b - 1.0) / 2.0
        l = (2.0 * smallest_positive_zero(nu)) ** 2
        br = ProfileBranch(j=1, b=b, l=l)
        assert abs(profile_y(br, 1.0)) < 1e-11


def test_profile_small_t_matching():
    # y / t^b -> 2 with an O(t^4 l) relative correction, so the defect
    # drops ~16x per halving of t
    for b, l in [(1.0, 10.0), (2.5, 23.0), (-0.5, 4.0)]:
        br = ProfileBranch(j=1, b=b, l=l)
        defects = [abs(profile_y(br, t) / t**b - 2.0) for t in (0.02, 0.01, 0.005)]
        assert defects[0] > defects[1] > defects[2]
        for d1, d2 in zip(defects, defects[1:]):
            assert 14.0 < d1 / d2 < 18.0


def test_profile_derivative_matching():
    # 2 t y'(t) / t^b -> 4 b (third component of the limiting vector)
    for b in (1.0, 2.5):
        br = ProfileBranch(j=1, b=b, l=10.0)
        for t in (0.02, 0.01, 0.005):
            h = t / 20.0
            stencil = [profile_y(br, t + i * h) for i in (-2, -1, 1, 2)]
            d1 = (-stencil[3] + 8 * stencil[2] - 8 * stencil[1] + stencil[0]) / (12 * h)
            assert abs(2 * t * d1 / t**b - 4.0 * b) < 1e-3


def test_profile_domain():
    br = ProfileBranch(j=1, b=1.0, l=1.0)
    with pytest.raises(ValueError):
        profile_y(br, 0.0)


@pytest.mark.parametrize("b", [-0.5, 0.0, 1.0, 2.5])
@pytest.mark.parametrize("l", [4.0, 23.13, 100.0])
def test_ode_residual_grid(b, l):
    br = ProfileBranch(j=1, b=b, l=l)
    for t in (0.1, 0.5, 1.0):
        assert ode_residual(br, t) < 1e-6


def test_ode_residual_examples_and_control():
    assert ode_residual(ProfileBranch(j=1, b=1.0, l=10.0), 0.5) < 1e-6
    assert ode_residual(ProfileBranch(j=1, b=0.0, l=4 * math.pi**2), 1.0) < 1e-6
    # the profile of one l does not solve the ODE of another
    br = ProfileBranch(j=1, b=1.0, l=10.0)
    assert ode_residual(br, 0.5, l=2 * br.l) > 0.1


def test_predicted_constant_values():
    assert sharp_constant(P00, 10).predicted == pytest.approx(100.0 / math.pi, rel=1e-13)
    # the smaller of the two orders rules
    assert sharp_constant(JacobiWeightParams(0.0, 2.0), 10).predicted == pytest.approx(
        100.0 / math.pi, rel=1e-13
    )
    assert sharp_constant(P11, 10).predicted == pytest.approx(
        100.0 / (2.0 * 2.404825557695773), rel=1e-12
    )


def test_root_condition_values():
    assert root_condition_min_l(P00) == pytest.approx(math.pi**2, rel=1e-12)
    j0 = 2.404825557695773
    assert root_condition_min_l(P11) == pytest.approx((2 * j0) ** 2, rel=1e-12)
    assert root_condition_min_l(P11) == pytest.approx(23.132745, abs=1e-5)
    # min rule: (3,1) has nu* = nu(1) = 0, same as (1,1)
    assert root_condition_min_l(JacobiWeightParams(3.0, 1.0)) == pytest.approx(
        root_condition_min_l(P11), rel=1e-13
    )


def test_profile_compare_branch_selection():
    c = profile_compare(JacobiWeightParams(1.0, 0.0), 100)
    assert c.branch == 2 and not c.degenerate
    c = profile_compare(JacobiWeightParams(0.0, 1.0), 100)
    assert c.branch == 1 and not c.degenerate
    c = profile_compare(P00, 100)
    assert c.branch == 1 and c.degenerate
    with pytest.raises(ValueError):
        profile_compare(P00, 30)


@pytest.mark.parametrize(
    "alpha,beta,branch", [(-0.5, -0.5 + 2.0**-54, 1), (-0.5 + 2.0**-54, -0.5, 2)]
)
def test_profile_compare_follows_the_smaller_exponent_where_the_orders_round_equal(
    alpha, beta, branch
):
    p = JacobiWeightParams(alpha, beta)
    assert p.nu_alpha == p.nu_beta
    c = profile_compare(p, 60)
    assert c.branch == branch and not c.degenerate


def test_profile_compare_converges():
    defects = {}
    for n in (100, 200):
        c = profile_compare(P00, n)
        defects[n] = c.sup_defect
        assert np.max(np.abs(c.discrete)) == pytest.approx(1.0)
        assert np.max(np.abs(c.closed_form)) == pytest.approx(1.0)
        assert len(c.t) == len(c.discrete) == len(c.closed_form)
    assert defects[200] < defects[100] < 0.1


# Sup defects by perfbench/oracle.py (smallest_eigenpair, then
# sup_defect) at 50 digits, outside the benchmark's reference table.
# Without the smoothing solves one vector misses these by 1.1e-9,
# 3.8e-10 and 3.7e-10.
EXTRA_SUP_DEFECTS = {
    "4.0,9.0,400": "0.106768014358351049151202872176",
    "12.0,6.5,400": "0.194401907860996628128699621373",
    "12.0,3.0,400": "0.111395603961756333484601625825",
    "12.0,3.0,199": "0.206433160413585961247838028702",
    # the w of the iteration on the parity half lay 3.9e-9 off here, and
    # 2.7e-10 and 1.2e-8 off at the next two; the bracket's w meets them
    "12.0,12.0,200": "0.546352594352759154877818428674",
    "49.5,49.5,120": "0.791656175054221976499350911465",
    "100.0,100.0,200": "0.855021524309006983566616371075",
}


def test_sup_defect_matches_50_digit_reference():
    # Sup defects recomputed from a 50-digit eigenpair that shares no code
    # with mblab (measured worst difference 6.8e-13, at (0.3, 1.7, 4000)).
    cases = json.loads(REFERENCE.read_text())["sup_defect"]
    assert len(cases) == 13
    for key, value in {**cases, **EXTRA_SUP_DEFECTS}.items():
        alpha, beta, n = key.split(",")
        c = profile_compare(JacobiWeightParams(float(alpha), float(beta)), int(n))
        assert abs(c.sup_defect - float(value)) <= 1e-11, key


def test_sup_defect_of_two_smoothed_vectors():
    # The predicted limits lie 1.198 apart, below the one-vector ratio, so
    # the iteration carries two vectors; the one pinned sup defect that
    # does.  50-digit value as for EXTRA_SUP_DEFECTS.
    p = JacobiWeightParams(1.0, 1.3)
    assert _block_size(p) == 2 and solve(p, 400).iterations == 6
    c = profile_compare(p, 400)
    assert abs(c.sup_defect - float("0.00198883594673229826381930274136")) <= 5e-11


def test_profile_y_array_matches_scalar_calls():
    br = ProfileBranch(j=2, b=8.0, l=130.0)
    ts = np.linspace(0.05, 1.0, 30)
    assert profile_y(br, ts).tolist() == [profile_y(br, t) for t in ts]
    assert isinstance(profile_y(br, 0.5), float)
    with pytest.raises(ValueError):
        profile_y(br, np.array([0.5, 0.0]))


def test_profile_compare_l_star_near_root_condition():
    c = profile_compare(P00, 200)
    assert c.l_star == pytest.approx(root_condition_min_l(P00), rel=0.05)


def test_convergence_study():
    reports = convergence_study(P00, [20, 40, 80])
    assert [r.n for r in reports] == [20, 40, 80]
    defects = [abs(r.ratio - 1.0) for r in reports]
    assert defects[2] < defects[0]
    with pytest.raises(ValueError):
        convergence_study(P00, [40, 20])


def test_convergence_study_outside_restriction_is_exploratory():
    # |alpha - beta| >= 4: data is produced but nothing is asserted
    # about the ratio column
    reports = convergence_study(JacobiWeightParams(0.0, 6.0), [20, 40])
    assert len(reports) == 2
    assert all(np.isfinite(r.ratio) for r in reports)


def test_eigenvalue_to_root_defect_decreases():
    for p in (P00, JacobiWeightParams(1.0, 0.5)):
        l_inf = root_condition_min_l(p)
        defs = [
            abs(r.lambda_min * r.n**4 - l_inf) for r in convergence_study(p, [50, 100, 200])
        ]
        assert defs[0] > defs[1] > defs[2]
