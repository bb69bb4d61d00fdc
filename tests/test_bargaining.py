import math

import pytest

from revshare import bargaining
from revshare.bargaining import (
    coalition_values,
    disagreement_point,
    nbs_split_closed,
    shapley_closed,
)
from revshare.closed_form import (
    solve_regulated_competitive,
    solve_regulated_cooperative,
)
from revshare.model import (
    Branch,
    DegenerateRegimeError,
    DisagreementPolicy,
    InfeasibleBargainError,
)
from revshare.verify import _check_nbs_split

from conftest import bisection_w

E = math.e


def _branch_inputs(r, c1, c2, branch):
    out = solve_regulated_cooperative(r, c1, c2, branch)
    cb = c1 if branch is Branch.ISP1 else c2
    a1, a2 = out.efforts.efforts
    return out.contract.joint_share, a1, a2, cb


class TestNbsSplitClosed:
    def test_symmetric_inputs_split_evenly(self):
        beta, a1, a2, cb = _branch_inputs(10.0, 0.5, 0.5, Branch.ISP1)
        split = nbs_split_closed(beta, a1, a2, 0.0, 0.0, 10.0, 0.5, 0.5, cb)
        assert split.beta1 == pytest.approx(beta / 2.0, abs=1e-14)
        assert split.beta2 == pytest.approx(beta / 2.0, abs=1e-14)
        assert not split.clamped

    def test_equal_surplus_at_interior_split(self):
        beta, a1, a2, cb = _branch_inputs(10.0, 0.5, 1.0, Branch.ISP1)
        split = nbs_split_closed(beta, a1, a2, 0.1, 0.3, 10.0, 0.5, 1.0, cb)
        revenue = 10.0 * math.log(beta * 10.0 / cb)
        f1 = split.beta1 * revenue - 0.5 * a1 - 0.1
        f2 = split.beta2 * revenue - 1.0 * a2 - 0.3
        assert f1 == pytest.approx(f2, abs=1e-9)
        assert f1 >= -1e-10

    def test_conservation(self):
        beta, a1, a2, cb = _branch_inputs(10.0, 0.5, 1.0, Branch.ISP2)
        split = nbs_split_closed(beta, a1, a2, 0.05, 0.05, 10.0, 0.5, 1.0, cb)
        assert split.beta1 + split.beta2 == pytest.approx(beta, abs=1e-12)

    def test_matches_one_dimensional_nash_product_maximization(self):
        assert _check_nbs_split(30, seed=23).figures["split_gap"] < 1e-8

    def test_regulated_branch_with_competitive_disagreement_is_infeasible(self):
        # The effort-follows-share regulation loads effort onto the costlier
        # ISP, so the cooperative coalition nets less than the competitive
        # utilities sum to (1.711 < 3.556 at this point) and the bargain has
        # nothing to share out on either branch.
        d1, d2 = disagreement_point(DisagreementPolicy.regulated_competitive(),
                                    10.0, 0.5, 1.0)
        for branch in (Branch.ISP1, Branch.ISP2):
            beta, a1, a2, cb = _branch_inputs(10.0, 0.5, 1.0, branch)
            with pytest.raises(InfeasibleBargainError):
                nbs_split_closed(beta, a1, a2, d1, d2, 10.0, 0.5, 1.0, cb)

    def test_zero_slack_returns_reservation_split_with_flag(self):
        beta, a1, a2, cb = _branch_inputs(10.0, 0.5, 1.0, Branch.ISP1)
        revenue = 10.0 * math.log(beta * 10.0 / cb)
        surplus = beta * revenue - 0.5 * a1 - 1.0 * a2
        d1 = 0.25 * surplus
        d2 = surplus - d1
        split = nbs_split_closed(beta, a1, a2, d1, d2, 10.0, 0.5, 1.0, cb)
        assert split.clamped
        assert split.beta1 == pytest.approx((0.5 * a1 + d1) / revenue, abs=1e-10)
        assert split.beta1 + split.beta2 == pytest.approx(beta, abs=1e-12)

    def test_rejects_non_positive_log_factor(self):
        with pytest.raises(ValueError):
            nbs_split_closed(0.1, 1.0, 1.0, 0.0, 0.0, 10.0, 0.5, 1.0, 2.0)


class TestDisagreementPoint:
    def test_zero(self):
        assert disagreement_point(DisagreementPolicy.zero(), 10.0, 0.5, 1.0) == (0.0, 0.0)

    def test_custom_passthrough(self):
        policy = DisagreementPolicy.custom(1.5, 2.0)
        assert disagreement_point(policy, 10.0, 0.5, 1.0) == (1.5, 2.0)

    def test_regulated_competitive(self):
        d1, d2 = disagreement_point(DisagreementPolicy.regulated_competitive(),
                                    10.0, 0.5, 1.0)
        out = solve_regulated_competitive(10.0, 0.5, 1.0)
        assert d1 == pytest.approx(out.isp_utilities[0], rel=1e-12)
        assert d2 == pytest.approx(out.isp_utilities[1], rel=1e-12)
        assert d1 == pytest.approx(1.42071652085083, abs=1e-9)
        assert d2 == pytest.approx(2.1351246354604, abs=1e-9)

    def test_degenerate_regime_raises(self):
        with pytest.raises(DegenerateRegimeError):
            disagreement_point(DisagreementPolicy.regulated_competitive(),
                               1.0, 0.5, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DisagreementPolicy("whatever")


class TestShapley:
    def test_coalition_values_match_oracle_w(self):
        values = coalition_values(10.0, 0.5, 1.0, Branch.ISP1)
        w1 = bisection_w(10.0 * E / 0.5)
        w2 = bisection_w(10.0 * E / 1.0)
        assert values[frozenset({1})] == pytest.approx(10 * (1 - 2 / w1) + 0.5, abs=1e-9)
        assert values[frozenset({2})] == pytest.approx(10 * (1 - 2 / w2) + 1.0, abs=1e-9)
        a1 = solve_regulated_cooperative(10.0, 0.5, 1.0, Branch.ISP1).efforts.efforts[0]
        assert values[frozenset({1, 2})] == pytest.approx(
            10 * (1 - 2 / w2) + a1 * 0.5 + 1.0, abs=1e-9)

    def test_brute_values_and_reported_discrepancy_branch_isp1(self):
        report = shapley_closed(10.0, 0.5, 1.0, Branch.ISP1)
        assert report.phi1 == pytest.approx(2.31580295250659, abs=1e-9)
        assert report.phi2 == pytest.approx(1.39055481791391, abs=1e-9)
        assert report.closed_phi1 == pytest.approx(-5.47573343827262, abs=1e-9)
        assert report.closed_phi2 == pytest.approx(1.86633947571157, abs=1e-9)
        assert not report.matches_brute
        assert report.discrepancy == pytest.approx(
            abs(report.closed_phi1 - report.phi1), rel=1e-12)

    def test_brute_values_branch_isp2(self):
        report = shapley_closed(10.0, 0.5, 1.0, Branch.ISP2)
        assert report.phi1 == pytest.approx(2.09010192003194, abs=1e-9)
        assert report.phi2 == pytest.approx(1.16485378543926, abs=1e-9)

    def test_efficiency_is_exact(self):
        values = coalition_values(10.0, 0.5, 1.0, Branch.ISP1)
        report = shapley_closed(10.0, 0.5, 1.0, Branch.ISP1)
        assert report.phi1 + report.phi2 == pytest.approx(
            values[frozenset({1, 2})], abs=1e-12)

    @pytest.mark.parametrize("branch", [Branch.ISP1, Branch.ISP2])
    def test_each_w_is_evaluated_once(self, monkeypatch, branch):
        # the coalition values and the closed forms share W(r*e/c1) and W(r*e/c2)
        calls = []
        real = bargaining.lambert_w0_ratio

        def counted(r, c):
            calls.append((r, c))
            return real(r, c)

        monkeypatch.setattr(bargaining, "lambert_w0_ratio", counted)
        shapley_closed(10.0, 0.5, 1.0, branch)
        assert calls == [(10.0, 0.5), (10.0, 1.0)]

    def test_symmetric_costs_split_equally(self):
        report = shapley_closed(10.0, 0.8, 0.8, Branch.ISP1)
        assert report.phi1 == pytest.approx(report.phi2, abs=1e-12)

    def test_degenerate_regime_raises(self):
        with pytest.raises(DegenerateRegimeError):
            shapley_closed(0.9, 0.5, 1.0, Branch.ISP1)
