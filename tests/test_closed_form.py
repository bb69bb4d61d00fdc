import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revshare.closed_form import (
    SOLVERS,
    solve_asymmetric_competitive,
    solve_fixed_public_effort_coop,
    solve_multi_cp,
    solve_public_private,
    solve_public_private_regulated,
    solve_regulated_competitive,
    solve_regulated_cooperative,
    solve_regulated_cooperative_cp_preferred,
    solve_symmetric_competitive,
    solve_symmetric_cooperative,
)
from revshare.model import (
    Branch,
    InfeasibleEffortError,
    NonFiniteOutcomeError,
    ScenarioKind,
    pin_cost,
)
from revshare.verify import _check_foc_residuals

from conftest import grid_then_golden_max

E = math.e

# All expected values below were frozen from the bisection-W oracle
# (tests/conftest.py) and direct evaluation of the equilibrium formulas.
W_20E = 2.9230907433218          # W(10e/0.5)
W_10E = 2.419163339912           # W(10e/1.0)
W_10E_OVER_15 = 2.13748846129584  # W(10e/1.5)


class TestPublicPrivate:
    def test_degenerate_below_private_cost(self):
        out = solve_public_private(10.0, 1.0, 12.0)
        assert out.degenerate
        assert out.total_effort == 0.0
        assert out.cp_utility == 0.0

    def test_reference_point(self):
        out = solve_public_private(10.0, 1.0, 0.5)
        assert out.contract.shares[0] == 0.0
        assert out.contract.shares[1] == pytest.approx(0.34210364569921, abs=1e-12)
        assert out.efforts.efforts == (0.0, pytest.approx(5.84207291398419, abs=1e-10))
        assert out.cp_utility == pytest.approx(12.6519438902101, abs=1e-9)
        assert out.isp_utilities[0] == 0.0
        assert out.isp_utilities[1] == pytest.approx(3.65792708601584, abs=1e-9)
        # the closed per-ISP form r*(1 - 2/W) + c2 agrees with the direct one
        assert out.isp_utilities[1] == pytest.approx(
            10.0 * (1.0 - 2.0 / W_20E) + 0.5, abs=1e-9)

    def test_public_cost_is_irrelevant(self):
        a = solve_public_private(10.0, 0.01, 0.5)
        b = solve_public_private(10.0, 50.0, 0.5)
        assert a.contract == b.contract
        assert a.efforts == b.efforts

    def test_leader_foc(self):
        out = solve_public_private(10.0, 1.0, 0.5)
        beta2 = out.contract.shares[1]
        assert math.log(beta2 * 10.0 / 0.5) == pytest.approx(
            (1.0 - beta2) / beta2, abs=1e-9)


class TestPublicPrivateRegulated:
    def test_zero_imposed_effort_reduces_to_unregulated(self):
        reg = solve_public_private_regulated(10.0, 1.0, 0.5, 0.0)
        free = solve_public_private(10.0, 1.0, 0.5)
        assert reg.contract.shares[1] == pytest.approx(free.contract.shares[1], abs=1e-14)
        assert reg.total_effort == pytest.approx(free.total_effort, abs=1e-12)

    def test_reference_point(self):
        out = solve_public_private_regulated(10.0, 1.0, 0.5, 1.0)
        assert out.contract.shares[0] == pytest.approx(0.0519996263032639, abs=1e-12)
        assert out.efforts.efforts[1] == pytest.approx(4.84207291398419, abs=1e-10)
        # the public ISP breaks even exactly
        assert out.isp_utilities[0] == pytest.approx(0.0, abs=1e-12)
        assert out.cp_utility == pytest.approx(11.6519438902101, abs=1e-9)

    def test_total_effort_unchanged_by_regulation(self):
        free = solve_public_private(10.0, 1.0, 0.5)
        for a1_bar in (0.5, 1.0, 3.0):
            reg = solve_public_private_regulated(10.0, 1.0, 0.5, a1_bar)
            assert reg.total_effort == pytest.approx(free.total_effort, abs=1e-10)

    def test_infeasible_when_imposed_effort_exceeds_budget(self):
        budget = solve_public_private(10.0, 1.0, 0.5).total_effort
        with pytest.raises(InfeasibleEffortError):
            solve_public_private_regulated(10.0, 1.0, 0.5, budget + 0.1)


class TestSymmetricCompetitive:
    def test_degenerate_when_rate_below_cost(self):
        out = solve_symmetric_competitive(1.0, 2.0, 3)
        assert out.degenerate
        assert out.contract.shares == (0.0, 0.0, 0.0)

    def test_reference_point(self):
        out = solve_symmetric_competitive(10.0, 0.5, 2)
        assert out.contract.shares[0] == pytest.approx(0.171051822849605, abs=1e-12)
        assert out.efforts.efforts[0] == pytest.approx(2.9210364569921, abs=1e-10)
        assert out.total_effort == pytest.approx(5.84207291398419, abs=1e-10)
        assert out.demand == pytest.approx(W_20E - 1.0, abs=1e-12)
        assert out.cp_utility == pytest.approx(12.6519438902101, abs=1e-9)
        assert out.isp_utilities[0] == pytest.approx(1.82896354300792, abs=1e-9)

    def test_cp_utility_matches_w_closed_form(self):
        out = solve_symmetric_competitive(10.0, 0.5, 2)
        assert out.cp_utility == pytest.approx(
            10.0 * (W_20E - 1.0) ** 2 / W_20E, abs=1e-9)

    def test_totals_do_not_depend_on_isp_count(self):
        base = solve_symmetric_competitive(10.0, 0.5, 1)
        for n in (2, 5):
            out = solve_symmetric_competitive(10.0, 0.5, n)
            assert out.cp_utility == pytest.approx(base.cp_utility, abs=1e-9)
            assert n * out.contract.shares[0] == pytest.approx(
                base.contract.shares[0], abs=1e-12)
            assert out.total_effort == pytest.approx(base.total_effort, abs=1e-9)

    def test_leader_share_against_grid_golden_oracle(self):
        r, c, n = 10.0, 0.5, 2

        def objective(b):
            total = max(0.0, n * b * r / c - 1.0)
            return (1.0 - n * b) * r * math.log(total + 1.0)

        beta_star = grid_then_golden_max(objective, 0.0, 1.0 / n)
        out = solve_symmetric_competitive(r, c, n)
        assert out.contract.shares[0] == pytest.approx(beta_star, abs=1e-8)

    def test_foc_residual_small(self):
        out = solve_symmetric_competitive(10.0, 0.5, 4)
        assert out.foc_residual < 1e-9


class TestSymmetricCooperative:
    def test_reference_point(self):
        out = solve_symmetric_cooperative(10.0, 0.5, 2)
        assert out.contract.joint_share == pytest.approx(0.34210364569921, abs=1e-12)
        assert out.total_effort == pytest.approx(5.84207291398419, abs=1e-10)
        assert out.contract.shares == (
            pytest.approx(0.171051822849605, abs=1e-12),
            pytest.approx(0.171051822849605, abs=1e-12),
        )

    def test_single_follower_equals_competitive(self):
        coop = solve_symmetric_cooperative(10.0, 0.5, 1)
        comp = solve_symmetric_competitive(10.0, 0.5, 1)
        assert coop.total_effort == pytest.approx(comp.total_effort, abs=1e-12)
        assert coop.cp_utility == pytest.approx(comp.cp_utility, abs=1e-12)

    def test_degenerate(self):
        assert solve_symmetric_cooperative(1.0, 2.0, 2).degenerate

    def test_coincides_with_competitive_totals(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            c = float(rng.uniform(0.05, 3.0))
            r = float(c * rng.uniform(1.05, 9.0))
            n = int(rng.integers(1, 7))
            comp = solve_symmetric_competitive(r, c, n)
            coop = solve_symmetric_cooperative(r, c, n)
            assert comp.total_effort == pytest.approx(coop.total_effort, abs=1e-9)
            assert comp.contract.total_share == pytest.approx(
                coop.contract.total_share, abs=1e-12)
            assert comp.cp_utility == pytest.approx(coop.cp_utility, abs=1e-9)


class TestAsymmetricCompetitive:
    def test_reference_point(self):
        cont = solve_asymmetric_competitive(10.0, 0.5, 1.0)
        assert cont.shares.shares[0] == pytest.approx(0.155946260936189, abs=1e-12)
        assert cont.shares.shares[1] == pytest.approx(0.311892521872378, abs=1e-12)
        assert cont.shares.shares[0] / cont.shares.shares[1] == pytest.approx(0.5, abs=1e-12)
        assert cont.total_effort == pytest.approx(2.11892521872378, abs=1e-10)
        assert cont.split_parameter == pytest.approx(0.5 / 1.5, abs=1e-15)

    def test_degenerate_when_rate_below_cost_sum(self):
        cont = solve_asymmetric_competitive(1.4, 0.5, 1.0)
        assert cont.degenerate
        assert cont.total_effort == 0.0
        assert cont.outcome_at(0.5).degenerate

    def test_equal_costs_keep_the_interior_ratio(self):
        # With equal costs the shares are equal and the total follows the
        # cost-sum argument W(r*e/2c); the per-ISP-contract symmetric solve
        # keeps each follower on the coordinated response W(r*e/c), so the
        # two scenarios price effort differently and their totals differ.
        cont = solve_asymmetric_competitive(10.0, 0.5, 0.5)
        assert cont.shares.shares[0] == pytest.approx(cont.shares.shares[1], abs=1e-14)
        assert cont.shares.total_share == pytest.approx(1.0 / W_10E, abs=1e-12)
        sym = solve_symmetric_competitive(10.0, 0.5, 2)
        assert cont.total_effort != pytest.approx(sym.total_effort, abs=1e-3)

    def test_continuum_invariance_over_splits(self):
        cont = solve_asymmetric_competitive(10.0, 0.5, 1.0)
        reference = cont.outcome_at(0.0)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = cont.outcome_at(t)
            assert out.cp_utility == pytest.approx(reference.cp_utility, rel=1e-12)
            assert out.contract == reference.contract
            assert out.total_effort == pytest.approx(reference.total_effort, rel=1e-12)
            assert out.efforts.efforts[0] == pytest.approx(t * cont.total_effort, abs=1e-12)

    def test_cp_objective_flat_in_split(self):
        # any split of the pinned total is a best-response pair, so the CP
        # cannot do better by steering t
        cont = solve_asymmetric_competitive(10.0, 0.5, 1.0)
        utilities = [cont.outcome_at(t).cp_utility for t in np.linspace(0, 1, 9)]
        assert max(utilities) - min(utilities) < 1e-10


class TestRegulatedCompetitive:
    def test_matches_continuum_at_canonical_split(self):
        out = solve_regulated_competitive(10.0, 0.5, 1.0)
        assert out.efforts.efforts[0] == pytest.approx(0.706308406241259, abs=1e-10)
        assert out.efforts.efforts[1] == pytest.approx(1.41261681248252, abs=1e-10)
        assert out.efforts.efforts[1] == pytest.approx(
            2.0 * out.efforts.efforts[0], rel=1e-12)

    def test_per_isp_utilities_match_published_closed_forms(self):
        r, c1, c2 = 10.0, 0.5, 1.0
        k = c1 + c2
        w = W_10E_OVER_15
        out = solve_regulated_competitive(r, c1, c2)
        assert out.isp_utilities[0] == pytest.approx(
            c1 / k * (r * (1.0 - (2 * c1 + c2) / (k * w)) + c1), abs=1e-9)
        assert out.isp_utilities[1] == pytest.approx(
            c2 / k * (r * (1.0 - (2 * c2 + c1) / (k * w)) + c2), abs=1e-9)
        assert out.isp_utilities[0] == pytest.approx(1.42071652085083, abs=1e-9)
        assert out.isp_utilities[1] == pytest.approx(2.1351246354604, abs=1e-9)

    def test_equal_costs_equal_split(self):
        out = solve_regulated_competitive(10.0, 0.5, 0.5)
        assert out.efforts.efforts[0] == pytest.approx(out.efforts.efforts[1], abs=1e-14)
        assert out.isp_utilities[0] == pytest.approx(out.isp_utilities[1], abs=1e-12)

    def test_accounting_identity(self):
        out = solve_regulated_competitive(10.0, 0.5, 1.0)
        paid = sum(c * a for c, a in zip((0.5, 1.0), out.efforts.efforts))
        assert out.cp_utility + sum(out.isp_utilities) + paid == pytest.approx(
            10.0 * out.demand, rel=1e-12)

    def test_degenerate_outcome(self):
        assert solve_regulated_competitive(1.0, 0.5, 1.0).degenerate


class TestRegulatedCooperative:
    def test_branches_coincide_for_equal_costs(self):
        a = solve_regulated_cooperative(10.0, 0.5, 0.5, Branch.ISP1)
        b = solve_regulated_cooperative(10.0, 0.5, 0.5, Branch.ISP2)
        assert a.contract.joint_share == pytest.approx(b.contract.joint_share, abs=1e-14)
        assert a.total_effort == pytest.approx(b.total_effort, abs=1e-12)

    def test_branch_isp1_reference(self):
        out = solve_regulated_cooperative(10.0, 0.5, 1.0, Branch.ISP1)
        assert out.contract.joint_share == pytest.approx(0.34210364569921, abs=1e-12)
        assert out.total_effort == pytest.approx(5.84207291398419, abs=1e-10)
        assert out.efforts.efforts[0] == pytest.approx(1.94735763799473, abs=1e-10)
        assert out.efforts.efforts[1] == pytest.approx(3.89471527598946, abs=1e-10)
        assert out.cp_utility == pytest.approx(12.6519438902102, abs=1e-9)

    def test_branch_isp2_reference(self):
        out = solve_regulated_cooperative(10.0, 0.5, 1.0, Branch.ISP2)
        assert out.contract.joint_share == pytest.approx(0.413366052428843, abs=1e-12)
        assert out.total_effort == pytest.approx(3.13366052428843, abs=1e-10)
        assert out.cp_utility == pytest.approx(8.32529392340847, abs=1e-9)

    def test_cp_prefers_the_cheaper_branch(self):
        branch, out = solve_regulated_cooperative_cp_preferred(10.0, 0.5, 1.0)
        assert branch is Branch.ISP1
        other = solve_regulated_cooperative(10.0, 0.5, 1.0, Branch.ISP2)
        assert out.cp_utility > other.cp_utility

    def test_degenerate_per_branch(self):
        assert solve_regulated_cooperative(0.8, 0.5, 1.0, Branch.ISP2).degenerate
        assert not solve_regulated_cooperative(0.8, 0.5, 1.0, Branch.ISP1).degenerate


def _solve_both_and_max(r, c1, c2):
    # the CP-preferred solve as it was before it solved one branch: both
    # branches, then the best CP utility, a non-degenerate branch first at
    # a tie and ISP1 at any other tie
    outcomes = {branch: solve_regulated_cooperative(r, c1, c2, branch) for branch in Branch}
    best = max(outcomes, key=lambda branch: (outcomes[branch].cp_utility,
                                             not outcomes[branch].degenerate))
    return best, outcomes[best]


def _hex_figures(out):
    floats = (*out.contract.shares, out.contract.joint_share, *out.efforts.efforts, out.r,
              *out.costs, out.foc_residual, out.total_effort, out.demand, out.cp_utility,
              *out.isp_utilities)
    return [x.hex() for x in floats], out.degenerate


def _solve_or_error(solve, r, c1, c2):
    try:
        branch, out = solve(r, c1, c2)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return branch, _hex_figures(out)


_COST = st.floats(math.log(1e-300), math.log(1e308)).map(math.exp)
# relative gaps around the 1e-9 cut, down to the 1e-15 where branches tie
_GAP = st.one_of(st.just(0.0), st.floats(math.log(1e-16), math.log(1e-8)).map(math.exp),
                 st.floats(math.log(1e-8), math.log(1e3)).map(math.exp))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(c1=_COST, gap=_GAP, costlier_first=st.booleans(),
       pin=st.sampled_from(["c1", "c2", "c1+c2", "log-uniform"]),
       factor=st.sampled_from([1 - 2e-15, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 2e-15, 1 + 1e-9,
                               1.5, 1e3, 1e200]),
       r_draw=_COST)
def test_cheaper_branch_shortcut_changes_no_result(c1, gap, costlier_first, pin, factor,
                                                    r_draw):
    c2 = min(c1 * (1.0 + gap), 1e308)
    if costlier_first:
        c1, c2 = c2, c1
    r = {"c1": c1, "c2": c2, "c1+c2": c1 + c2, "log-uniform": r_draw}[pin]
    r = min(r * factor, 1.7e308) if pin != "log-uniform" else r
    assert (_solve_or_error(solve_regulated_cooperative_cp_preferred, r, c1, c2)
            == _solve_or_error(_solve_both_and_max, r, c1, c2))


class TestFixedPublicEffortCooperative:
    def test_zero_fixed_effort_matches_public_private_totals(self):
        coop = solve_fixed_public_effort_coop(10.0, 1.0, 0.5, 0.0)
        comp = solve_public_private(10.0, 1.0, 0.5)
        assert coop.total_effort == pytest.approx(comp.total_effort, abs=1e-12)
        assert coop.contract.joint_share == pytest.approx(
            comp.contract.shares[1], abs=1e-14)

    def test_reference_point(self):
        out = solve_fixed_public_effort_coop(10.0, 1.0, 0.5, 2.0)
        assert out.contract.joint_share == pytest.approx(0.34210364569921, abs=1e-12)
        assert out.efforts.efforts[1] == pytest.approx(3.84207291398419, abs=1e-10)
        assert out.total_effort == pytest.approx(5.84207291398419, abs=1e-10)
        competitive = solve_public_private(10.0, 1.0, 0.5).total_effort
        for a1_bar in (0.0, 2.0, 5.0):
            out = solve_fixed_public_effort_coop(10.0, 1.0, 0.5, a1_bar)
            assert out.total_effort == pytest.approx(competitive, rel=1e-12)

    def test_total_effort_invariant_in_fixed_effort(self):
        outs = [solve_fixed_public_effort_coop(10.0, 1.0, 0.5, a) for a in (0.0, 1.0, 4.0)]
        shares = {round(o.contract.joint_share, 12) for o in outs}
        totals = {round(o.total_effort, 10) for o in outs}
        assert len(shares) == 1 and len(totals) == 1

    def test_infeasible_fixed_effort(self):
        with pytest.raises(InfeasibleEffortError):
            solve_fixed_public_effort_coop(10.0, 1.0, 0.5, 6.0)


class TestMultiCp:
    def test_equal_rates_give_identical_outcomes(self):
        a, b = solve_multi_cp(10.0, 10.0, 0.5, 1.0, ScenarioKind.MULTI_CP_COMPETITIVE)
        assert a == b

    def test_competitive_rates_use_their_own_w(self):
        first, second = solve_multi_cp(10.0, 5.0, 0.5, 1.0,
                                       ScenarioKind.MULTI_CP_COMPETITIVE)
        assert first.contract.shares[0] == pytest.approx(0.155946260936189, abs=1e-12)
        assert first.total_effort == pytest.approx(2.11892521872378, abs=1e-10)
        assert second.contract.shares[0] == pytest.approx(0.198029874369983, abs=1e-12)
        assert second.total_effort == pytest.approx(0.98029874369983, abs=1e-10)

    def test_decouples_into_single_cp_solves(self):
        for rj, outcome in zip((10.0, 5.0), solve_multi_cp(
                10.0, 5.0, 0.5, 1.0, ScenarioKind.MULTI_CP_COMPETITIVE)):
            single = solve_regulated_competitive(rj, 0.5, 1.0)
            assert outcome == single
            continuum = solve_asymmetric_competitive(rj, 0.5, 1.0)
            assert outcome.contract.shares == continuum.shares.shares
            assert outcome.total_effort == pytest.approx(continuum.total_effort, rel=1e-12)

    def test_cooperative_mode_needs_branch(self):
        with pytest.raises(ValueError):
            solve_multi_cp(10.0, 5.0, 0.5, 1.0, ScenarioKind.MULTI_CP_COOPERATIVE)
        first, second = solve_multi_cp(10.0, 5.0, 0.5, 1.0,
                                       ScenarioKind.MULTI_CP_COOPERATIVE, Branch.ISP1)
        assert first == solve_regulated_cooperative(10.0, 0.5, 1.0, Branch.ISP1)
        assert second == solve_regulated_cooperative(5.0, 0.5, 1.0, Branch.ISP1)

    def test_degenerate_reported_per_cp(self):
        first, second = solve_multi_cp(10.0, 1.2, 0.5, 1.0,
                                       ScenarioKind.MULTI_CP_COMPETITIVE)
        assert not first.degenerate
        assert second.degenerate


def test_cp_utility_rederivable_from_outcome_fields():
    rng = np.random.default_rng(37)
    for _ in range(20):
        c1 = float(rng.uniform(0.05, 2.0))
        c2 = float(c1 * rng.uniform(1.0, 4.0))
        r = float((c1 + c2) * rng.uniform(1.2, 8.0))
        for out in (
            solve_public_private(r, c1, c2),
            solve_symmetric_competitive(r, c1, 3),
            solve_regulated_competitive(r, c1, c2),
            solve_regulated_cooperative(r, c1, c2, Branch.ISP1),
        ):
            expected = (1.0 - out.contract.total_share) * r * out.demand
            assert out.cp_utility == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert out.demand == pytest.approx(
                math.log(out.total_effort + 1.0), rel=1e-12)


def test_every_nondegenerate_solve_has_tiny_foc_residual():
    assert _check_foc_residuals(25, seed=31).figures["residual"] < 1e-9


_LOG_UNIFORM = st.floats(math.log(1e-300), math.log(1e308)).map(math.exp)
# Half the rates are log-uniform; the other half lie a relative 1e-15 to 10
# above or below the pin cost: (factor, above) instead of a rate.
_RATE = st.one_of(_LOG_UNIFORM,
                  st.tuples(st.floats(math.log(1e-15), math.log(10.0)).map(math.exp),
                            st.booleans()))


def _rate(draw, pin):
    if isinstance(draw, float):
        return draw
    offset, above = draw
    rate = pin * (1.0 + offset) if above else pin / (1.0 + offset)
    return min(max(rate, 1e-300), 1e308)


def _assert_payoffs_add_up(out, r, costs):
    # U_CP + sum U_i + sum c_i*a_i = r*demand, summed exactly since the
    # terms reach 1e308; subnormal products are too coarse to check
    terms = [Fraction(out.cp_utility), *map(Fraction, out.isp_utilities),
             *(Fraction(c) * Fraction(a) for c, a in zip(costs, out.efforts.efforts)),
             -Fraction(r) * Fraction(out.demand)]
    largest = max(map(abs, terms))
    if largest >= 1e-290:
        assert abs(sum(terms)) <= Fraction(1e-12) * largest


@pytest.mark.parametrize("kind", [ScenarioKind.REGULATED_COMPETITIVE,
                                  ScenarioKind.MULTI_CP_COMPETITIVE])
def test_overflowed_total_effort_is_named(kind):
    # r/(k*W) - 1 overflows; splitting it would report a nan demand instead
    with pytest.raises(NonFiniteOutcomeError, match="non-finite total_effort: inf"):
        SOLVERS[kind](r=8.380031113062626e307, c1=5.3711634715813e-94,
                      c2=7.132631030071139e-274, r2=1.0, branch=None)


@pytest.mark.parametrize("kind", list(SOLVERS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(c1=_LOG_UNIFORM, c2=_LOG_UNIFORM, n=st.sampled_from([1, 2, 3, 5, 8, 1000]),
       branch=st.sampled_from([None, *Branch]), a1_bar=st.one_of(st.just(0.0), _LOG_UNIFORM),
       r_draw=_RATE, r2_draw=_RATE)
def test_every_solver_ends_in_an_outcome_or_a_named_error(kind, c1, c2, n, branch, a1_bar,
                                                          r_draw, r2_draw):
    costs = (c1,) * n if kind.value.startswith("symmetric") else (c1, c2)
    pin = pin_cost(kind, costs[:2], branch)
    r, r2 = _rate(r_draw, pin), _rate(r2_draw, pin)
    try:
        _, solved = SOLVERS[kind](r=r, c1=c1, c2=c2, n=n, a1_bar=a1_bar, r2=r2,
                                  branch=branch)
    except (NonFiniteOutcomeError, InfeasibleEffortError):
        return
    per_cp = zip(solved, (r, r2)) if isinstance(solved, list) else [(solved, r)]
    for out, rate in per_cp:
        assert out.degenerate is (rate <= pin)
        assert out.foc_residual <= 1e-9
        _assert_payoffs_add_up(out, rate, costs)
