import math

import numpy as np
import pytest

from revshare.model import (
    Contract,
    EffortProfile,
    EquilibriumOutcome,
    MarketParams,
    NonFiniteOutcomeError,
    ScenarioKind,
    cp_utility,
    demand,
    isp_utility,
    validate,
)
from revshare.closed_form import (
    solve_symmetric_competitive,
    symmetric_per_isp_utility_forms,
)

E = math.e

# Symmetric equilibrium r=10, c=0.5, n=2; effort and utility frozen from
# the bisection-W oracle: a_i = beta*r/c - 1/n with beta = 1/(2*W(20e)).
SYM_EFFORT = 2.9210364569921
SYM_UCP = 12.6519438902101
SYM_UISP = 1.82896354300791


def test_demand_zero_iff_zero_efforts():
    assert demand(EffortProfile((0.0, 0.0))) == 0.0
    assert demand(EffortProfile((0.0, 1e-9))) > 0.0


def test_demand_log_e():
    assert demand(EffortProfile((E - 1.0, 0.0))) == pytest.approx(1.0, abs=1e-14)


def test_demand_direct_evaluation():
    # log(2*1.2105... + 1) = log(3.421...)
    profile = EffortProfile((1.2105, 1.2105))
    assert demand(profile) == pytest.approx(math.log(3.421), abs=1e-4)


def test_demand_permutation_invariant_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(50):
        efforts = rng.uniform(0.0, 5.0, size=4)
        d1 = demand(EffortProfile(tuple(efforts)))
        d2 = demand(EffortProfile(tuple(reversed(efforts))))
        assert d1 == pytest.approx(d2, rel=1e-15)
        bumped = efforts.copy()
        bumped[1] += 0.1
        assert demand(EffortProfile(tuple(bumped))) > d1


def test_cp_utility_keeps_everything_when_nothing_shared():
    params = MarketParams(r=10.0, costs=(1.0, 1.0))
    contract = Contract(shares=(0.0, 0.0))
    profile = EffortProfile((E - 1.0, 0.0))  # demand 1
    assert cp_utility(params, contract, profile) == pytest.approx(10.0, rel=1e-14)


def test_cp_utility_zero_when_everything_shared():
    params = MarketParams(r=10.0, costs=(1.0, 1.0))
    contract = Contract(shares=(0.6, 0.4))
    profile = EffortProfile((2.0, 3.0))
    assert cp_utility(params, contract, profile) == pytest.approx(0.0, abs=1e-12)


def test_cp_utility_at_symmetric_equilibrium():
    params = MarketParams(r=10.0, costs=(0.5, 0.5))
    out = solve_symmetric_competitive(10.0, 0.5, 2)
    assert cp_utility(params, out.contract, out.efforts) == pytest.approx(
        SYM_UCP, abs=1e-10)
    assert out.cp_utility == pytest.approx(SYM_UCP, abs=1e-10)


def test_cp_utility_dimension_mismatch():
    params = MarketParams(r=10.0, costs=(1.0, 1.0))
    with pytest.raises(ValueError):
        cp_utility(params, Contract(shares=(0.1,)), EffortProfile((1.0, 2.0)))


def test_isp_utility_trivial_cases():
    params = MarketParams(r=10.0, costs=(1.0,))
    assert isp_utility(params, 0, Contract(shares=(0.0,)),
                       EffortProfile((0.0,))) == 0.0
    # sole ISP with full share, demand 1: 10 - (e - 1)
    got = isp_utility(params, 0, Contract(shares=(1.0,)), EffortProfile((E - 1.0,)))
    assert got == pytest.approx(10.0 - (E - 1.0), rel=1e-14)


def test_isp_utility_index_out_of_range():
    params = MarketParams(r=10.0, costs=(1.0,))
    with pytest.raises(IndexError):
        isp_utility(params, 1, Contract(shares=(0.5,)), EffortProfile((1.0,)))


def test_isp_utility_at_symmetric_equilibrium_uses_direct_definition():
    params = MarketParams(r=10.0, costs=(0.5, 0.5))
    out = solve_symmetric_competitive(10.0, 0.5, 2)
    for i in range(2):
        assert isp_utility(params, i, out.contract, out.efforts) == pytest.approx(
            SYM_UISP, abs=1e-10)


def test_distributed_per_isp_utility_variant_disagrees_beyond_one_isp():
    # The distributed closed-form variant r*(1-(n+1)/(nW)) + c/n matches the
    # direct definition only for a single ISP; the direct value is what the
    # solvers report and the gap is surfaced, not hidden.
    direct, variant = symmetric_per_isp_utility_forms(10.0, 0.5, 1)
    assert direct == pytest.approx(variant, abs=1e-10)
    direct, variant = symmetric_per_isp_utility_forms(10.0, 0.5, 2)
    assert direct == pytest.approx(SYM_UISP, abs=1e-10)
    assert abs(direct - variant) > 1.0


def test_accounting_identity():
    # Everything the market generates is either kept, paid out, or burned
    # as effort cost: U_CP + sum U_ISP + sum c*a = r*demand.
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        params = MarketParams(r=float(rng.uniform(1.0, 20.0)),
                              costs=tuple(rng.uniform(0.1, 2.0, size=n)))
        raw = rng.uniform(0.0, 1.0, size=n)
        shares = tuple(float(s) for s in raw / max(1.0, 1.01 * raw.sum()))
        contract = Contract(shares=shares)
        profile = EffortProfile(tuple(float(a) for a in rng.uniform(0.0, 4.0, size=n)))
        total = (cp_utility(params, contract, profile)
                 + sum(isp_utility(params, i, contract, profile) for i in range(n))
                 + sum(c * a for c, a in zip(params.costs, profile.efforts)))
        assert total == pytest.approx(params.r * demand(profile), rel=1e-12, abs=1e-12)


def test_validate_symmetric():
    ok = validate(MarketParams(r=10.0, costs=(0.5, 0.5)),
                  ScenarioKind.SYMMETRIC_COMPETITIVE)
    assert ok.valid and not ok.degenerate
    bad = validate(MarketParams(r=1.0, costs=(2.0,)),
                   ScenarioKind.SYMMETRIC_COMPETITIVE)
    assert bad.degenerate and bad.condition == "r > c"


def test_validate_asymmetric_threshold_is_cost_sum():
    report = validate(MarketParams(r=10.0, costs=(6.0, 5.0)),
                      ScenarioKind.ASYMMETRIC_COMPETITIVE)
    assert report.degenerate
    assert report.threshold == 11.0


def test_validate_public_private_threshold_is_private_cost():
    report = validate(MarketParams(r=10.0, costs=(100.0, 0.5)),
                      ScenarioKind.PUBLIC_PRIVATE)
    assert report.valid  # the public ISP's cost does not matter


def test_validate_multi_cp_checks_both_rates():
    params = MarketParams(r=10.0, costs=(0.5, 1.0), second_cp_rate=1.0)
    report = validate(params, ScenarioKind.MULTI_CP_COMPETITIVE)
    assert report.degenerate  # second rate below c1 + c2
    params = MarketParams(r=10.0, costs=(0.5, 1.0), second_cp_rate=5.0)
    assert validate(params, ScenarioKind.MULTI_CP_COMPETITIVE).valid


def test_validate_never_throws_on_odd_shapes():
    report = validate(MarketParams(r=10.0, costs=(0.5,)), ScenarioKind.PUBLIC_PRIVATE)
    assert report.notes  # flags the odd shape instead of raising


@pytest.mark.parametrize("costs, unequal", [
    ((1e-300, 2e-300), True),  # a factor of two apart, but 1e-300 in absolute terms
    ((1e6, 1.00000000001e6), True),  # 1e-5 apart, under 1e-9 * max(1, c)
    ((1e6, 1.0000000000001e6), False),
    ((1e-300, 1.0000000000001e-300), False),
    ((0.5, 0.5, 0.5), False),
    ((0.5, math.inf), True),  # no finite cost equals an infinite one
])
def test_validate_notes_unequal_symmetric_costs_at_any_scale(costs, unequal):
    for kind in (ScenarioKind.SYMMETRIC_COMPETITIVE, ScenarioKind.SYMMETRIC_COOPERATIVE):
        notes = validate(MarketParams(r=10.0, costs=costs), kind).notes
        assert any("unequal costs" in note for note in notes) is unequal


def test_params_validation():
    with pytest.raises(ValueError):
        MarketParams(r=0.0, costs=(1.0,))
    with pytest.raises(ValueError):
        MarketParams(r=1.0, costs=())
    with pytest.raises(ValueError):
        MarketParams(r=1.0, costs=(1.0, -0.5))


def test_contract_validation():
    with pytest.raises(ValueError):
        Contract(shares=(0.7, 0.6))
    with pytest.raises(ValueError):
        Contract(shares=(1.2,))
    assert Contract(shares=(0.3, 0.2), joint_share=0.5).total_share == 0.5


def test_effort_profile_rejects_negative():
    with pytest.raises(ValueError):
        EffortProfile((-0.5, 1.0))


def test_outcome_rejects_non_finite_figures():
    def outcome(c2):
        return EquilibriumOutcome(
            contract=Contract(shares=(0.1, 0.2)), efforts=EffortProfile((1.0, 2.0)),
            r=10.0, costs=(0.5, c2), foc_residual=0.0, degenerate=False)

    good = outcome(1.0)
    d = math.log(4.0)
    assert (good.total_effort, good.demand) == (3.0, d)
    assert good.cp_utility == (1.0 - 0.1 - 0.2) * 10.0 * d
    assert good.isp_utilities == (0.1 * 10.0 * d - 0.5, 0.2 * 10.0 * d - 2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(NonFiniteOutcomeError, match="utility of ISP 2"):
            outcome(bad)
    assert issubclass(NonFiniteOutcomeError, ArithmeticError)
