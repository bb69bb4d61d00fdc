import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revshare import closed_form, oracle
from revshare.model import Branch, InfeasibleEffortError
from revshare.verify import _leader_objective, scenario_gap_battery

SHARE_GAP_TOL, EFFORT_GAP_TOL = 1e-6, 1e-8


def _unshared_battery(r, c1, c2, n):
    # scenario_gap_battery before scenarios shared their searches: one
    # leader search and one best response per use, at hard-coded pin costs,
    # and a second public-private solve for the imposed-effort budget. Only
    # the infeasible public-private-regulated omission is applied.
    gaps = {}
    k = c1 + c2

    out = closed_form.solve_symmetric_competitive(r, c1, n)
    if not out.degenerate:
        beta_star, _ = oracle.leader_optimum(_leader_objective(r, c1, n))
        total_share = n * out.contract.shares[0]
        effort_gap = abs(
            oracle.best_response_effort(total_share, r, c1, 0.0) - out.total_effort)
        gaps["symmetric-competitive"] = (abs(beta_star - out.contract.shares[0]), effort_gap)

    out = closed_form.solve_symmetric_cooperative(r, c1, n)
    if not out.degenerate:
        beta_star, _ = oracle.leader_optimum(_leader_objective(r, c1, 1.0))
        effort_gap = abs(oracle.best_response_effort(out.contract.joint_share, r, c1, 0.0)
                         - out.total_effort)
        gaps["symmetric-cooperative"] = (abs(beta_star - out.contract.joint_share), effort_gap)

    out = closed_form.solve_public_private(r, c1, c2)
    if not out.degenerate:
        beta_star, _ = oracle.leader_optimum(_leader_objective(r, c2, 1.0))
        beta2 = out.contract.shares[1]
        effort_gap = abs(oracle.best_response_effort(beta2, r, c2, 0.0) - out.efforts.efforts[1])
        gaps["public-private"] = (abs(beta_star - beta2), effort_gap)

    cont = closed_form.solve_asymmetric_competitive(r, c1, c2)
    if not cont.degenerate:
        u_star, _ = oracle.leader_optimum(_leader_objective(r, k, 1.0))
        share_gap = abs(u_star - cont.shares.total_share)
        outcome = cont.outcome_at(cont.split_parameter)
        effort_gap = 0.0
        for i, ci in enumerate((c1, c2)):
            others = outcome.total_effort - outcome.efforts.efforts[i]
            br = oracle.best_response_effort(outcome.contract.shares[i], r, ci, others)
            effort_gap = max(effort_gap, abs(br - outcome.efforts.efforts[i]))
        gaps["asymmetric-competitive"] = (share_gap, effort_gap)

    for branch, cb in ((Branch.ISP1, c1), (Branch.ISP2, c2)):
        out = closed_form.solve_regulated_cooperative(r, c1, c2, branch)
        if out.degenerate:
            continue
        beta_star, _ = oracle.leader_optimum(_leader_objective(r, cb, 1.0))
        effort_gap = abs(oracle.best_response_effort(out.contract.joint_share, r, cb, 0.0)
                         - out.total_effort)
        gaps[f"regulated-cooperative-{branch.value}"] = (
            abs(beta_star - out.contract.joint_share), effort_gap)

    if r > c2:
        budget = closed_form.solve_public_private(r, c1, c2).total_effort
        a1_bar = 0.3 * budget
        out = closed_form.solve_fixed_public_effort_coop(r, c1, c2, a1_bar)
        effort_gap = abs(oracle.best_response_effort(out.contract.joint_share, r, c2, a1_bar)
                         - out.efforts.efforts[1])
        gaps["fixed-public-effort-cooperative"] = (0.0, effort_gap)

        try:
            out = closed_form.solve_public_private_regulated(r, c1, c2, a1_bar)
        except InfeasibleEffortError:
            return gaps
        effort_gap = abs(oracle.best_response_effort(out.contract.shares[1], r, c2, a1_bar)
                         - out.efforts.efforts[1])
        gaps["public-private-regulated"] = (0.0, effort_gap)

    return gaps


def _outcome(battery, *args):
    try:
        return battery(*args), None
    except Exception as exc:  # noqa: BLE001 - the types are compared
        return None, type(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(c1=st.floats(math.log(0.05), math.log(5.0)), c2=st.floats(math.log(0.05), math.log(5.0)),
       equal=st.booleans(), ratio=st.floats(math.log(0.3), math.log(1e6)),
       n=st.integers(1, 6))
def test_shared_searches_give_the_unshared_gaps(c1, c2, equal, ratio, n):
    c1, c2 = math.exp(c1), math.exp(c1 if equal else c2)
    r = (c1 + c2) * math.exp(ratio)
    shared, shared_error = _outcome(scenario_gap_battery, r, c1, c2, n)
    unshared, unshared_error = _outcome(_unshared_battery, r, c1, c2, n)
    assert shared_error is unshared_error
    if shared is not None:
        assert list(shared) == list(unshared)
        assert shared == unshared


@pytest.mark.parametrize("n,leader_searches,best_responses", [(1, 3, 5), (3, 4, 6)])
def test_each_distinct_search_runs_once(monkeypatch, n, leader_searches, best_responses):
    # symmetric-cooperative and regulated-cooperative-isp1 pin on c1,
    # public-private and regulated-cooperative-isp2 on c2, and at n = 1 the
    # symmetric-competitive search is the cooperative one; without sharing,
    # every battery here makes 6 leader searches and 9 best responses
    calls = {"leader": 0, "best_response": 0}
    leader, best_response = oracle.leader_optimum, oracle.best_response_effort

    def counted_leader(*args):
        calls["leader"] += 1
        return leader(*args)

    def counted_best_response(*args):
        calls["best_response"] += 1
        return best_response(*args)

    monkeypatch.setattr(oracle, "leader_optimum", counted_leader)
    monkeypatch.setattr(oracle, "best_response_effort", counted_best_response)
    gaps = scenario_gap_battery(10.0, 0.5, 1.0, n)
    assert len(gaps) == 8
    assert calls == {"leader": leader_searches, "best_response": best_responses}


def test_infeasible_public_private_regulated_loses_only_its_own_gap():
    # c2 < r < c1 + c2: the public ISP's break-even share at the imposed
    # effort pushes the total share above one, so that one solve raises
    with pytest.raises(InfeasibleEffortError):
        closed_form.solve_public_private_regulated(
            1.2, 0.5, 1.0, 0.3 * closed_form.solve_public_private(1.2, 0.5, 1.0).total_effort)
    gaps = scenario_gap_battery(1.2, 0.5, 1.0, 2)
    assert list(gaps) == ["symmetric-competitive", "symmetric-cooperative", "public-private",
                          "regulated-cooperative-isp1", "regulated-cooperative-isp2",
                          "fixed-public-effort-cooperative"]
    for share_gap, effort_gap in gaps.values():
        assert share_gap < SHARE_GAP_TOL and effort_gap < EFFORT_GAP_TOL
