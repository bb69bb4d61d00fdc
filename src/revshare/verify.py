"""Oracle-vs-closed-form verification battery.

Every closed-form result is re-derived by the search-based oracle and the
two are compared at fixed tolerances. The CLI ``verify`` command runs the
whole battery and exits non-zero on any mismatch; the acceptance tests call
the same checks at their own seeds and sample sizes and gate on the worst
figures each returns.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import closed_form, oracle
from .bargaining import nbs_split_closed, shapley_closed
from .compare import compare_coop_comp, compare_public_private, n_scaling_report
from .lambertw import lambert_w0, log_x_over_w
from .model import (
    Branch,
    Contract,
    EffortProfile,
    InfeasibleEffortError,
    MarketParams,
    ScenarioKind,
    cp_utility,
    demand,
    isp_utility,
    pin_cost,
)

__all__ = ["CheckResult", "run_checks", "scenario_gap_battery", "draw_market"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    figures: Mapping[str, float] = {}  # the worst figures a sampled check gates on


def draw_market(rng: np.random.Generator) -> tuple[float, float, float, int]:
    """Random (r, c1, c2, n) with c1 <= c2 and r safely above c1 + c2."""
    c1 = float(rng.uniform(0.05, 2.0))
    c2 = float(c1 * rng.uniform(1.0, 4.0))
    r = float((c1 + c2) * rng.uniform(1.2, 8.0))
    n = int(rng.integers(1, 6))
    return r, c1, c2, n


def _leader_objective(r: float, cost: float, multiplier: float) -> Callable[[float], float]:
    """Reduced CP objective over a share x whose follower total effort is
    max(0, multiplier*x*r/cost - 1), the stationary total clipped at zero."""

    def objective(x: float) -> float:
        total = max(0.0, multiplier * x * r / cost - 1.0)
        return (1.0 - multiplier * x) * r * math.log(total + 1.0)

    return objective


def scenario_gap_battery(r: float, c1: float, c2: float, n: int) -> dict[str, tuple[float, float]]:
    """Closed-form-vs-oracle gaps per scenario: (share gap, effort gap).

    The share gap compares the closed-form share with the grid/golden
    leader optimum of the reduced objective at the scenario's pin cost;
    the effort gap compares each equilibrium effort with the numeric best
    response it should be. Scenarios with the same pin cost (and follower
    multiplier) share one leader search, and equal best-response arguments
    one best response. Degenerate scenarios have no gap, and neither has
    public-private-regulated where the public ISP's break-even share is
    infeasible.
    """
    costs = (c1, c2)

    @functools.cache
    def leader_share(cost: float, multiplier: float) -> float:
        return oracle.leader_optimum(_leader_objective(r, cost, multiplier))[0]

    best_response = functools.cache(oracle.best_response_effort)
    gaps: dict[str, tuple[float, float]] = {}

    def add_gap(name: str, cost: float, share: float, effort: float,
                multiplier: float = 1.0) -> None:
        gaps[name] = (abs(leader_share(cost, multiplier) - share),
                      abs(best_response(multiplier * share, r, cost, 0.0) - effort))

    c = pin_cost(ScenarioKind.SYMMETRIC_COMPETITIVE, (c1,))
    out = closed_form.solve_symmetric_competitive(r, c1, n)
    if not out.degenerate:
        add_gap("symmetric-competitive", c, out.contract.shares[0], out.total_effort, n)

    out = closed_form.solve_symmetric_cooperative(r, c1, n)
    if not out.degenerate:
        add_gap("symmetric-cooperative", c, out.contract.joint_share, out.total_effort)

    public_private = closed_form.solve_public_private(r, c1, c2)
    if not public_private.degenerate:
        add_gap("public-private", pin_cost(ScenarioKind.PUBLIC_PRIVATE, costs),
                public_private.contract.shares[1], public_private.efforts.efforts[1])

    cont = closed_form.solve_asymmetric_competitive(r, c1, c2)
    if not cont.degenerate:
        c = pin_cost(ScenarioKind.ASYMMETRIC_COMPETITIVE, costs)
        share_gap = abs(leader_share(c, 1.0) - cont.shares.total_share)
        outcome = cont.outcome_at(cont.split_parameter)
        effort_gap = 0.0
        for i, ci in enumerate(costs):
            others = outcome.total_effort - outcome.efforts.efforts[i]
            br = best_response(outcome.contract.shares[i], r, ci, others)
            effort_gap = max(effort_gap, abs(br - outcome.efforts.efforts[i]))
        gaps["asymmetric-competitive"] = (share_gap, effort_gap)

    for branch in (Branch.ISP1, Branch.ISP2):
        out = closed_form.solve_regulated_cooperative(r, c1, c2, branch)
        if not out.degenerate:
            add_gap(f"regulated-cooperative-{branch.value}",
                    pin_cost(ScenarioKind.REGULATED_COOPERATIVE, costs, branch),
                    out.contract.joint_share, out.total_effort)

    if not public_private.degenerate:
        a1_bar = 0.3 * public_private.total_effort
        out = closed_form.solve_fixed_public_effort_coop(r, c1, c2, a1_bar)
        c = pin_cost(ScenarioKind.FIXED_PUBLIC_EFFORT_COOPERATIVE, costs)
        effort_gap = abs(best_response(out.contract.joint_share, r, c, a1_bar)
                         - out.efforts.efforts[1])
        gaps["fixed-public-effort-cooperative"] = (0.0, effort_gap)

        try:
            out = closed_form.solve_public_private_regulated(r, c1, c2, a1_bar)
        except InfeasibleEffortError:
            return gaps
        c = pin_cost(ScenarioKind.PUBLIC_PRIVATE_REGULATED, costs)
        effort_gap = abs(best_response(out.contract.shares[1], r, c, a1_bar)
                         - out.efforts.efforts[1])
        gaps["public-private-regulated"] = (0.0, effort_gap)

    return gaps


def _check_lambertw_roundtrip(samples: int = 10_000, seed: int = 101) -> CheckResult:
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(1.0, math.log(1e9), size=samples))
    worst_rt = 0.0
    worst_id = 0.0
    for x in xs:
        x = float(x)
        w = lambert_w0(x)
        worst_rt = max(worst_rt, abs(w * math.exp(w) - x) / x)
        worst_id = max(worst_id, abs(log_x_over_w(x) - w) / w)
    ok = worst_rt < 1e-12 and worst_id < 1e-12
    return CheckResult("lambertw-roundtrip-identity", ok,
                       f"{samples} samples: roundtrip {worst_rt:.2e}, identity {worst_id:.2e}",
                       {"roundtrip": worst_rt, "identity": worst_id})


def _check_lambertw_monotone() -> CheckResult:
    xs = np.exp(np.linspace(1.0, math.log(1e9), 400))
    ws = [lambert_w0(float(x)) for x in xs]
    mono_w = all(b >= a for a, b in zip(ws, ws[1:]))
    g = [float(x) / w for x, w in zip(xs, ws)]
    mono_g = all(b > a for a, b in zip(g, g[1:]))
    return CheckResult("lambertw-monotonicity", mono_w and mono_g,
                       f"W non-decreasing: {mono_w}, x/W strictly increasing: {mono_g}")


def _check_closed_vs_oracle(draws: int = 100, seed: int = 202) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_share = 0.0
    worst_effort = 0.0
    scenarios_hit = set()
    for _ in range(draws):
        r, c1, c2, n = draw_market(rng)
        for name, (share_gap, effort_gap) in scenario_gap_battery(r, c1, c2, n).items():
            scenarios_hit.add(name)
            worst_share = max(worst_share, share_gap)
            worst_effort = max(worst_effort, effort_gap)
    ok = worst_share < 1e-6 and worst_effort < 1e-8
    return CheckResult("closed-form-vs-oracle", ok,
                       f"{draws} draws: share gap {worst_share:.2e}, effort gap {worst_effort:.2e}",
                       {"share_gap": worst_share, "effort_gap": worst_effort,
                        "scenarios": len(scenarios_hit)})


def _solves_for(r, c1, c2, n, a1_bar):
    yield closed_form.solve_symmetric_competitive(r, c1, n)
    yield closed_form.solve_symmetric_cooperative(r, c1, n)
    yield closed_form.solve_public_private(r, c1, c2)
    yield closed_form.solve_regulated_competitive(r, c1, c2)
    yield closed_form.solve_regulated_cooperative(r, c1, c2, Branch.ISP1)
    yield closed_form.solve_regulated_cooperative(r, c1, c2, Branch.ISP2)
    if r > c2:
        yield closed_form.solve_fixed_public_effort_coop(r, c1, c2, a1_bar)
        yield closed_form.solve_public_private_regulated(r, c1, c2, a1_bar)


def _check_foc_residuals(draws: int = 60, seed: int = 303) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        r, c1, c2, n = draw_market(rng)
        budget = max(0.0, closed_form.solve_public_private(r, c1, c2).total_effort)
        for out in _solves_for(r, c1, c2, n, 0.25 * budget):
            if not out.degenerate:
                worst = max(worst, out.foc_residual)
    return CheckResult("foc-residuals", worst < 1e-9,
                       f"max first-order-condition residual {worst:.2e}", {"residual": worst})


def _check_n_scaling() -> CheckResult:
    report = n_scaling_report(10.0, 0.5, list(range(1, 11)))
    return CheckResult("n-scaling", report.all_hold,
                       f"{sum(o.holds for o in report.orderings)}/{len(report.orderings)} "
                       "orderings hold for n=1..10")


def _check_symmetric_coincidence(draws: int = 50, seed: int = 404) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        c = float(rng.uniform(0.05, 3.0))
        r = float(c * rng.uniform(1.05, 10.0))
        n = int(rng.integers(1, 8))
        comp = closed_form.solve_symmetric_competitive(r, c, n)
        coop = closed_form.solve_symmetric_cooperative(r, c, n)
        worst = max(
            worst,
            abs(comp.total_effort - coop.total_effort),
            abs(comp.contract.total_share - coop.contract.total_share),
            abs(comp.cp_utility - coop.cp_utility),
        )
    return CheckResult("symmetric-coincidence", worst < 1e-9,
                       f"{draws} draws: max competitive/cooperative total gap {worst:.2e}",
                       {"gap": worst})


def _check_public_private_orderings(grid: int = 20) -> CheckResult:
    c1 = 1.0
    failures = 0
    cells = 0
    for ratio in np.linspace(1.0, 8.0, grid):
        for margin in np.linspace(1.05, 5.0, grid):
            c2 = c1 * float(ratio)
            r = (c1 + c2) * float(margin)
            report = compare_public_private(r, c1, c2)
            cells += 1
            failures += 0 if report.all_hold else 1
    return CheckResult("public-private-orderings", failures == 0,
                       f"{cells} grid cells, {failures} ordering failures",
                       {"failures": failures})


def _check_nbs_symmetric() -> CheckResult:
    r, c = 10.0, 0.5
    coop = closed_form.solve_symmetric_cooperative(r, c, 2)
    result = oracle.nash_product_maximize(r, c, c, coop.contract.joint_share)
    gap = max(abs(a - coop.efforts.efforts[0]) for a in result.efforts.efforts)
    ok = gap < 1e-4 and result.converged and result.multistart_agreement < 1e-6
    return CheckResult("nbs-symmetric-reproduction", ok,
                       f"effort gap {gap:.2e}, multistart spread "
                       f"{result.multistart_agreement:.2e}",
                       {"effort_gap": gap, "spread": result.multistart_agreement})


def _check_nbs_stationarity() -> CheckResult:
    r, c1, c2, beta = 10.0, 0.5, 1.0, 0.4
    result = oracle.nash_product_maximize(r, c1, c2, beta)
    a1, a2 = result.efforts.efforts

    def log_product(x, y):
        total = x + y
        rev = beta * r * math.log(total + 1.0) / total
        return math.log(rev * x - c1 * x) + math.log(rev * y - c2 * y)

    h = 1e-6
    grad = max(
        abs(log_product(a1 + h, a2) - log_product(a1 - h, a2)) / (2 * h),
        abs(log_product(a1, a2 + h) - log_product(a1, a2 - h)) / (2 * h),
    )
    ok = grad < 1e-4 and result.surpluses[0] > 0 and result.surpluses[1] > 0
    return CheckResult("nbs-stationarity", ok,
                       f"finite-difference gradient {grad:.2e} at the maximizer",
                       {"gradient": grad})


def _check_nbs_split(draws: int = 40, seed: int = 505) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = surplus_gap = conservation = 0.0
    for _ in range(draws):
        r = float(rng.uniform(4.0, 30.0))
        beta = float(rng.uniform(0.2, 0.9))
        branch_cost = float(beta * r / rng.uniform(3.0, 20.0))
        c1 = float(rng.uniform(0.2, 1.0) * branch_cost)
        c2 = float(rng.uniform(1.0, 2.0) * branch_cost)
        revenue = r * math.log(beta * r / branch_cost)
        a1 = float(rng.uniform(0.0, 0.25 * beta * revenue / c1))
        a2 = float(rng.uniform(0.0, 0.25 * beta * revenue / c2))
        slack = beta * revenue - c1 * a1 - c2 * a2
        d1 = float(rng.uniform(0.0, 0.3 * slack))
        d2 = float(rng.uniform(0.0, 0.3 * slack))
        split = nbs_split_closed(beta, a1, a2, d1, d2, r, c1, c2, branch_cost)

        def product(b1):
            return ((b1 * revenue - c1 * a1 - d1)
                    * ((beta - b1) * revenue - c2 * a2 - d2))

        numeric = oracle.golden_section_max(product, 0.0, beta, tol=1e-12)
        worst = max(worst, abs(split.beta1 - numeric))
        surplus_gap = max(surplus_gap, abs((split.beta1 * revenue - c1 * a1 - d1)
                                           - (split.beta2 * revenue - c2 * a2 - d2)))
        conservation = max(conservation, abs(split.beta1 + split.beta2 - beta))
    return CheckResult("nbs-split-closed-vs-numeric", worst < 1e-8,
                       f"{draws} draws: max split gap {worst:.2e}",
                       {"split_gap": worst, "surplus_gap": surplus_gap,
                        "conservation": conservation})


def _check_shapley() -> CheckResult:
    r, c1, c2 = 10.0, 0.5, 1.0
    report = shapley_closed(r, c1, c2, Branch.ISP1)
    efficiency = abs(report.phi1 + report.phi2 - report.values[frozenset({1, 2})])
    sym = shapley_closed(r, c1, c1, Branch.ISP1)
    symmetric_ok = abs(sym.phi1 - sym.phi2) < 1e-9
    ok = efficiency < 1e-12 and symmetric_ok
    return CheckResult(
        "shapley-axioms", ok,
        f"efficiency slack {efficiency:.1e}; symmetric equality {symmetric_ok}; "
        f"closed-vs-brute discrepancy {report.discrepancy:.3g} (reported, not asserted)")


def _check_coop_dominance() -> CheckResult:
    c1 = 0.5
    failures = 0
    strict_failures = 0
    for ratio in (1.0, 2.0, 4.0, 8.0):
        for r in (5.0, 10.0, 20.0):
            c2 = c1 * ratio
            report = compare_coop_comp(r, c1, c2, include_nbs=False)
            if not report.all_hold:
                failures += 1
            if ratio > 1.0:
                ta_gap = (report.value("regulated-cooperative", "total_effort")
                          - report.value("regulated-competitive", "total_effort"))
                if ta_gap <= 0.0:
                    strict_failures += 1
    ok = failures == 0 and strict_failures == 0
    return CheckResult("cooperation-dominance", ok,
                       f"12 grid cells, {failures} ordering failures, "
                       f"{strict_failures} non-strict gaps off the diagonal")


def _check_accounting_identity(draws: int = 200) -> CheckResult:
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(1, 5))
        params = MarketParams(r=float(rng.uniform(1, 30)),
                              costs=tuple(rng.uniform(0.1, 3.0, size=n)))
        shares = rng.uniform(0.0, 1.0, size=n)
        shares = tuple(float(s) for s in (shares / max(1.0, shares.sum() * 1.01)))
        contract = Contract(shares=shares)
        efforts = EffortProfile(tuple(float(a) for a in rng.uniform(0.0, 5.0, size=n)))
        lhs = (cp_utility(params, contract, efforts)
               + sum(isp_utility(params, i, contract, efforts) for i in range(n))
               + sum(c * a for c, a in zip(params.costs, efforts.efforts)))
        rhs = params.r * demand(efforts)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return CheckResult("accounting-identity", worst < 1e-12,
                       f"{draws} draws: max relative slack {worst:.2e}")


def run_checks(fast: bool = False) -> list[CheckResult]:
    """Run the whole battery; ``fast`` trims sample counts for smoke use."""
    return [
        _check_lambertw_roundtrip(2_000 if fast else 10_000),
        _check_lambertw_monotone(),
        _check_closed_vs_oracle(20 if fast else 100),
        _check_foc_residuals(15 if fast else 60),
        _check_n_scaling(),
        _check_symmetric_coincidence(15 if fast else 50),
        _check_public_private_orderings(8 if fast else 20),
        _check_nbs_symmetric(),
        _check_nbs_stationarity(),
        _check_nbs_split(10 if fast else 40),
        _check_shapley(),
        _check_coop_dominance(),
        _check_accounting_identity(50 if fast else 200),
    ]
