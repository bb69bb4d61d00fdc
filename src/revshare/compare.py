"""Scenario comparison reports.

Each report stores the raw metrics per scenario and then re-evaluates every
claimed ordering from those stored numbers, so a report can never assert an
ordering its own table contradicts. Orderings that fail are recorded as
failures, not raised: probing where a claim breaks down is part of the job.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import oracle
from .closed_form import (
    solve_asymmetric_competitive,
    solve_public_private,
    solve_regulated_competitive,
    solve_regulated_cooperative_cp_preferred,
    solve_symmetric_competitive,
)
from .model import DegenerateRegimeError, DisagreementPolicy, ScenarioKind, pin_cost

__all__ = ["Ordering", "ComparisonReport", "compare_public_private",
           "compare_coop_comp", "n_scaling_report"]


@dataclass(frozen=True)
class Ordering:
    metric: str
    relation: str
    holds: bool


@dataclass
class ComparisonReport:
    """Metric table keyed by scenario label, plus evaluated orderings."""

    scenarios: tuple[str, ...]
    metrics: dict[str, dict[str, float]]
    orderings: list[Ordering] = field(default_factory=list)

    def value(self, label: str, metric: str) -> float:
        return self.metrics[label][metric]

    def check(self, metric: str, label_a: str, label_b: str,
              relation: str = ">", tol: float = 0.0) -> Ordering:
        """Evaluate ``a <relation> b`` on the stored metrics and record it."""
        a = self.value(label_a, metric)
        b = self.value(label_b, metric)
        if relation == ">":
            holds = a > b + tol
        elif relation == ">=":
            holds = a >= b - tol
        elif relation == "==":
            holds = abs(a - b) <= tol
        else:
            raise ValueError(f"unknown relation {relation!r}")
        ordering = Ordering(metric=metric,
                            relation=f"{label_a} {relation} {label_b}",
                            holds=holds)
        self.orderings.append(ordering)
        return ordering

    @property
    def all_hold(self) -> bool:
        return all(o.holds for o in self.orderings)


def _metrics_from(outcome) -> dict[str, float]:
    m = {
        "total_share": outcome.contract.total_share,
        "total_effort": outcome.total_effort,
        "cp_utility": outcome.cp_utility,
    }
    for i, u in enumerate(outcome.isp_utilities, start=1):
        m[f"isp{i}_utility"] = u
    return m


def compare_public_private(r: float, c1: float, c2: float) -> ComparisonReport:
    """Both-private market versus one-public-one-private market.

    Checks the three orderings that follow from W and x/W(x) being
    increasing: the private pair extracts a larger total share, while the
    public variant yields more total effort and a better-off CP.
    """
    if r <= pin_cost(ScenarioKind.ASYMMETRIC_COMPETITIVE, (c1, c2)):
        raise DegenerateRegimeError(
            f"comparison needs r > c1 + c2; got r={r!r}, c1+c2={c1 + c2!r}"
        )
    both_private = solve_asymmetric_competitive(r, c1, c2)
    one_public = solve_public_private(r, c1, c2)
    report = ComparisonReport(
        scenarios=("both-private", "one-public"),
        metrics={
            "both-private": {
                "total_share": both_private.shares.total_share,
                "total_effort": both_private.total_effort,
                "cp_utility": both_private.cp_utility,
            },
            "one-public": _metrics_from(one_public),
        },
    )
    report.check("total_share", "both-private", "one-public", ">")
    report.check("total_effort", "one-public", "both-private", ">")
    report.check("cp_utility", "one-public", "both-private", ">")
    return report


def compare_coop_comp(
        r: float, c1: float, c2: float,
        disagreement: DisagreementPolicy = DisagreementPolicy.regulated_competitive(),
        include_nbs: bool = True) -> ComparisonReport:
    """Regulated competitive versus cooperative play, plus the bargained NBS.

    The cooperative leg is the CP-preferred branch of the regulated
    cooperative solve; the NBS leg is the nested numerical bargain with the
    given disagreement policy (infeasible bargains propagate). Checks that
    cooperation raises total effort and CP utility.
    """
    if r <= pin_cost(ScenarioKind.REGULATED_COMPETITIVE, (c1, c2)):
        raise DegenerateRegimeError(
            f"comparison needs r > c1 + c2; got r={r!r}, c1+c2={c1 + c2!r}"
        )
    competitive = solve_regulated_competitive(r, c1, c2)
    _, cooperative = solve_regulated_cooperative_cp_preferred(r, c1, c2)
    labels = ["regulated-competitive", "regulated-cooperative"]
    metrics = {
        "regulated-competitive": _metrics_from(competitive),
        "regulated-cooperative": _metrics_from(cooperative),
    }
    if include_nbs:
        nbs_outcome, _ = oracle.solve_asymmetric_cooperative(
            r, c1, c2, disagreement=disagreement)
        labels.append("nbs-cooperative")
        metrics["nbs-cooperative"] = _metrics_from(nbs_outcome)
    report = ComparisonReport(scenarios=tuple(labels), metrics=metrics)
    report.check("total_effort", "regulated-cooperative", "regulated-competitive", ">=")
    report.check("cp_utility", "regulated-cooperative", "regulated-competitive", ">=")
    if include_nbs:
        report.check("total_effort", "nbs-cooperative", "regulated-competitive", ">=")
        report.check("cp_utility", "nbs-cooperative", "regulated-competitive", ">=")
    return report


def n_scaling_report(r: float, c: float, n_values: list[int]) -> ComparisonReport:
    """How the symmetric competitive equilibrium scales with the ISP count.

    Tabulates beta, n*beta, a, n*a, U_CP and U_ISP across n and checks the
    scaling picture: per-ISP share, effort and utility all strictly fall
    while the totals and the CP's utility stay put. A degenerate r <= c is
    reported as an all-zero table whose strict orderings fail.
    """
    if not n_values:
        raise ValueError("n_values must be non-empty")
    labels = tuple(f"n={n}" for n in n_values)
    metrics: dict[str, dict[str, float]] = {}
    for n, label in zip(n_values, labels):
        out = solve_symmetric_competitive(r, c, n)
        beta = out.contract.shares[0]
        effort = out.efforts.efforts[0]
        metrics[label] = {
            "beta": beta,
            "n_beta": n * beta,
            "effort": effort,
            "n_effort": n * effort,
            "cp_utility": out.cp_utility,
            "isp_utility": out.isp_utilities[0],
            "degenerate": float(out.degenerate),
        }
    report = ComparisonReport(scenarios=labels, metrics=metrics)
    for prev, cur in zip(labels, labels[1:]):
        for metric in ("beta", "effort", "isp_utility"):
            report.check(metric, prev, cur, ">")
        for metric in ("n_beta", "n_effort", "cp_utility"):
            report.check(metric, prev, cur, "==", tol=1e-9)
    return report
