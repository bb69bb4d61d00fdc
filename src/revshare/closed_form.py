"""Closed-form equilibrium solvers.

Every scenario with an explicit W-based equilibrium formula is solved here.
Conventions shared by all solvers:

* Degenerate regimes (r at or below the scenario's ``model.pin_cost``) return
  an explicit zero outcome flagged ``degenerate=True`` instead of raising, so
  parameter sweeps never abort.
* ``foc_residual`` is the scale-free violation of the scenario's leader and
  follower first-order conditions at the returned point (``_foc_residual``).
* Joint contracts carry both the total share and the canonical per-ISP
  split (proportional to effort), so per-ISP utilities are always defined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .lambertw import lambert_w0_ratio
from .model import (
    Branch,
    Contract,
    EffortProfile,
    EquilibriumOutcome,
    InfeasibleEffortError,
    NonFiniteOutcomeError,
    ScenarioKind,
    pin_cost,
)

__all__ = [
    "SOLVERS",
    "ContinuumEquilibrium",
    "solve_public_private",
    "solve_public_private_regulated",
    "solve_symmetric_competitive",
    "solve_symmetric_cooperative",
    "solve_asymmetric_competitive",
    "solve_regulated_competitive",
    "solve_regulated_cooperative",
    "solve_regulated_cooperative_cp_preferred",
    "solve_fixed_public_effort_coop",
    "solve_multi_cp",
    "symmetric_per_isp_utility_forms",
]


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not v > 0.0:
            raise ValueError(f"{name} must be positive, got {v!r}")


def _exceeds_budget(a1_bar: float, budget: float) -> bool:
    """Whether an imposed effort exceeds the total effort budget by more than
    a relative 1e-12, the slack left for rounding. A budget that rounds
    below zero leaves room for no effort but zero."""
    return a1_bar > max(budget, 0.0) * (1.0 + 1e-12)


def _foc_residual(share: float, r: float, k: float, total: float) -> float:
    """The larger of the leader's |ln(B*r/k) - (1 - B)/B| and the followers'
    |T + 1 - B*r/k| for share B, pin cost k and total effort T, each divided
    by the larger of 1 and its own two operands, so that no scale inflates it."""
    pinned = share * r / k
    leader, lead_rhs = math.log(pinned), (1.0 - share) / share
    return max(abs(leader - lead_rhs) / max(1.0, abs(leader), abs(lead_rhs)),
               abs(total + 1.0 - pinned) / max(1.0, abs(total + 1.0), abs(pinned)))


def _outcome(r, costs, shares, efforts, foc_residual, joint_share=None,
             degenerate=False) -> EquilibriumOutcome:
    # positional: the field order of Contract, EffortProfile and EquilibriumOutcome
    return EquilibriumOutcome(Contract(shares, joint_share), EffortProfile(efforts), r, costs,
                              foc_residual, degenerate)


def _zero_outcome(r, costs, joint: bool = False) -> EquilibriumOutcome:
    zeros = (0.0,) * len(costs)
    return _outcome(r, costs, zeros, zeros, 0.0, joint_share=0.0 if joint else None,
                    degenerate=True)


def solve_public_private(r: float, c1: float, c2: float) -> EquilibriumOutcome:
    """One public (break-even) and one private ISP, no obligation on the CP.

    The CP optimally shares nothing with the public ISP, so beta1 = 0,
    beta2 = 1/W(r*e/c2), and only the private ISP invests:
    a2 = r/(c2*W(r*e/c2)) - 1. The public ISP's cost c1 is irrelevant.
    Degenerate for r <= c2.
    """
    _require_positive(r=r, c1=c1, c2=c2)
    k = pin_cost(ScenarioKind.PUBLIC_PRIVATE, (c1, c2))
    if r <= k:
        return _zero_outcome(r, (c1, c2))
    w = lambert_w0_ratio(r, k)
    beta2 = 1.0 / w
    a2 = r / (k * w) - 1.0
    return _outcome(r, (c1, c2), (0.0, beta2), (0.0, a2), _foc_residual(beta2, r, k, a2))


def solve_public_private_regulated(r: float, c1: float, c2: float,
                                   a1_bar: float) -> EquilibriumOutcome:
    """Public/private market where a regulator forces beta1 > 0.

    The public ISP is held to effort a1_bar and paid exactly break-even:
    beta1 = a1_bar*c1 / (r*log(beta2*r/c2)) so its utility is zero. The
    private share beta2 = 1/W(r*e/c2) is unchanged, and the private effort
    shrinks one-for-one: a2 = r/(c2*W) - a1_bar - 1.
    """
    _require_positive(r=r, c1=c1, c2=c2)
    if a1_bar < 0.0:
        raise ValueError(f"imposed public effort must be non-negative, got {a1_bar!r}")
    k = pin_cost(ScenarioKind.PUBLIC_PRIVATE_REGULATED, (c1, c2))
    if r <= k:
        return _zero_outcome(r, (c1, c2))
    w = lambert_w0_ratio(r, k)
    beta2 = 1.0 / w
    budget = r / (k * w) - 1.0
    if _exceeds_budget(a1_bar, budget):
        raise InfeasibleEffortError(
            f"a1_bar={a1_bar!r} exceeds the total effort budget "
            f"{budget:.6g}; private effort would be negative"
        )
    a2 = max(r / (k * w) - a1_bar - 1.0, 0.0)
    log_ratio = math.log(beta2 * r / k)
    beta1 = a1_bar * c1 / (r * log_ratio)
    if beta1 + beta2 > 1.0 + 1e-12:
        raise InfeasibleEffortError(
            "break-even share for the public ISP pushes the total share above one"
        )
    return _outcome(r, (c1, c2), (beta1, beta2), (a1_bar, a2),
                    _foc_residual(beta2, r, k, a1_bar + a2))


def solve_symmetric_competitive(r: float, c: float, n: int) -> EquilibriumOutcome:
    """n private ISPs with equal cost c, each contracted individually.

    Per-ISP share beta = 1/(n*W(r*e/c)); each effort a = beta*r/c - 1/n, so
    total effort r/(c*W) - 1 and demand W - 1 are independent of n, as is
    the CP's utility r*(W-1)^2/W.
    """
    _require_positive(r=r, c=c)
    if n < 1:
        raise ValueError(f"need at least one ISP, got n={n!r}")
    k = pin_cost(ScenarioKind.SYMMETRIC_COMPETITIVE, (c,))
    if r <= k:
        return _zero_outcome(r, (c,) * n)
    w = lambert_w0_ratio(r, k)
    beta = 1.0 / (n * w)
    a = beta * r / c - 1.0 / n
    # Leader optimum of (1 - n*beta) * r * log(n*beta*r/c).
    return _outcome(r, (c,) * n, (beta,) * n, (a,) * n, _foc_residual(n * beta, r, k, n * a))


def solve_symmetric_cooperative(r: float, c: float, n: int) -> EquilibriumOutcome:
    """n equal-cost ISPs under a single joint contract, split equally.

    Joint share beta = 1/W(r*e/c) with per-ISP efforts (beta*r/c - 1)/n;
    totals coincide exactly with the competitive solve, which is why
    symmetric markets gain nothing from forcing cooperation.
    """
    _require_positive(r=r, c=c)
    if n < 1:
        raise ValueError(f"need at least one ISP, got n={n!r}")
    k = pin_cost(ScenarioKind.SYMMETRIC_COOPERATIVE, (c,))
    if r <= k:
        return _zero_outcome(r, (c,) * n, joint=True)
    w = lambert_w0_ratio(r, k)
    beta = 1.0 / w
    a = (beta * r / c - 1.0) / n
    return _outcome(r, (c,) * n, (beta / n,) * n, (a,) * n, _foc_residual(beta, r, k, n * a),
                    joint_share=beta)


@dataclass(frozen=True)
class ContinuumEquilibrium:
    """Asymmetric competitive equilibrium: shares and total effort are
    pinned, but any split a1 = t*total, a2 = (1-t)*total is a best-response
    pair, so the equilibrium is a continuum indexed by t in [0, 1].

    The canonical split t = c1/(c1+c2) matches the regulated scenario and
    makes the two directly comparable.
    """

    r: float
    c1: float
    c2: float
    total_effort: float
    shares: Contract
    split_parameter: float
    degenerate: bool

    @property
    def cp_utility(self) -> float:
        return (1.0 - self.shares.total_share) * self.r * math.log(self.total_effort + 1.0)

    def outcome_at(self, t: float) -> EquilibriumOutcome:
        """Materialize the equilibrium at split a1 = t*total_effort."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"split parameter must lie in [0, 1], got {t!r}")
        if self.degenerate:
            return _zero_outcome(self.r, (self.c1, self.c2))
        # an overflowed total would split into inf - inf = nan
        if not math.isfinite(self.total_effort):
            raise NonFiniteOutcomeError(
                f"outcome has a non-finite total_effort: {self.total_effort!r}")
        a1 = t * self.total_effort
        a2 = self.total_effort - a1
        b1, b2 = self.shares.shares
        # b_i is proportional to c_i, so the total share's conditions imply
        # each ISP's b_i*r/(T + 1) = c_i
        residual = _foc_residual(b1 + b2, self.r, self.c1 + self.c2, self.total_effort)
        return _outcome(self.r, (self.c1, self.c2), (b1, b2), (a1, a2), residual)


def solve_asymmetric_competitive(r: float, c1: float, c2: float) -> ContinuumEquilibrium:
    """Two private ISPs with costs c1, c2, contracted individually.

    The CP's optimum keeps both ISPs interior, which forces
    beta1/beta2 = c1/c2 and gives beta_i = c_i/((c1+c2)*W(r*e/(c1+c2)))
    with total effort r/((c1+c2)*W) - 1. Degenerate for r <= c1+c2.
    """
    _require_positive(r=r, c1=c1, c2=c2)
    k = pin_cost(ScenarioKind.ASYMMETRIC_COMPETITIVE, (c1, c2))
    if r <= k:
        return ContinuumEquilibrium(
            r=r, c1=c1, c2=c2, total_effort=0.0,
            shares=Contract(shares=(0.0, 0.0)),
            split_parameter=c1 / k, degenerate=True,
        )
    w = lambert_w0_ratio(r, k)
    b1 = c1 / (k * w)
    b2 = c2 / (k * w)
    total = r / (k * w) - 1.0
    return ContinuumEquilibrium(
        r=r, c1=c1, c2=c2, total_effort=total,
        shares=Contract(shares=(b1, b2)),
        split_parameter=c1 / k, degenerate=False,
    )


def solve_regulated_competitive(r: float, c1: float, c2: float) -> EquilibriumOutcome:
    """Asymmetric competitive market with efforts regulated to follow shares.

    The intervention a1/a2 = beta1/beta2 selects the canonical point of the
    competitive continuum: shares and total effort as in the unregulated
    case, with the unique split a_i = c_i/(c1+c2) * total.
    """
    cont = solve_asymmetric_competitive(r, c1, c2)
    return cont.outcome_at(cont.split_parameter)


def solve_regulated_cooperative(r: float, c1: float, c2: float,
                                branch: Branch) -> EquilibriumOutcome:
    """Joint contract under the effort-follows-share regulation.

    The coalition's first-order condition pins total effort through one
    ISP's cost: total + 1 = beta*r/c_b for branch cost c_b, giving
    beta = 1/W(r*e/c_b) and efforts a_i = c_i/(c1+c2) * total. Both
    branches are stationary; use the CP-preferred wrapper to pick one.
    """
    _require_positive(r=r, c1=c1, c2=c2)
    cb = pin_cost(ScenarioKind.REGULATED_COOPERATIVE, (c1, c2), branch)
    if r <= cb:
        return _zero_outcome(r, (c1, c2), joint=True)
    k = c1 + c2
    w = lambert_w0_ratio(r, cb)
    beta = 1.0 / w
    total = r / (cb * w) - 1.0
    a1 = c1 / k * total
    a2 = c2 / k * total
    # Split proportional to effort, the constraint the regulation imposes.
    shares = (beta * c1 / k, beta * c2 / k)
    return _outcome(r, (c1, c2), shares, (a1, a2), _foc_residual(beta, r, cb, total),
                    joint_share=beta)


# Relative cost gap above which the cheaper regulated-cooperative branch wins
# outright (see solve_regulated_cooperative_cp_preferred).
_BRANCH_GAP = 1e-9


def solve_regulated_cooperative_cp_preferred(
        r: float, c1: float, c2: float) -> tuple[Branch, EquilibriumOutcome]:
    """Resolve the branch choice by maximizing the CP's utility.

    The cheaper-cost branch wins because x/W(x) is increasing, so the raw
    per-branch solver remains available for the dominated branch. A
    non-degenerate branch beats a degenerate one at equal CP utility (zero,
    where the cheap branch's share rounds to one); ISP1 wins any other tie.

    Only the cheaper branch is solved where it cannot lose or tie: r above
    both costs and the costs more than 1e-9 apart, relative. There the CP
    utilities r*(W-1)^2/W of the two branches differ by a relative
    1e-9/(W-1) or more, some 1e5 times their rounding error, while costs
    closer than about 1e-13 can tie exactly. Anywhere else, and wherever
    the cheaper branch fails (so that the error raised is the one the
    ISP1-first order below raises), both branches are solved and compared.
    """
    if r > max(c1, c2) and abs(c1 - c2) > _BRANCH_GAP * max(c1, c2):
        cheaper = Branch.ISP1 if c1 < c2 else Branch.ISP2
        try:
            return cheaper, solve_regulated_cooperative(r, c1, c2, cheaper)
        except (ValueError, ArithmeticError):
            pass
    outcomes = {branch: solve_regulated_cooperative(r, c1, c2, branch) for branch in Branch}
    best = max(outcomes, key=lambda branch: (outcomes[branch].cp_utility,
                                             not outcomes[branch].degenerate))
    return best, outcomes[best]


def solve_fixed_public_effort_coop(r: float, c1: float, c2: float,
                                   a1_bar: float) -> EquilibriumOutcome:
    """Joint contract when the public ISP's effort is fixed at a1_bar.

    The private ISP maximizes the coalition payoff, so total + 1 = beta*r/c2
    with beta = 1/W(r*e/c2): total effort is independent of a1_bar and equal
    to the one-public competitive total.
    """
    _require_positive(r=r, c1=c1, c2=c2)
    if a1_bar < 0.0:
        raise ValueError(f"fixed public effort must be non-negative, got {a1_bar!r}")
    k = pin_cost(ScenarioKind.FIXED_PUBLIC_EFFORT_COOPERATIVE, (c1, c2))
    if r <= k:
        return _zero_outcome(r, (c1, c2), joint=True)
    w = lambert_w0_ratio(r, k)
    beta = 1.0 / w
    total = r / (k * w) - 1.0
    if _exceeds_budget(a1_bar, total):
        raise InfeasibleEffortError(
            f"a1_bar={a1_bar!r} exceeds the total effort budget {total:.6g}"
        )
    a2 = max(total - a1_bar, 0.0)
    shares = (beta * a1_bar / total, beta * a2 / total)
    return _outcome(r, (c1, c2), shares, (a1_bar, a2), _foc_residual(beta, r, k, total),
                    joint_share=beta)


def solve_multi_cp(r1: float, r2: float, c1: float, c2: float,
                   mode: ScenarioKind, branch: Branch | None = None,
                   ) -> list[EquilibriumOutcome]:
    """Two CPs with rates r1, r2 contracting the same two ISPs.

    Utilities are additive across CPs and each (ISP, CP) effort is its own
    decision variable, so the market decouples into two single-CP problems
    solved at the respective rate. Competitive mode uses the regulated
    split; cooperative mode needs a branch. Degeneracy is per CP.
    """
    _require_positive(r1=r1, r2=r2, c1=c1, c2=c2)
    if mode is ScenarioKind.MULTI_CP_COMPETITIVE:
        return [solve_regulated_competitive(rj, c1, c2) for rj in (r1, r2)]
    if mode is ScenarioKind.MULTI_CP_COOPERATIVE:
        if branch is None:
            raise ValueError("cooperative two-CP solve needs a branch")
        return [solve_regulated_cooperative(rj, c1, c2, branch) for rj in (r1, r2)]
    raise ValueError(f"mode must be one of the two-CP scenarios, got {mode!r}")


# Each scenario's solve call. Entries take the market as keywords (r, c1,
# c2, n, a1_bar, r2, branch; symmetric scenarios read their cost from c1)
# and return (branch solved on, outcome), a per-CP list for two CPs. With
# no branch, regulated-cooperative takes the CP-preferred one, two CPs ISP1.
SOLVERS: dict[ScenarioKind, Callable[..., tuple]] = {
    ScenarioKind.PUBLIC_PRIVATE: lambda r, c1, c2, branch, **_: (
        branch, solve_public_private(r, c1, c2)),
    ScenarioKind.PUBLIC_PRIVATE_REGULATED: lambda r, c1, c2, a1_bar, branch, **_: (
        branch, solve_public_private_regulated(r, c1, c2, a1_bar)),
    ScenarioKind.SYMMETRIC_COMPETITIVE: lambda r, c1, n, branch, **_: (
        branch, solve_symmetric_competitive(r, c1, n)),
    ScenarioKind.SYMMETRIC_COOPERATIVE: lambda r, c1, n, branch, **_: (
        branch, solve_symmetric_cooperative(r, c1, n)),
    # asymmetric-competitive reports the continuum's canonical (regulated) point
    **dict.fromkeys(
        (ScenarioKind.ASYMMETRIC_COMPETITIVE, ScenarioKind.REGULATED_COMPETITIVE),
        lambda r, c1, c2, branch, **_: (branch, solve_regulated_competitive(r, c1, c2))),
    ScenarioKind.REGULATED_COOPERATIVE: lambda r, c1, c2, branch, **_: (
        solve_regulated_cooperative_cp_preferred(r, c1, c2) if branch is None
        else (branch, solve_regulated_cooperative(r, c1, c2, branch))),
    ScenarioKind.FIXED_PUBLIC_EFFORT_COOPERATIVE: lambda r, c1, c2, a1_bar, branch, **_: (
        branch, solve_fixed_public_effort_coop(r, c1, c2, a1_bar)),
    ScenarioKind.MULTI_CP_COMPETITIVE: lambda r, c1, c2, r2, branch, **_: (
        branch, solve_multi_cp(r, r2, c1, c2, ScenarioKind.MULTI_CP_COMPETITIVE)),
    ScenarioKind.MULTI_CP_COOPERATIVE: lambda r, c1, c2, r2, branch, **_: (
        branch or Branch.ISP1, solve_multi_cp(r, r2, c1, c2, ScenarioKind.MULTI_CP_COOPERATIVE,
                                              branch or Branch.ISP1)),
}


def symmetric_per_isp_utility_forms(r: float, c: float, n: int) -> tuple[float, float]:
    """Direct per-ISP utility at the symmetric competitive equilibrium and
    its algebraically distributed variant r*(1 - (n+1)/(n*W)) + c/n.

    The two agree only at n = 1; the direct definition is authoritative and
    is what the solvers report. Both are returned so the gap stays visible
    rather than silently patched.
    """
    out = solve_symmetric_competitive(r, c, n)
    if out.degenerate:
        return 0.0, 0.0
    w = lambert_w0_ratio(r, c)
    return out.isp_utilities[0], r * (1.0 - (n + 1.0) / (n * w)) + c / n
