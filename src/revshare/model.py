"""Core domain types and the market's utility/demand functions.

The economy: a content provider (CP) earns r per unit demand and offers
revenue-share fractions beta_i to ISPs; ISP i invests effort a_i at cost
c_i per unit; demand is log(sum of efforts + 1). Natural log throughout,
since the W-based closed forms are only consistent with base e.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

__all__ = [
    "Branch",
    "ScenarioKind",
    "Scenario",
    "SCENARIOS",
    "MarketParams",
    "Contract",
    "EffortProfile",
    "EquilibriumOutcome",
    "BargainingResult",
    "DisagreementPolicy",
    "ValidationReport",
    "DegenerateRegimeError",
    "InfeasibleEffortError",
    "InfeasibleBargainError",
    "NonFiniteOutcomeError",
    "demand",
    "equal_costs",
    "cp_utility",
    "isp_utility",
    "pin_cost",
    "validate",
]

# Slack for validating stored invariants against floating-point noise.
_ATOL = 1e-9


class DegenerateRegimeError(Exception):
    """Raised when an operation needs a non-degenerate regime but r is below
    the scenario's cost threshold."""


class InfeasibleEffortError(Exception):
    """Raised when an imposed effort level leaves no room for a non-negative
    complementary effort."""


class InfeasibleBargainError(Exception):
    """Raised when no effort/share allocation gives every bargainer strictly
    more than its disagreement utility."""


class NonFiniteOutcomeError(ArithmeticError):
    """Raised when a figure of a solved outcome overflows or is undefined."""


class Branch(str, Enum):
    """Which ISP's first-order condition pins total effort in joint-contract
    scenarios with asymmetric costs."""

    ISP1 = "isp1"
    ISP2 = "isp2"


class ScenarioKind(str, Enum):
    PUBLIC_PRIVATE = "public-private"
    PUBLIC_PRIVATE_REGULATED = "public-private-regulated"
    SYMMETRIC_COMPETITIVE = "symmetric-competitive"
    SYMMETRIC_COOPERATIVE = "symmetric-cooperative"
    ASYMMETRIC_COMPETITIVE = "asymmetric-competitive"
    REGULATED_COMPETITIVE = "regulated-competitive"
    REGULATED_COOPERATIVE = "regulated-cooperative"
    FIXED_PUBLIC_EFFORT_COOPERATIVE = "fixed-public-effort-cooperative"
    MULTI_CP_COMPETITIVE = "multi-cp-competitive"
    MULTI_CP_COOPERATIVE = "multi-cp-cooperative"


@dataclass(frozen=True)
class Scenario:
    """One market structure: its non-degeneracy ``condition``, its ``pin``
    cost as a function of (costs, branch) (see ``pin_cost``), how many ISP
    ``costs`` it takes (one for the symmetric markets, given once per ISP if
    every copy is equal) and whether it needs a second CP's rate."""

    condition: str
    pin: Callable[[tuple[float, ...], Branch | None], float]
    costs: int = 2
    two_cp: bool = False


# Each scenario's record; closed_form.SOLVERS holds its solve call under the
# same key. With no branch, regulated-cooperative pins on the cheaper ISP, its
# CP-preferred branch, and multi-cp-cooperative on ISP1, its default branch.
SCENARIOS: dict[ScenarioKind, Scenario] = {
    **dict.fromkeys((ScenarioKind.PUBLIC_PRIVATE, ScenarioKind.PUBLIC_PRIVATE_REGULATED,
                     ScenarioKind.FIXED_PUBLIC_EFFORT_COOPERATIVE),
                    Scenario("r > c2", lambda costs, branch: costs[-1])),
    **dict.fromkeys((ScenarioKind.SYMMETRIC_COMPETITIVE, ScenarioKind.SYMMETRIC_COOPERATIVE),
                    Scenario("r > c", lambda costs, branch: costs[0], costs=1)),
    **dict.fromkeys((ScenarioKind.ASYMMETRIC_COMPETITIVE, ScenarioKind.REGULATED_COMPETITIVE),
                    Scenario("r > c1 + c2", lambda costs, branch: sum(costs))),
    ScenarioKind.REGULATED_COOPERATIVE: Scenario(
        "r > min(c1, c2)", lambda costs, branch: min(costs) if branch is None
        else costs[-1] if branch is Branch.ISP2 else costs[0]),
    ScenarioKind.MULTI_CP_COMPETITIVE: Scenario(
        "r > c1 + c2", lambda costs, branch: sum(costs), two_cp=True),
    ScenarioKind.MULTI_CP_COOPERATIVE: Scenario(
        "r > c1", lambda costs, branch: costs[-1] if branch is Branch.ISP2 else costs[0],
        two_cp=True),
}


def equal_costs(costs: tuple[float, ...]) -> bool:
    """Whether every cost equals the first to 1e-12 of the smaller of the two:
    the one rule for a one-cost scenario given its cost once per ISP."""
    return all(c == costs[0] or abs(c - costs[0]) <= 1e-12 * min(c, costs[0])
               for c in costs[1:])


def pin_cost(scenario: ScenarioKind, costs: tuple[float, ...],
             branch: Branch | None = None) -> float:
    """The cost c whose W(r*e/c) pins the scenario's equilibrium share; it
    is also the degeneracy threshold, since r <= c leaves no profitable
    effort. ``branch`` selects the pinning ISP in the two branch scenarios."""
    return SCENARIOS[scenario].pin(costs, branch)


@dataclass(frozen=True)
class MarketParams:
    """Exogenous inputs: revenue rate r, per-ISP effort costs, and the
    optional second CP's rate for the two-CP market."""

    r: float
    costs: tuple[float, ...]
    second_cp_rate: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if not self.r > 0.0:
            raise ValueError(f"revenue rate must be positive, got {self.r!r}")
        if not self.costs:
            raise ValueError("at least one ISP cost is required")
        if any(c <= 0.0 for c in self.costs):
            raise ValueError(f"all costs must be positive, got {self.costs!r}")
        if self.second_cp_rate is not None and not self.second_cp_rate > 0.0:
            raise ValueError("second CP rate must be positive when given")

    @property
    def n(self) -> int:
        return len(self.costs)


@dataclass(frozen=True)
class Contract:
    """Revenue-share fractions beta_i, plus the total share for scenarios
    where the CP pays the ISPs jointly."""

    shares: tuple[float, ...]
    joint_share: float | None = None

    def __post_init__(self):
        shares = tuple(map(float, self.shares))
        object.__setattr__(self, "shares", shares)
        for b in shares:
            if b < -_ATOL or b > 1.0 + _ATOL:
                raise ValueError(f"share out of [0, 1]: {b!r}")
        if sum(shares) > 1.0 + _ATOL:
            raise ValueError(f"shares sum to more than 1: {shares!r}")
        if self.joint_share is not None and not -_ATOL <= self.joint_share <= 1.0 + _ATOL:
            raise ValueError(f"joint share out of [0, 1]: {self.joint_share!r}")

    @property
    def total_share(self) -> float:
        return self.joint_share if self.joint_share is not None else sum(self.shares)


@dataclass(frozen=True)
class EffortProfile:
    """Non-negative ISP investment efforts a_i."""

    efforts: tuple[float, ...]

    def __post_init__(self):
        efforts = tuple(map(float, self.efforts))
        object.__setattr__(self, "efforts", efforts)
        for a in efforts:
            if a < -_ATOL:
                raise ValueError(f"efforts must be non-negative, got {efforts!r}")

    @property
    def total(self) -> float:
        return sum(self.efforts)


@dataclass(frozen=True)
class EquilibriumOutcome:
    """A solved scenario: contract, efforts, and derived quantities.

    Total effort, demand and the utilities are derived from the contract,
    efforts, rate ``r`` and ISP ``costs``, as ``cp_utility`` and
    ``isp_utility`` define them. ``foc_residual`` is the violation of the
    scenario's first-order conditions at the returned point, relative to
    their size in the closed forms. ``degenerate`` marks the zero-share, zero-effort equilibrium that
    applies when r is below the scenario's cost threshold.
    """

    contract: Contract
    efforts: EffortProfile
    r: float
    costs: tuple[float, ...]
    foc_residual: float
    degenerate: bool
    total_effort: float = field(init=False)
    demand: float = field(init=False)
    cp_utility: float = field(init=False)
    isp_utilities: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        total, demand, cp, isps = _payoffs(self.r, self.costs, self.contract, self.efforts)
        # frozen, so the derived fields go straight into the instance dict
        vars(self).update(total_effort=total, demand=demand, cp_utility=cp,
                          isp_utilities=isps)
        efforts = self.efforts.efforts
        figures = (demand, cp, total, self.foc_residual, *efforts, *isps)
        if not all(map(math.isfinite, figures)):
            names = ("demand", "cp_utility", "total_effort", "foc_residual",
                     *(f"effort of ISP {i}" for i in range(1, len(efforts) + 1)),
                     *(f"utility of ISP {i}" for i in range(1, len(isps) + 1)))
            name, value = next((n, v) for n, v in zip(names, figures) if not math.isfinite(v))
            raise NonFiniteOutcomeError(f"outcome has a non-finite {name}: {value!r}")


@dataclass(frozen=True)
class DisagreementPolicy:
    """How the bargaining disagreement point (d1, d2) is chosen.

    The competitive fallback is what each ISP would earn without a joint
    contract; it is an explicit parameter because the unregulated
    competitive scenario has a continuum of per-ISP utilities, so no single
    resolution is canonical.
    """

    kind: str  # "zero" | "regulated-competitive" | "custom"
    d1: float = 0.0
    d2: float = 0.0

    _KINDS = ("zero", "regulated-competitive", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown disagreement policy {self.kind!r}")
        if self.kind == "custom" and not (math.isfinite(self.d1) and math.isfinite(self.d2)):
            raise ValueError("custom disagreement values must be finite")

    @classmethod
    def zero(cls) -> "DisagreementPolicy":
        return cls("zero")

    @classmethod
    def regulated_competitive(cls) -> "DisagreementPolicy":
        return cls("regulated-competitive")

    @classmethod
    def custom(cls, d1: float, d2: float) -> "DisagreementPolicy":
        return cls("custom", float(d1), float(d2))


@dataclass(frozen=True)
class BargainingResult:
    """Outcome of a Nash-bargaining stage.

    ``share_split`` is the implied (beta1, beta2) division of the joint
    share; ``surpluses`` are the factors F_i = U_i - d_i of the Nash
    product at the solution. ``converged`` is True and
    ``multistart_agreement`` 0 by construction: the search returns its
    best point or raises. Both stay because ``nbs`` prints them and
    the NBS battery checks them.
    """

    efforts: EffortProfile
    share_split: tuple[float, float]
    surpluses: tuple[float, float]
    disagreement: tuple[float, float]
    converged: bool
    multistart_agreement: float


@dataclass(frozen=True)
class ValidationReport:
    """Whether a scenario's non-degeneracy condition holds for the given
    parameters; never raises, only reports."""

    scenario: ScenarioKind
    valid: bool
    degenerate: bool
    condition: str
    threshold: float
    notes: tuple[str, ...] = ()


def demand(efforts: EffortProfile) -> float:
    """Demand increment log(sum of efforts + 1); zero iff all efforts are zero."""
    return math.log(efforts.total + 1.0)


def _payoffs(r: float, costs: tuple[float, ...], contract: Contract,
             efforts: EffortProfile) -> tuple[float, float, float, tuple[float, ...]]:
    """(total effort, demand, CP utility, ISP utilities): the CP keeps
    (1 - total share) * r * demand and ISP i nets beta_i * r * demand - c_i * a_i.
    A joint contract's utilities use its per-ISP split."""
    total = sum(efforts.efforts)
    d = math.log(total + 1.0)
    return (total, d, (1.0 - contract.total_share) * r * d,
            tuple([b * r * d - c * a for b, c, a in zip(contract.shares, costs, efforts.efforts)]))


def cp_utility(params: MarketParams, contract: Contract, efforts: EffortProfile) -> float:
    """CP's retained revenue (1 - total share) * r * demand."""
    if contract.joint_share is None and len(contract.shares) != len(efforts.efforts):
        raise ValueError(
            f"contract has {len(contract.shares)} shares but profile has "
            f"{len(efforts.efforts)} efforts"
        )
    return _payoffs(params.r, params.costs, contract, efforts)[2]


def isp_utility(params: MarketParams, i: int, contract: Contract, efforts: EffortProfile) -> float:
    """ISP i's net payoff beta_i * r * demand - c_i * a_i."""
    if not 0 <= i < len(efforts.efforts):
        raise IndexError(f"ISP index {i} out of range for {len(efforts.efforts)} ISPs")
    if i >= len(contract.shares):
        raise ValueError("per-ISP share undefined: joint contract carries no split")
    if i >= len(params.costs):
        raise IndexError(f"ISP index {i} out of range for {len(params.costs)} costs")
    return _payoffs(params.r, params.costs, contract, efforts)[3][i]


def validate(params: MarketParams, scenario: ScenarioKind) -> ValidationReport:
    """Report whether the scenario's non-degeneracy condition holds.

    When it does not, the zero-share, zero-effort equilibrium applies: the
    CP has no incentive to share because total effort would stay below one
    demand unit. Multi-CP scenarios require the condition for both rates.
    """
    record = SCENARIOS[scenario]
    threshold = record.pin(params.costs, None)
    notes: list[str] = []
    if record.costs == 1:
        if not equal_costs(params.costs):
            notes.append("symmetric scenario given unequal costs; using the first cost")
    elif params.n != 2:
        notes.append(f"scenario expects two ISP costs, got {params.n}")
    valid = params.r > threshold
    if record.two_cp:
        if params.second_cp_rate is None:
            notes.append("two-CP scenario without a second rate; checked the first rate only")
        elif not params.second_cp_rate > threshold:
            notes.append("second CP rate is in the degenerate regime")
            valid = False
    if not valid:
        notes.append("degenerate regime: zero shares and zero efforts are the equilibrium")
    return ValidationReport(
        scenario=scenario,
        valid=valid,
        degenerate=not valid,
        condition=record.condition,
        threshold=threshold,
        notes=tuple(notes),
    )
