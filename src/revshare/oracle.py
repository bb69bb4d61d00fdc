"""Brute-force numerical solvers, independent of the closed forms.

Nothing here evaluates Lambert W or any W-based formula: leader problems
are solved by grid-then-golden-section search, follower problems by
bounded golden-section, and the bargaining stage by a multistart
grid-golden-bisection search over log total effort, with the split at each
total in closed form. When these and the closed forms disagree, the
numbers computed here are authoritative.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

from .model import (
    BargainNotConvergedError,
    BargainingResult,
    Contract,
    DisagreementPolicy,
    EffortProfile,
    EquilibriumOutcome,
    InfeasibleBargainError,
)

__all__ = [
    "SearchConfig",
    "KktRegion",
    "KktCase",
    "golden_section_max",
    "best_response_effort",
    "leader_optimum",
    "kkt_classify",
    "nash_product_maximize",
    "solve_asymmetric_cooperative",
    "shapley_brute",
    "regulated_competitive_utilities_numeric",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Independent starts must land on the same maximizer for the bargaining
# stage to count as converged (the solution is unique when it exists).
_AGREEMENT_TOL = 1e-6
_PENALTY = 1e6
_NASH_GRID = 64  # points per start over the 25 units of log total effort
# Coarse outer grid for the nested leader search; each evaluation runs a
# full bargaining solve, so the 2001-point default would be wasteful.
_NESTED_GRID = 41


def __getattr__(name):
    # Exists only for perfbench's tracing hook, which wraps
    # ``oracle.minimize`` unconditionally; nothing here calls it. Resolving
    # it lazily keeps scipy out of ``import revshare``. ROADMAP item 6
    # deletes this once ``spans.install`` tolerates a missing attribute.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SearchConfig:
    """Budget and tolerances for the grid / golden-section searches."""

    grid_points: int = 2001
    refine_tolerance: float = 1e-10
    multistart_count: int = 8

    def __post_init__(self):
        if self.grid_points < 3:
            raise ValueError("grid_points must be at least 3")
        if self.refine_tolerance <= 0.0:
            raise ValueError("refine_tolerance must be positive")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be at least 1")


DEFAULT_SEARCH = SearchConfig()


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-10) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi].

    Shrinks the bracket until its width is below tol and returns the best
    point seen (bracket midpoint or either endpoint).
    """
    a, b = float(lo), float(hi)
    if b < a:
        a, b = b, a
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    best = max(((f(x), x) for x in (mid, lo, hi)), key=lambda t: t[0])
    return best[1]


def best_response_effort(beta_i: float, r: float, c_i: float, others_total: float,
                         config: SearchConfig = DEFAULT_SEARCH) -> float:
    """ISP i's optimal effort against the others' total, found numerically.

    Maximizes beta_i*r*log(others + a + 1) - c_i*a over a >= 0 by
    golden-section on [0, beta_i*r/c_i] (the upper endpoint dominates any
    larger effort because marginal revenue falls below c_i beyond it),
    then polishes by bisecting the payoff's slope: value comparisons alone
    cannot localize the flat top beyond about sqrt(machine epsilon).
    """
    if c_i <= 0.0:
        raise ValueError(f"cost must be positive, got {c_i!r}")
    if others_total < 0.0:
        raise ValueError(f"others_total must be non-negative, got {others_total!r}")
    if beta_i <= 0.0 or r <= 0.0:
        return 0.0

    def payoff(a: float) -> float:
        return beta_i * r * math.log(others_total + a + 1.0) - c_i * a

    def slope(a: float) -> float:
        return beta_i * r / (others_total + a + 1.0) - c_i

    if slope(0.0) <= 0.0:
        return 0.0
    hi = beta_i * r / c_i
    a_star = golden_section_max(payoff, 0.0, hi, tol=max(config.refine_tolerance, 1e-6))
    # concave payoff: the slope crosses zero exactly once in (0, hi)
    lo_b = max(0.0, a_star - 1e-3)
    hi_b = min(hi, a_star + 1e-3)
    if slope(lo_b) <= 0.0 or slope(hi_b) >= 0.0:
        lo_b, hi_b = 0.0, hi
    while hi_b - lo_b > config.refine_tolerance:
        mid = 0.5 * (lo_b + hi_b)
        if slope(mid) > 0.0:
            lo_b = mid
        else:
            hi_b = mid
    return 0.5 * (lo_b + hi_b)


def leader_optimum(objective: Callable[[float], float],
                   config: SearchConfig = DEFAULT_SEARCH) -> tuple[float, float]:
    """Maximize a leader objective over the share interval [0, 1].

    Coarse grid scan followed by golden-section refinement around the best
    grid cell. Unimodality is not assumed; the grid guards against local
    traps at the configured resolution.
    """
    n = config.grid_points
    xs = [k / (n - 1) for k in range(n)]
    vals = [objective(x) for x in xs]
    k = max(range(n), key=lambda i: vals[i])
    lo = xs[max(0, k - 1)]
    hi = xs[min(n - 1, k + 1)]
    x_star = golden_section_max(objective, lo, hi, tol=config.refine_tolerance)
    if vals[k] > objective(x_star):
        x_star = xs[k]
    return x_star, objective(x_star)


class KktRegion(Enum):
    """Which complementary-slackness case the share pair lands in."""

    INTERIOR = "interior"      # a1 > 0 and a2 > 0
    BOUNDARY1 = "boundary1"    # a1 > 0, a2 = 0
    BOUNDARY2 = "boundary2"    # a1 = 0, a2 > 0


@dataclass(frozen=True)
class KktCase:
    region: KktRegion
    multiplier: float


def kkt_classify(beta1: float, beta2: float, c1: float, c2: float) -> KktCase:
    """Classify the two-ISP best-response case for a given share pair.

    Interior requires beta1/beta2 = c1/c2 (to 1e-12); when beta1/beta2 is
    below the cost ratio the underpaid ISP1 idles (BOUNDARY2), otherwise
    ISP2 idles (BOUNDARY1). The multiplier solves the active case's ratio
    equation: beta1/beta2 = (c1 + lam)/c2 for BOUNDARY1 and
    beta1/beta2 = c1/(c2 + lam) for BOUNDARY2, non-negative in each region.
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("costs must be positive")
    if beta1 < 0.0 or beta2 < 0.0:
        raise ValueError("shares must be non-negative")
    if beta1 == 0.0 and beta2 == 0.0:
        raise ValueError("at least one share must be positive; (0, 0) is excluded")
    if beta2 == 0.0:
        return KktCase(KktRegion.BOUNDARY1, math.inf)
    if beta1 == 0.0:
        return KktCase(KktRegion.BOUNDARY2, math.inf)
    lhs = beta1 * c2
    rhs = beta2 * c1
    if abs(lhs - rhs) <= 1e-12 * max(lhs, rhs):
        return KktCase(KktRegion.INTERIOR, 0.0)
    if lhs < rhs:
        return KktCase(KktRegion.BOUNDARY2, beta2 * c1 / beta1 - c2)
    return KktCase(KktRegion.BOUNDARY1, beta1 * c2 / beta2 - c1)


def nash_product_maximize(r: float, c1: float, c2: float, beta: float,
                          d1: float = 0.0, d2: float = 0.0,
                          config: SearchConfig = DEFAULT_SEARCH) -> BargainingResult:
    """Maximize the Nash product of the two ISPs' surpluses over efforts.

    F_i = (beta*a_i/T)*r*log(T+1) - c_i*a_i - d_i with T = a1 + a2. At a
    fixed T, F1 = s*A - d1 and F2 = (1-s)*B - d2 are linear in s = a1/T
    (A = beta*r*log1p(T) - c1*T, B likewise), so the best split is the
    equal-surplus s* = (1 - d2/B + d1/A)/2 clamped to [0, 1]. Each of
    ``config.multistart_count`` phase-shifted grids over log T in
    [log(hi) - 25, log(hi)], hi = beta*r/min(c1, c2), refines every local
    maximum by golden section (a penalty outside positive surpluses leads
    into a narrow feasible window), then by bisecting the analytic slope.

    Raises
    ------
    InfeasibleBargainError
        If no start finds a point with both surpluses positive.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"joint share must lie in (0, 1), got {beta!r}")
    if c1 <= 0.0 or c2 <= 0.0 or r <= 0.0:
        raise ValueError("rate and costs must be positive")
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise ValueError("disagreement utilities must be finite")
    br = beta * r
    if br / min(c1, c2) <= 1e-3:
        raise InfeasibleBargainError("share too small for any profitable effort")
    z_hi = math.log(br / min(c1, c2))
    z_lo = z_hi - 25.0

    def point(z):
        t = math.exp(z)
        a, b = br * math.log1p(t) - c1 * t, br * math.log1p(t) - c2 * t
        # with margins of opposite sign the product rises towards the positive one
        s = 0.5 * (1.0 - d2 / b + d1 / a) if a * b > 0.0 else float(a > b)
        s = min(s, 1.0) if s > 0.0 else 0.0
        return t, s, s * a - d1, (1.0 - s) * b - d2

    def merit(z):
        _, _, f1, f2 = point(z)
        return math.log(f1) + math.log(f2) if f1 > 0.0 and f2 > 0.0 else min(f1, f2) - _PENALTY

    def rising(z):
        # envelope theorem: at the best split the T-slope holds s fixed
        t, s, f1, f2 = point(z)
        rate = br / (1.0 + t)
        return f1 > 0.0 and f2 > 0.0 and s * (rate - c1) / f1 + (1.0 - s) * (rate - c2) / f2 > 0.0

    def refine(lo, hi):
        z = golden_section_max(merit, lo, hi, tol=1e-7)
        # value comparisons cannot place a flat top; the slope's sign can
        lo, hi = max(z - 1e-5, z_lo), min(z + 1e-5, z_hi)
        if rising(lo) and not rising(hi):
            while lo < (z := 0.5 * (lo + hi)) < hi:
                lo, hi = (z, hi) if rising(z) else (lo, z)
        return merit(z), z

    # a negative d_i pays ISP i to idle: a peak where the other's margin peaks
    idle = [(merit(z), z) for d, c in ((d1, c2), (d2, c1)) if d < 0.0 and br > c
            for z in (max(math.log(br / c - 1.0), z_lo),)]

    def search(phase):
        zs = [z_lo, *(z_lo + (j + phase) * 25.0 / _NASH_GRID for j in range(_NASH_GRID)), z_hi]
        v = [-math.inf, *map(merit, zs[1:-1]), -math.inf]
        return point(max([refine(zs[j - 1], zs[j + 1]) for j in range(1, _NASH_GRID + 1)
                          if v[j - 1] < v[j] >= v[j + 1]] + idle)[1])

    count = config.multistart_count
    found = [p for p in map(search, ((k + 0.5) / count for k in range(count)))
             if p[2] > 0.0 and p[3] > 0.0]
    if not found:
        raise InfeasibleBargainError(
            f"no effort pair beats the disagreement point (d1={d1:.6g}, d2={d2:.6g})"
        )
    total, s, f1, f2 = max(found, key=lambda p: math.log(p[2]) + math.log(p[3]))
    a1, a2 = s * total, (1.0 - s) * total
    agreement = max(max(abs(t * u - a1), abs(t * (1.0 - u) - a2)) for t, u, _, _ in found)
    return BargainingResult(
        efforts=EffortProfile((a1, a2)),
        share_split=(beta * s, beta * (1.0 - s)),
        surpluses=(f1, f2),
        disagreement=(d1, d2),
        converged=len(found) == count and agreement <= _AGREEMENT_TOL,
        multistart_agreement=agreement,
    )


def regulated_competitive_utilities_numeric(
        r: float, c1: float, c2: float,
        config: SearchConfig = DEFAULT_SEARCH) -> tuple[float, float]:
    """Per-ISP utilities of the regulated competitive benchmark, derived
    entirely from searches: total share u from the leader scan over the
    searched aggregate response, split proportional to cost.
    """
    k = c1 + c2

    def objective(u: float) -> float:
        total = best_response_effort(u, r, k, 0.0, config)
        return (1.0 - u) * r * math.log(total + 1.0)

    u_star, _ = leader_optimum(objective, config)
    total = best_response_effort(u_star, r, k, 0.0, config)
    if total <= 0.0:
        raise InfeasibleBargainError(
            "regulated competitive benchmark is degenerate for these parameters"
        )
    d = math.log(total + 1.0)
    utilities = []
    for ci in (c1, c2):
        share = u_star * ci / k
        effort = ci / k * total
        utilities.append(share * r * d - ci * effort)
    return utilities[0], utilities[1]


def solve_asymmetric_cooperative(
        r: float, c1: float, c2: float,
        disagreement: DisagreementPolicy = DisagreementPolicy.regulated_competitive(),
        config: SearchConfig = DEFAULT_SEARCH,
        beta: float | None = None) -> tuple[EquilibriumOutcome, BargainingResult]:
    """Nested numerical solve of the cooperative market with bargained efforts.

    Outer stage: the CP's share beta is scanned on a coarse grid and
    refined by golden section, scoring each beta by (1-beta)*r*log(T+1)
    where T comes from the inner Nash-product maximization. Infeasible
    bargains score minus infinity. Pass ``beta`` to skip the outer stage.

    Returns the materialized outcome (shares implied by effort proportions)
    together with the bargaining result at the chosen share. The outcome's
    ``foc_residual`` is the finite-difference stationarity of the log Nash
    product, which settles near 1e-8 rather than the closed-form 1e-9; a
    surplus that binds within that step raises InfeasibleBargainError, and
    a final bargain whose starts disagree raises BargainNotConvergedError.
    """
    d1, d2 = (disagreement.d1, disagreement.d2) if disagreement.kind == "custom" else (0.0, 0.0)
    if disagreement.kind == "regulated-competitive":
        d1, d2 = regulated_competitive_utilities_numeric(r, c1, c2, config)
    scan_config = replace(config, multistart_count=min(config.multistart_count, 4))

    def cp_value(b: float) -> float:
        if not 1e-6 < b < 1.0 - 1e-12:
            return -math.inf
        try:
            inner = nash_product_maximize(r, c1, c2, b, d1, d2, scan_config)
        except InfeasibleBargainError:
            return -math.inf
        return (1.0 - b) * r * math.log(inner.efforts.total + 1.0)

    if beta is None:
        grid = [(k + 1) / (_NESTED_GRID + 1) for k in range(_NESTED_GRID)]
        vals = [cp_value(b) for b in grid]
        if max(vals) == -math.inf:
            raise InfeasibleBargainError(
                "no share in (0, 1) admits a feasible bargain for this disagreement point"
            )
        # a plateau counts once, at its left edge
        peaks = sum(
            1 for i in range(1, _NESTED_GRID - 1)
            if vals[i] > -math.inf and vals[i] > vals[i - 1] and vals[i] >= vals[i + 1]
        )
        if peaks > 1:
            warnings.warn(
                f"outer CP objective shows {peaks} local maxima on the scan grid",
                RuntimeWarning, stacklevel=2,
            )
        k = max(range(_NESTED_GRID), key=lambda i: vals[i])
        lo = grid[max(0, k - 1)]
        hi = grid[min(_NESTED_GRID - 1, k + 1)]
        beta_star = golden_section_max(cp_value, lo, hi, tol=1e-6)
        if cp_value(beta_star) < vals[k]:
            beta_star = grid[k]
    else:
        beta_star = beta

    result = nash_product_maximize(r, c1, c2, beta_star, d1, d2, config)
    if not result.converged:
        raise BargainNotConvergedError(f"bargain at beta={beta_star:.6g} did not converge: "
                                       f"multistart spread {result.multistart_agreement:.3g}")
    a1, a2 = result.efforts.efforts
    total = a1 + a2
    d = math.log(total + 1.0)
    shares = result.share_split

    def log_product(x, y):
        rev = beta_star * r * math.log(x + y + 1.0) / (x + y)
        f1, f2 = rev * x - c1 * x - d1, rev * y - c2 * y - d2
        if f1 <= 0.0 or f2 <= 0.0:
            binding = ", ".join(f"surplus F{i}={f:.3g}" for i, f in ((1, f1), (2, f2)) if f <= 0.0)
            raise InfeasibleBargainError(f"bargain at beta={beta_star:.6g} binds: {binding}")
        return math.log(f1) + math.log(f2)

    h = 1e-6
    residual = max(
        abs(log_product(a1 + h, a2) - log_product(a1 - h, a2)) / (2 * h),
        abs(log_product(a1, a2 + h) - log_product(a1, a2 - h)) / (2 * h),
    )
    outcome = EquilibriumOutcome(
        contract=Contract(shares=shares, joint_share=beta_star),
        efforts=result.efforts,
        demand=d,
        cp_utility=(1.0 - beta_star) * r * d,
        isp_utilities=tuple(b * r * d - c * a
                            for b, c, a in zip(shares, (c1, c2), (a1, a2))),
        total_effort=total,
        foc_residual=residual,
        degenerate=False,
    )
    return outcome, result


def shapley_brute(coalition_value: Callable[[frozenset[int]], float]) -> tuple[float, float]:
    """Two-player Shapley values by direct enumeration of the four coalitions.

    Phi_1 = (v({1}) + v({1,2}) - v({2})) / 2 and symmetrically for Phi_2;
    efficiency Phi_1 + Phi_2 = v({1,2}) holds exactly by construction.
    """
    v_empty = coalition_value(frozenset())
    if abs(v_empty) > 1e-12:
        raise ValueError(f"empty coalition must have value 0, got {v_empty!r}")
    v1 = coalition_value(frozenset({1}))
    v2 = coalition_value(frozenset({2}))
    v12 = coalition_value(frozenset({1, 2}))
    return 0.5 * (v1 + v12 - v2), 0.5 * (v2 + v12 - v1)
