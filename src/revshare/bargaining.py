"""Closed-form Nash bargaining splits and Shapley values.

These are the stage-two results for joint-contract scenarios: given the
total share and efforts, how the revenue fraction divides between the two
ISPs. Each closed form has a brute-force counterpart in ``oracle`` and the
brute-force number is authoritative whenever the two disagree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .closed_form import solve_regulated_competitive, solve_regulated_cooperative
from .lambertw import lambert_w0_ratio
from .model import (
    BargainingResult,
    Branch,
    DegenerateRegimeError,
    DisagreementPolicy,
    InfeasibleBargainError,
)
from .oracle import shapley_brute

__all__ = [
    "BargainingResult",
    "DisagreementPolicy",
    "NbsSplit",
    "ShapleyReport",
    "nbs_split_closed",
    "disagreement_point",
    "coalition_values",
    "shapley_closed",
]


class NbsSplit(NamedTuple):
    """Division (beta1, beta2) of a joint share; ``clamped`` marks a split
    pushed to a participation boundary."""

    beta1: float
    beta2: float
    clamped: bool


def nbs_split_closed(beta: float, a1: float, a2: float, d1: float, d2: float,
                     r: float, c1: float, c2: float, branch_cost: float) -> NbsSplit:
    """Closed-form Nash bargaining split of the joint share ``beta``.

    With revenue-per-share r*L fixed by L = log(beta*r/branch_cost), the
    Nash product over beta1 is a downward parabola whose vertex is the
    equal-surplus point:

        beta1 = beta/2 - (c2*a2 - c1*a1 + d2 - d1) / (2*r*L)

    If the vertex violates an ISP's participation constraint
    beta_i*r*L - c_i*a_i >= d_i, that ISP is clamped to its reservation
    share (c_i*a_i + d_i)/(r*L) and the remainder goes to the other.

    Raises
    ------
    InfeasibleBargainError
        If total surplus beta*r*L - c1*a1 - c2*a2 falls short of d1 + d2.
    ValueError
        If the log factor is not positive (demand would not cover a unit).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"joint share must lie in (0, 1], got {beta!r}")
    if a1 < 0.0 or a2 < 0.0:
        raise ValueError("efforts must be non-negative")
    ratio = beta * r / branch_cost
    if ratio <= 1.0:
        raise ValueError(
            f"log(beta*r/branch_cost) must be positive, got beta*r/branch_cost={ratio!r}"
        )
    log_factor = math.log(ratio)
    revenue = r * log_factor
    surplus = beta * revenue - c1 * a1 - c2 * a2
    slack = surplus - (d1 + d2)
    if slack < -1e-12 * max(1.0, abs(d1 + d2)):
        raise InfeasibleBargainError(
            f"total surplus {surplus:.6g} cannot cover the disagreement point "
            f"{d1 + d2:.6g}"
        )
    beta1 = beta / 2.0 - (c2 * a2 - c1 * a1 + d2 - d1) / (2.0 * revenue)
    reservation1 = (c1 * a1 + d1) / revenue
    reservation2 = (c2 * a2 + d2) / revenue
    # At the equal-surplus vertex each side nets slack/2, so participation
    # can only bind when the bargain has no slack at all; the clamp then
    # pins both sides to their reservation shares.
    clamped = slack <= 1e-12 * max(1.0, abs(surplus))
    if beta1 < reservation1:
        beta1 = reservation1
        clamped = True
    elif beta - beta1 < reservation2:
        beta1 = beta - reservation2
        clamped = True
    return NbsSplit(beta1, beta - beta1, clamped)


def disagreement_point(policy: DisagreementPolicy, r: float, c1: float,
                       c2: float) -> tuple[float, float]:
    """Resolve a disagreement policy to concrete utilities (d1, d2).

    The regulated-competitive policy takes each ISP's utility at the
    regulated competitive equilibrium; it raises in the degenerate regime,
    where those utilities are identically zero and bargaining over them is
    meaningless.
    """
    if policy.kind == "zero":
        return 0.0, 0.0
    if policy.kind == "custom":
        return policy.d1, policy.d2
    outcome = solve_regulated_competitive(r, c1, c2)
    if outcome.degenerate:
        raise DegenerateRegimeError(
            f"regulated competitive benchmark is degenerate for r={r!r}, "
            f"c1={c1!r}, c2={c2!r}"
        )
    return outcome.isp_utilities[0], outcome.isp_utilities[1]


def coalition_values(r: float, c1: float, c2: float, branch: Branch) -> dict[frozenset, float]:
    """Coalition worths for the two-ISP Shapley computation.

    Singletons earn what a lone contracted ISP would: v({i}) =
    r*(1 - 2/W(r*e/c_i)) + c_i. The grand coalition keeps the singleton-2
    market but re-prices ISP1's effort at the cost difference:
    v({1,2}) = r*(1 - 2/W(r*e/c2)) + a1*(c2 - c1) + c2, with a1 the
    regulated-cooperative effort of ISP1 on the chosen branch.
    """
    return _coalition_values(r, c1, c2, branch, lambert_w0_ratio(r, c1), lambert_w0_ratio(r, c2))


def _coalition_values(r: float, c1: float, c2: float, branch: Branch,
                      w1: float, w2: float) -> dict[frozenset, float]:
    """``coalition_values`` given w_i = W(r*e/c_i)."""
    a1 = solve_regulated_cooperative(r, c1, c2, branch).efforts.efforts[0]
    return {
        frozenset(): 0.0,
        frozenset({1}): r * (1.0 - 2.0 / w1) + c1,
        frozenset({2}): r * (1.0 - 2.0 / w2) + c2,
        frozenset({1, 2}): r * (1.0 - 2.0 / w2) + a1 * (c2 - c1) + c2,
    }


@dataclass(frozen=True)
class ShapleyReport:
    """Shapley values for the two ISPs.

    ``phi1``/``phi2`` come from the brute-force enumeration over the
    coalition values, kept in ``values``, and are the authoritative
    numbers. The direct closed forms are reported alongside because their
    published derivation disagrees with the enumeration in sign structure;
    the gap is measured, not resolved.
    """

    phi1: float
    phi2: float
    closed_phi1: float
    closed_phi2: float
    matches_brute: bool
    discrepancy: float
    values: dict[frozenset, float]


def shapley_closed(r: float, c1: float, c2: float, branch: Branch) -> ShapleyReport:
    """Evaluate both Shapley routes for the chosen branch and compare them.

    Raises DegenerateRegimeError unless r > max(c1, c2), since the
    coalition values need every singleton market to be non-degenerate.
    """
    if r <= max(c1, c2):
        raise DegenerateRegimeError(
            f"Shapley values need r > max(c1, c2); got r={r!r}, costs=({c1!r}, {c2!r})"
        )
    w1 = lambert_w0_ratio(r, c1)
    w2 = lambert_w0_ratio(r, c2)
    values = _coalition_values(r, c1, c2, branch, w1, w2)
    phi1, phi2 = shapley_brute(lambda s: values[frozenset(s)])
    if branch is Branch.ISP1:
        closed1 = r / 2.0 * (1.0 - 4.0 / w1 - 2.0 / w2) + c1
        closed2 = r / 2.0 * (1.0 - 2.0 / w2) + c2
    else:
        closed1 = r / 2.0 * (1.0 - 2.0 / w1) + c1
        closed2 = r / 2.0 * (1.0 - 4.0 / w2 - 2.0 / w1) + c2
    discrepancy = max(abs(closed1 - phi1), abs(closed2 - phi2))
    return ShapleyReport(
        phi1=phi1,
        phi2=phi2,
        closed_phi1=closed1,
        closed_phi2=closed2,
        matches_brute=discrepancy <= 1e-9 * max(1.0, abs(phi1), abs(phi2)),
        discrepancy=discrepancy,
        values=values,
    )
