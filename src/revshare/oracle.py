"""Brute-force numerical solvers, independent of the closed forms.

Nothing here evaluates Lambert W or any W-based formula. Follower problems
are solved by the sign of the payoff's slope, walked in float steps from
the stationary point or bisected. The bargaining stage searches log total
effort by the Nash product's slope (with the split at each total in closed
form): every grid cell where it turns from rising to falling is bisected
by its sign to 0.05 wide, closed by regula falsi on its value, and
bisected by its sign again to adjacent floats; with non-negative
disagreement that grid is the window's two ends. Leader problems and the
nested cooperative game's share stage are grid searches with one peak rule
and one refine step: golden section at every grid peak, then, for leader
problems, a slope-sign bisection. With non-negative disagreement the share
stage bisects the sign of its grid's slope for its one peak instead of
scoring every share, then places the share by regula falsi on the analytic
slope of the CP's value, golden section only where that slope does not
bracket a root. When these and the closed forms disagree, the numbers
computed here are authoritative.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

from .model import (
    BargainingResult,
    Contract,
    DisagreementPolicy,
    EffortProfile,
    EquilibriumOutcome,
    InfeasibleBargainError,
    NonFiniteOutcomeError,
)

__all__ = [
    "golden_section_max",
    "best_response_effort",
    "leader_optimum",
    "nash_product_maximize",
    "solve_asymmetric_cooperative",
    "shapley_brute",
    "regulated_competitive_utilities_numeric",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Float steps a best response walks from its stationary point before it
# bisects instead.
_WALK_STEPS = 8
# Leader grid on [0, 1] and its golden-section stop.
_LEADER_GRID = 65
_REFINE_TOL = 1e-10
# Points over the 25 units of log total effort where a negative d_i can give
# the Nash product two peaks.
_NASH_GRID = 256
# Coarse outer grid for the nested leader search; each evaluation runs a
# full bargaining solve.
_NESTED_GRID = 41


def __getattr__(name):
    # Exists only for perfbench's tracing hook, which wraps
    # ``oracle.minimize`` unconditionally; nothing here calls it. Resolving
    # it lazily keeps scipy out of ``import revshare``. ROADMAP item 7
    # deletes this once ``spans.install`` tolerates a missing attribute.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-10) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi].

    Shrinks the bracket until its width is below tol and returns the best
    of the final bracket's midpoint and the endpoints lo and hi. Where the
    midpoint scores minus infinity (an infeasible point at the edge of a
    feasible window), the last two interior points stand in for it.
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
    fm = f(mid)
    inner = [(fc, c), (fd, d)] if fm == -math.inf else [(fm, mid)]
    best = max(inner + [(f(x), x) for x in (lo, hi)], key=lambda t: t[0])
    return best[1]


def best_response_effort(beta_i: float, r: float, c_i: float, others_total: float) -> float:
    """ISP i's optimal effort against the others' total, found numerically.

    Maximizes beta_i*r*log(others + a + 1) - c_i*a over a >= 0. The payoff
    is concave and falls beyond a = beta_i*r/c_i, where marginal revenue is
    below c_i, so the sign of its slope places the top at adjacent floats.
    The slope's sign flips once, at the stationary point
    a* = beta_i*r/c_i - others - 1, and ``rising`` is monotone in floating
    point too (each operation in it is), so the adjacent pair where it
    flips is unique: a walk of ``math.nextafter`` steps from a* reaches it
    and returns the midpoint a bisection of [0, beta_i*r/c_i] returns.
    Where a* cancels (others close to beta_i*r/c_i - 1) the walk can need
    millions of steps, so past _WALK_STEPS it bisects.
    """
    if c_i <= 0.0:
        raise ValueError(f"cost must be positive, got {c_i!r}")
    if others_total < 0.0:
        raise ValueError(f"others_total must be non-negative, got {others_total!r}")
    if beta_i <= 0.0 or r <= 0.0:
        return 0.0

    def rising(a: float) -> bool:
        return beta_i * r / (others_total + a + 1.0) > c_i

    if not rising(0.0):
        return 0.0
    hi = beta_i * r / c_i
    a = max(hi - others_total - 1.0, 0.0)
    up = rising(a)
    for _ in range(_WALK_STEPS):
        b = math.nextafter(a, math.inf if up else 0.0)
        if b > hi:
            break
        if rising(b) != up:
            return 0.5 * a + 0.5 * b
        a = b
    return _slope_polish(rising, hi, 0.0, hi)


def _slope_polish(rising: Callable[[float], bool], z: float, lo: float, hi: float) -> float:
    """Bisect the sign of a slope on [lo, hi] down to adjacent floats.

    Value comparisons cannot place a flat top closer than about
    sqrt(machine epsilon); the slope's sign can. ``rising(x)`` says whether
    the objective still increases at x. Returns z unchanged unless the
    slope turns from rising at lo to falling at hi. The midpoint
    0.5*lo + 0.5*hi cannot overflow, and it is 0.5*(lo + hi) to the bit
    wherever that sum is finite and neither end is below 2**-1021 in
    magnitude but not zero (halving such an end can round).
    """
    if rising(lo) and not rising(hi):
        while lo < (z := 0.5 * lo + 0.5 * hi) < hi:
            lo, hi = (z, hi) if rising(z) else (lo, z)
    return z


def _grid_peaks(vals: list[float]) -> list[int]:
    """Indices of a grid's peaks: points no lower than either neighbour and
    higher than one, the ends scored against minus infinity. A flat run
    counts at both of its edges; a NaN neither is a peak nor makes one.
    """
    v = [-math.inf, *vals, -math.inf]
    return [j for j in range(len(vals))
            if v[j] <= v[j + 1] >= v[j + 2] and (v[j] < v[j + 1] or v[j + 2] < v[j + 1])]


def _one_peak(v: Callable[[int], float], n: int) -> int | None:
    """The peak of grid values v(0), ..., v(n - 1) that rise to one peak and
    then fall, by bisecting the sign of their discrete slope: about log2(n)
    pairs of values instead of n values. Minus infinity counts as rising.
    Returns None where two neighbours tie (or one is NaN), or where the
    search ends on minus infinity; the caller then scans every value.
    """
    lo, hi = 0, n - 1
    while lo < hi:
        m = (lo + hi) // 2
        a, b = v(m), v(m + 1)
        if a < b or a == -math.inf:
            lo = m + 1
        elif a > b:
            hi = m
        else:
            return None
    return lo if v(lo) > -math.inf else None


def _refine(f: Callable[[float], float], xs: list[float], j: int, tol: float,
            rising: Callable[[float], bool] | None = None, h: float = 0.0) -> tuple[float, float]:
    """Golden section over grid peak j's two neighbouring cells down to tol,
    then, given ``rising``, the slope-sign polish within h of the result and
    at least h inside the grid's ends (a slope may be sampled h to either
    side). Returns (f(x), x) at the refined point x.
    """
    lo, hi = xs[max(0, j - 1)], xs[min(len(xs) - 1, j + 1)]
    x = golden_section_max(f, lo, hi, tol=tol)
    if rising is not None:
        x = _slope_polish(rising, x, max(x - h, xs[0] + h), min(x + h, xs[-1] - h))
    return f(x), x


def _illinois(f: Callable[[float], float | None], lo: float, hi: float, f_lo: float,
              f_hi: float, tol: float) -> tuple[float, float, float] | None:
    """Root of a slope that falls from f_lo > 0 at lo to f_hi <= 0 at hi.

    Illinois regula falsi: the end kept twice in a row has its value
    halved, so both ends close in. A point outside (lo, hi) bisects
    instead. Stops once the bracket is narrower than tol or a secant step
    over it would move the last point evaluated less than tol. Returns
    that point x and the bracket [lo, hi] it leaves, f(lo) > 0 >= f(hi)
    still; returns None where f(x) is None.
    """
    x, side = lo, 0
    while hi - lo > tol:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * lo + 0.5 * hi
        fx = f(x)
        if fx is None:
            return None
        done = abs(fx) * (hi - lo) <= tol * (f_lo - f_hi)
        if fx > 0.0:
            lo, f_lo = x, fx
            f_hi *= 0.5 if side > 0 else 1.0
            side = 1
        else:
            hi, f_hi = x, fx
            f_lo *= 0.5 if side < 0 else 1.0
            side = -1
        if done:
            break
    return x, lo, hi


def leader_optimum(objective: Callable[[float], float]) -> tuple[float, float]:
    """Maximize a leader objective over the share interval [0, 1].

    Scans a coarse grid and refines every grid peak, polishing by the sign
    of the central-difference slope objective(x + h) - objective(x - h),
    h = 1e-6. The endpoints can count, and a flat run counts at both of its
    edges, where a peak narrower than a cell can hide: the zero-effort
    stretch before the narrow profitable window of a market whose r barely
    exceeds its cost is one. Returns the best of the refined points and the
    grid points. Unimodality is not assumed, but a peak narrower than a
    cell elsewhere can be missed.
    """
    xs = [k / (_LEADER_GRID - 1) for k in range(_LEADER_GRID)]
    vals = [objective(x) for x in xs]
    h = 1e-6

    def rising(x: float) -> bool:
        return objective(x + h) > objective(x - h)

    found = [_refine(objective, xs, j, _REFINE_TOL, rising, h) for j in _grid_peaks(vals)]
    value, x_star = max(found + list(zip(vals, xs)), key=lambda t: t[0])
    return x_star, value


def _bargain(r: float, c1: float, c2: float, beta: float, d1: float, d2: float):
    """Check one bargain's inputs and set up its search over log total effort.

    Returns (z_lo, z_hi, point, slope): the log-T window
    [log(hi) - 25, log(hi)], hi = beta*r/min(c1, c2); ``point(z)``, the
    total, the best split s and both surpluses at T = exp(z); and
    ``slope(z)``, positive where the Nash product still increases there.
    Where both surpluses are positive it is the log product's derivative
    in T; where no bargain clears but both margins A, B are positive, it is
    -dh/dT for h = d1/A + d2/B, whose sign is the product's as h crosses 1
    and which keeps the value continuous there for regula falsi; elsewhere
    it is minus infinity.
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
    if not math.isfinite(z_hi):
        raise NonFiniteOutcomeError(f"beta*r / min(c) overflows: beta*r = {br:.6g}, "
                                    f"min(c) = {min(c1, c2):.6g}")
    z_lo = z_hi - 25.0

    def point(z):
        t = math.exp(z)
        g = br * math.log1p(t)
        a, b = g - c1 * t, g - c2 * t
        # the split by the margins' signs (their product can underflow); with
        # opposite signs the product rises towards the positive one
        s = (0.5 * (1.0 - d2 / b + d1 / a) if a > 0.0 and b > 0.0 or a < 0.0 and b < 0.0
             else float(a > b))
        s = min(s, 1.0) if s > 0.0 else 0.0
        return t, s, s * a - d1, (1.0 - s) * b - d2

    def slope(z):
        # envelope theorem: at the best split the T-slope holds s fixed;
        # point() inlined: this is the search's inner loop, ~27 calls a bargain
        t = math.exp(z)
        g = br * math.log1p(t)
        a, b = g - c1 * t, g - c2 * t
        s = (0.5 * (1.0 - d2 / b + d1 / a) if a > 0.0 and b > 0.0 or a < 0.0 and b < 0.0
             else float(a > b))
        s = min(s, 1.0) if s > 0.0 else 0.0
        f1, f2 = s * a - d1, (1.0 - s) * b - d2
        rate = br / (1.0 + t)
        if f1 > 0.0 and f2 > 0.0:
            return s * (rate - c1) / f1 + (1.0 - s) * (rate - c2) / f2
        if a > 0.0 and b > 0.0:
            # -h' = d1*A'/A^2 + d2*B'/B^2, each term divided by its margin
            # twice, since d1*(rate - c1)/a/a underflows where the margins
            # are below about 1e-154
            return d1 / a * (rate - c1) / a + d2 / b * (rate - c2) / b
        return -math.inf

    return z_lo, z_hi, point, slope


def _slope_root(slope: Callable[[float], float], lo: float, hi: float, f_lo: float,
                f_hi: float) -> float:
    """Where slope turns from f_lo > 0 at lo to f_hi, not positive, at hi,
    to adjacent floats.

    Over the log-T window the slope is far from linear, so its sign is
    bisected first, until the cell is at most 0.05 wide and both ends'
    values are finite. Illinois regula falsi on its value then closes the
    cell to about 1e-13*(1 + |z|), and ``_slope_polish`` bisects the sign
    in what is left, so the result is an adjacent pair's midpoint, as a
    bisection of the whole cell ends on one.
    """
    while ((hi - lo > 0.05 or not -math.inf < f_lo - f_hi < math.inf)
           and lo < (z := 0.5 * lo + 0.5 * hi) < hi):
        f = slope(z)
        lo, f_lo, hi, f_hi = (z, f, hi, f_hi) if f > 0.0 else (lo, f_lo, z, f)
    tol = 1e-13 * (1.0 + abs(lo))
    x, lo, hi = _illinois(slope, lo, hi, f_lo, f_hi, tol)
    # a last secant step shorter than tol leaves x next to the root and the
    # far end where it was: a point tol past x usually closes the bracket
    y = x + tol if x == lo else x - tol
    if lo < y < hi:
        lo, hi = (y, hi) if slope(y) > 0.0 else (lo, y)
    return _slope_polish(lambda z: slope(z) > 0.0, lo, lo, hi)


def nash_product_maximize(r: float, c1: float, c2: float, beta: float,
                          d1: float = 0.0, d2: float = 0.0) -> BargainingResult:
    """Maximize the Nash product of the two ISPs' surpluses over efforts.

    F_i = (beta*a_i/T)*r*log(T+1) - c_i*a_i - d_i with T = a1 + a2. At a
    fixed T, F1 = s*A - d1 and F2 = (1-s)*B - d2 are linear in s = a1/T
    (A = beta*r*log1p(T) - c1*T, B likewise), so the best split is the
    equal-surplus s* = (1 - d2/B + d1/A)/2 clamped to [0, 1]. The search
    runs over log T in [log(hi) - 25, log(hi)], hi = beta*r/min(c1, c2).

    The one search is the product's slope, which ``slope`` extends to
    points where no bargain clears. Its sign is read on a grid, and every
    cell where it turns from rising to falling is closed by ``_slope_root``
    (sign bisection, then regula falsi on its value, then the sign again)
    to adjacent floats. The window's bottom joins those points where the
    slope falls there and its top where it still rises, and so do the
    points where one ISP idles while the other's margin peaks (a negative
    d_i pays ISP i to idle). The best feasible point wins.

    With d1, d2 >= 0 the grid is the window's two ends: h = d1/A + d2/B is
    convex where both margins are positive, so the extended sign turns
    once, from rising to falling, and one cell holds the product's one
    peak. Where the costlier ISP loses money over the whole window
    (max(c)/min(c) above about e^25) but beta*r > max(c1, c2), the window
    starts at log(beta*r/max(c)) - 25. A negative d_i can make the product
    bimodal; then the grid adds _NASH_GRID uniform points inside the window.

    ``converged`` is True and ``multistart_agreement`` 0 by construction.

    Raises
    ------
    InfeasibleBargainError
        If no search finds a point with both surpluses positive.
    """
    z_lo, z_hi, point, slope = _bargain(r, c1, c2, beta, d1, d2)
    br = beta * r
    if d1 >= 0.0 and d2 >= 0.0:
        c_max, t = max(c1, c2), math.exp(z_lo)
        if br * math.log1p(t) <= c_max * t and br > c_max:
            z_lo = math.log(br / c_max) - 25.0
        zs = [z_lo, z_hi]
    else:
        zs = [z_lo, *(z_lo + (i + 0.5) * 25.0 / _NASH_GRID for i in range(_NASH_GRID)), z_hi]
    fs = [slope(z) for z in zs]
    ends = [_slope_root(slope, lo, hi, f_lo, f_hi)
            for lo, hi, f_lo, f_hi in zip(zs, zs[1:], fs, fs[1:]) if f_lo > 0.0 and not f_hi > 0.0]
    ends += [z for z, end in ((z_lo, not fs[0] > 0.0), (z_hi, fs[-1] > 0.0)) if end]
    ends += [max(math.log(br / c - 1.0), z_lo) for d, c in ((d1, c2), (d2, c1))
             if d < 0.0 and br > c]
    found = [p for p in map(point, ends) if p[2] > 0.0 and p[3] > 0.0]
    if not found:
        raise InfeasibleBargainError(
            f"no effort pair beats the disagreement point (d1={d1:.6g}, d2={d2:.6g})"
        )
    # a flat top can tie points to the last bit: the larger total wins
    total, s, f1, f2 = max(found, key=lambda p: (math.log(p[2]) + math.log(p[3]), p[0]))
    return BargainingResult(
        efforts=EffortProfile((s * total, (1.0 - s) * total)),
        share_split=(beta * s, beta * (1.0 - s)),
        surpluses=(f1, f2),
        disagreement=(d1, d2),
        converged=True,
        multistart_agreement=0.0,
    )


def regulated_competitive_utilities_numeric(
        r: float, c1: float, c2: float) -> tuple[float, float]:
    """Per-ISP utilities of the regulated competitive benchmark, derived
    entirely from searches: total share u from the leader scan over the
    searched aggregate response, split proportional to cost. A utility
    that overflows or is undefined raises NonFiniteOutcomeError.
    """
    k = c1 + c2

    def objective(u: float) -> float:
        total = best_response_effort(u, r, k, 0.0)
        return (1.0 - u) * r * math.log(total + 1.0)

    u_star, _ = leader_optimum(objective)
    total = best_response_effort(u_star, r, k, 0.0)
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
    if not all(map(math.isfinite, utilities)):
        raise NonFiniteOutcomeError(f"non-finite regulated competitive utilities "
                                    f"({utilities[0]:.6g}, {utilities[1]:.6g}) "
                                    f"at total effort {total:.6g}")
    return utilities[0], utilities[1]


def _share_slope(r: float, c1: float, c2: float, d1: float, d2: float, beta: float,
                 total: float) -> float | None:
    """dV/dbeta of the CP value V = (1 - beta)*r*log1p(T) along the bargain.

    With an interior split the bargain's total T solves G(T, beta) = 0,
    G = A'/A + B'/B + 2u'/u the T-slope of log(A*B*u^2), u = 1 - d1/A - d2/B,
    A = beta*r*log1p(T) - c1*T and B likewise. So T' = -G_beta/G_T, both
    analytic at the bargain's T, and dV/dbeta = -r*log1p(T) +
    (1 - beta)*r*T'/(1 + T). Returns None where a margin is not positive,
    the split is clamped or the product is not concave in T there.
    """
    g, k = math.log1p(total), 1.0 / (1.0 + total)
    br = beta * r
    u, u_t, u_b, u_tt, u_tb, l_tt, l_tb, ws = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, []
    for c, d in ((c1, d1), (c2, d2)):
        x = br * g - c * total
        if not x > 0.0:
            return None
        # X_T/X, X_beta/X, X_TT/X and X_Tbeta/X
        p, q, p_t, p_b = (br * k - c) / x, r * g / x, -br * k * k / x, r * k / x
        w = d / x
        ws.append(w)
        u, u_t, u_b = u - w, u_t + w * p, u_b + w * q
        u_tt, u_tb = u_tt + w * (p_t - 2.0 * p * p), u_tb + w * (p_b - 2.0 * p * q)
        l_tt, l_tb = l_tt + p_t - p * p, l_tb + p_b - p * q
    if not (0.0 < 0.5 * (1.0 - ws[1] + ws[0]) < 1.0 and u > 0.0):
        return None
    g_t = l_tt + 2.0 * (u_tt / u - (u_t / u) ** 2)
    g_b = l_tb + 2.0 * (u_tb / u - u_t * u_b / u / u)
    return -r * g - (1.0 - beta) * r * g_b / g_t * k if g_t < 0.0 else None


def solve_asymmetric_cooperative(
        r: float, c1: float, c2: float,
        disagreement: DisagreementPolicy = DisagreementPolicy.regulated_competitive(),
        beta: float | None = None) -> tuple[EquilibriumOutcome, BargainingResult]:
    """Nested numerical solve of the cooperative market with bargained efforts.

    Outer stage: the CP's share beta is scanned on a coarse grid and every
    local grid maximum is refined, scoring each beta by
    (1-beta)*r*log(T+1) where T comes from the inner bargain,
    ``nash_product_maximize``, run once per share and kept; the best
    refined or grid share wins, and its kept bargain is the result.
    Infeasible bargains score minus infinity. Where the grid's lowest share
    wins, the share is halved while the CP value still rises and that peak
    is refined. Pass ``beta`` to skip the outer stage.

    With d1, d2 >= 0 the grid's values rise to one peak and then fall
    (infeasible shares lie below the feasible ones: a larger share raises
    both margins), so ``_one_peak`` finds that peak by bisecting the sign
    of the grid's slope, about 9 shares of the 41, and only it is refined;
    a tie between neighbours, or a search that ends on an infeasible
    share, scores the whole grid instead. So does a negative d_i, which
    can give the grid two peaks, and a top share whose beta*r/min(c)
    overflows, so that the scan raises as it always has.

    A peak is refined by golden section over its two cells to 1e-6, which
    places a value flat at its top only to about 1e-7. With d1, d2 >= 0 an
    interior grid peak is refined by its slope instead: ``_share_slope``
    gives dV/dbeta from each kept bargain with no further bargain, and
    Illinois regula falsi finds its root to about 1e-12 in the cell that
    rises towards the peak, about 5 bargains against golden section's 26.
    Golden section stays where that slope is undefined at an end of the
    cell (a clamped split, a margin not positive, an infeasible share) or
    does not change sign over it (the best share where bargains stop
    clearing), at the grid's end shares and for a negative d_i.

    Returns the materialized outcome (shares implied by effort proportions)
    together with the bargaining result at the chosen share. The outcome's
    ``foc_residual`` is the analytic gradient of log F1 + log F2 at the
    returned efforts, times total effort; at an idle ISP only a rising
    product counts. A bargain that no effort pair makes feasible raises
    InfeasibleBargainError.
    """
    d1, d2 = (disagreement.d1, disagreement.d2) if disagreement.kind == "custom" else (0.0, 0.0)
    if disagreement.kind == "regulated-competitive":
        d1, d2 = regulated_competitive_utilities_numeric(r, c1, c2)

    # with a negative d_i the share grid can have two peaks
    unimodal = d1 >= 0.0 and d2 >= 0.0

    # golden section re-scores its bracket ends and its result, and the slope
    # search reads the bargains the peak search kept
    @functools.cache
    def bargain(b: float) -> BargainingResult | None:
        try:
            return nash_product_maximize(r, c1, c2, b, d1, d2)
        except InfeasibleBargainError:
            return None

    def kept(b: float) -> BargainingResult | None:
        return bargain(b) if 1e-6 < b < 1.0 - 1e-12 else None

    def cp_value(b: float) -> float:
        result = kept(b)
        if result is None:
            return -math.inf
        return (1.0 - b) * r * math.log(result.efforts.total + 1.0)

    def cp_slope(b: float) -> float | None:
        result = kept(b)
        return None if result is None else _share_slope(r, c1, c2, d1, d2, b,
                                                        result.efforts.total)

    def refine(j: int) -> tuple[float, float]:
        # the root of the CP value's slope in the cell rising towards peak j
        placed = None
        if unimodal and 0 < j < len(grid) - 1 and (m := cp_slope(grid[j])) is not None:
            lo, hi = (grid[j], grid[j + 1]) if m > 0.0 else (grid[j - 1], grid[j])
            f_lo, f_hi = (m, cp_slope(hi)) if m > 0.0 else (cp_slope(lo), m)
            if f_lo is not None and f_hi is not None and f_lo > 0.0 >= f_hi:
                placed = _illinois(cp_slope, lo, hi, f_lo, f_hi, 1e-12)
        if placed is None:
            return _refine(cp_value, grid, j, 1e-6)
        return cp_value(placed[0]), placed[0]

    if beta is None:
        grid = [(k + 1) / (_NESTED_GRID + 1) for k in range(_NESTED_GRID)]
        # a share whose beta*r/min(c) overflows raises: the full scan meets
        # the first such share, as it always has
        j = (_one_peak(lambda k: cp_value(grid[k]), len(grid))
             if unimodal and grid[-1] * r / min(c1, c2) < math.inf else None)
        if j is None:
            vals = [cp_value(b) for b in grid]
            if max(vals) == -math.inf:
                raise InfeasibleBargainError(
                    "no share in (0, 1) admits a feasible bargain for this disagreement point"
                )
            peaks, scored = _grid_peaks(vals), list(zip(vals, grid))
        else:
            peaks, scored = [j], [(cp_value(grid[j]), grid[j])]
        found = [refine(j) for j in peaks]
        # a refined share wins a tie with a grid share
        beta_star = max(found + scored, key=lambda t: t[0])[1]
        if beta_star == grid[0]:
            # the best share falls like 1/W(r*e/c), below the grid at large
            # r: halve the share while the CP value still rises, then refine
            b = beta_star
            while cp_value(b / 2.0) > cp_value(b):
                b /= 2.0
            beta_star = max(_refine(cp_value, [b / 2.0, b, 2.0 * b], 1, 1e-6), (cp_value(b), b),
                            key=lambda t: t[0])[1]
        result = bargain(beta_star)
    else:
        beta_star = beta
        result = nash_product_maximize(r, c1, c2, beta_star, d1, d2)
    # revenue per unit of effort and its T-derivative
    (a1, a2), (f1, f2) = result.efforts.efforts, result.surpluses
    total = a1 + a2
    rate = beta_star * r * math.log1p(total) / total
    slope = beta_star * r * (total / (1.0 + total) - math.log1p(total)) / total / total
    grads = ((rate + a1 * slope - c1) / f1 + a2 * slope / f2,
             a1 * slope / f1 + (rate + a2 * slope - c2) / f2)
    residual = total * max(abs(g) if a > 0.0 else max(g, 0.0)
                           for a, g in zip((a1, a2), grads))
    outcome = EquilibriumOutcome(
        contract=Contract(shares=result.share_split, joint_share=beta_star),
        efforts=result.efforts, r=r, costs=(c1, c2), foc_residual=residual, degenerate=False)
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
