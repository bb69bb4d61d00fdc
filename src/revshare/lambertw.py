"""Principal-branch Lambert W function.

Every closed-form equilibrium in this package is parameterized by W0, the
inverse of w -> w*exp(w) on [-1/e, inf). Only the real principal branch is
provided; the secondary branch and complex arguments are out of scope.
"""
from __future__ import annotations

import math

__all__ = ["lambert_w0", "lambert_w0_ratio", "log_x_over_w", "BRANCH_POINT"]

# Branch point of the principal branch: W0 is real for x >= -1/e.
BRANCH_POINT = -math.exp(-1.0)

_REL_TOLERANCE = 1e-14
_MAX_ITERATIONS = 100


def _initial_guess(x: float) -> float:
    if x > math.e:
        # Asymptotic expansion, accurate for large arguments.
        lx = math.log(x)
        return lx - math.log(lx)
    if x < -0.25:
        # Series about the branch point -1/e (Corless et al. 1996, eq. 4.22).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        return -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    return x


def _halley(x: float, w: float) -> float | None:
    """Halley iteration for w*exp(w) = x; None if it fails to settle."""
    tol = _REL_TOLERANCE * max(1.0, abs(x))
    w_prev = math.nan
    for _ in range(_MAX_ITERATIONS):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        w1 = w + 1.0
        if w1 == 0.0:
            w += 1e-6
            continue
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        if denom == 0.0 or not math.isfinite(denom):
            return None
        w_next = w - f / denom
        if w_next == w or w_next == w_prev:
            # a fixed point or a 2-cycle: every later iteration repeats one
            return None
        w_prev, w = w, w_next
        if not math.isfinite(w):
            return None
    ew = math.exp(w)
    if abs(w * ew - x) <= tol:
        return w
    return None


def _bisect_log(lx: float) -> float:
    """Bisect w + log(w) = lx, the form Fritsch, Shafer & Crowley iterate on
    ("Solution of the transcendental equation w*exp(w) = x", CACM 16(2),
    1973), and stop on a relative step of 1e-14. For lx > 0 the root lies
    between 1 and lx."""
    lo, hi = min(1.0, lx), max(1.0, lx)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + math.log(mid) <= lx:
            lo = mid
        else:
            hi = mid
        w = 0.5 * (lo + hi)
        if hi - lo <= _REL_TOLERANCE * lo:
            return w
    raise ArithmeticError(f"lambert_w0 failed to converge for log(x)={lx!r}")


def _bisect(x: float) -> float:
    """Bracketing fallback.

    Above e it bisects the log form (``_bisect_log``). That form stays well
    conditioned where the computed w*exp(w), whose relative error is about
    w machine epsilons, makes Halley's residual test fail. Elsewhere it
    stops on the residual post-condition.
    """
    if x > math.e:
        return _bisect_log(math.log(x))
    if x >= 0.0:
        lo, hi = 0.0, max(1.0, math.log(max(x, 1.0)) + 1.0)
    else:
        lo, hi = -1.0, 0.0
    tol = _REL_TOLERANCE * max(1.0, abs(x))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) - x <= 0.0:
            lo = mid
        else:
            hi = mid
        w = 0.5 * (lo + hi)
        if abs(w * math.exp(w) - x) <= tol:
            return w
    raise ArithmeticError(f"lambert_w0 failed to converge for x={x!r}")


def lambert_w0(x: float) -> float:
    """Evaluate the principal branch W0(x) for real x >= -1/e.

    Uses Halley's method (Corless, Gonnet, Hare, Jeffrey, Knuth, "On the
    Lambert W Function", Adv. Comput. Math. 5, 1996) started from
    log(x) - log(log(x)) for x > e and from x itself on the small-argument
    range. The returned w satisfies |w*exp(w) - x| <= 1e-14 * max(1, |x|)
    wherever rounding allows. Where Halley fails, bisection takes over;
    above e it stops on a relative step of 1e-14 instead. The
    residual test first fails near x = 5e57 (w = 128) and fails more often as
    w grows: for about a quarter of log-uniform arguments in [1e57, 1e80], a
    half in [1e80, 1e160] and three quarters in [1e160, 1e300].

    Raises
    ------
    ValueError
        If x is below the branch point -1/e or not finite.
    ArithmeticError
        If no iteration meets the tolerance (unreachable for finite
        positive arguments).
    """
    if not math.isfinite(x):
        raise ValueError(f"lambert_w0 requires a finite argument, got {x!r}")
    if x < BRANCH_POINT:
        raise ValueError(f"lambert_w0 is real only for x >= -1/e, got {x!r}")
    if x == 0.0:
        return 0.0
    if x <= BRANCH_POINT + 1e-15:
        return -1.0
    w = _halley(x, _initial_guess(x))
    if w is None:
        w = _bisect(x)
    return w


def lambert_w0_ratio(r: float, cost: float) -> float:
    """W0(r*e/cost) for positive r and cost, the W that pins every
    closed-form share. Where r*e/cost overflows to infinity it bisects
    w + log(w) = 1 + log(r) - log(cost) instead; a finite argument, or a
    non-finite r, takes ``lambert_w0``'s path unchanged."""
    x = r * math.e / cost
    if x == math.inf and math.isfinite(r):
        return _bisect_log(1.0 + math.log(r) - math.log(cost))
    return lambert_w0(x)


def log_x_over_w(x: float) -> float:
    """log(x / W0(x)) for x > 0; equals W0(x) identically.

    Exposed as a named helper because the equilibrium demand expressions
    reduce through exactly this identity, so it is testable on its own.
    """
    if x <= 0.0:
        raise ValueError(f"log_x_over_w requires x > 0, got {x!r}")
    return math.log(x / lambert_w0(x))
