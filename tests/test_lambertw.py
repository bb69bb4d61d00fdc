import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revshare.lambertw import (
    _MAX_ITERATIONS,
    _REL_TOLERANCE,
    _bisect,
    _halley,
    _initial_guess,
    lambert_w0,
    lambert_w0_ratio,
    log_x_over_w,
)

from conftest import bisection_w

E = math.e

# Frozen via bisection on w*exp(w) = x over [2, 4] to 1e-12.
W_20E = 2.9230907433218


def test_w_at_zero_is_zero():
    assert lambert_w0(0.0) == 0.0


def test_w_at_e_is_one():
    assert lambert_w0(E) == pytest.approx(1.0, abs=1e-14)


def test_round_trip_identity_at_two():
    # W(x * e^x) = x at x = 2
    assert lambert_w0(2.0 * E**2) == pytest.approx(2.0, abs=1e-13)


def test_w_at_20e_matches_bisection_oracle():
    assert lambert_w0(20.0 * E) == pytest.approx(W_20E, abs=1e-12)
    assert lambert_w0(54.3656) == pytest.approx(bisection_w(54.3656), rel=1e-13)


def test_log_x_over_w_examples():
    assert log_x_over_w(E) == pytest.approx(1.0, abs=1e-14)
    assert log_x_over_w(2.0 * E**2) == pytest.approx(2.0, rel=1e-13)
    assert log_x_over_w(20.0 * E) == pytest.approx(W_20E, abs=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        lambert_w0(-1.0)
    with pytest.raises(ValueError):
        lambert_w0(float("nan"))
    with pytest.raises(ValueError):
        log_x_over_w(0.0)
    with pytest.raises(ValueError):
        log_x_over_w(-3.0)


def test_branch_point():
    assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)


def test_round_trip_random_sample():
    rng = np.random.default_rng(7)
    xs = np.exp(rng.uniform(1.0, math.log(1e9), size=2000))
    for x in xs:
        x = float(x)
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) / x < 1e-12


def test_identity_random_sample():
    rng = np.random.default_rng(8)
    xs = np.exp(rng.uniform(1.0, math.log(1e9), size=500))
    for x in xs:
        x = float(x)
        assert abs(log_x_over_w(x) - lambert_w0(x)) < 1e-12 * lambert_w0(x)


def test_monotonicity():
    xs = np.exp(np.linspace(math.log(1e-2), math.log(1e9), 500))
    ws = [lambert_w0(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(ws, ws[1:]))


def test_x_over_w_strictly_increasing():
    xs = np.exp(np.linspace(1.0, math.log(1e9), 500))
    g = [float(x) / lambert_w0(float(x)) for x in xs]
    assert all(b > a for a, b in zip(g, g[1:]))


def test_w_minus_one_sq_over_w_shape():
    # (W-1)^2/W falls on (0, e) and rises beyond e, which is what makes a
    # smaller effective cost raise the leader's payoff.
    def h(x):
        w = lambert_w0(x)
        return (w - 1.0) ** 2 / w

    below = np.linspace(0.05, E - 1e-9, 200)
    vals = [h(float(x)) for x in below]
    assert all(b < a for a, b in zip(vals, vals[1:]))

    above = np.exp(np.linspace(1.0 + 1e-9, math.log(1e9), 200))
    vals = [h(float(x)) for x in above]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_small_positive_arguments_against_oracle():
    for x in (1e-6, 0.05, 0.5, 1.0, 2.0, E):
        assert lambert_w0(x) == pytest.approx(bisection_w(x), abs=1e-12)


def test_negative_domain_against_oracle():
    # between the branch point and zero; unused by the market formulas but
    # inside the documented domain
    for x in (-math.exp(-1.0) + 1e-6, -0.3, -0.1, -0.01):
        w = lambert_w0(x)
        assert w == pytest.approx(bisection_w(x), abs=1e-10)
        assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(x=st.one_of(st.floats(-math.exp(-1.0), E),
                   # distances of 1e-17 to 1 above the branch point
                   st.floats(math.log(1e-17), 0.0).map(lambda t: -math.exp(-1.0) + math.exp(t))))
@example(x=-math.exp(-1.0))
@example(x=0.0)
@example(x=E)
def test_matches_mpmath_from_the_branch_point_to_e(x):
    # The residual promise |w*exp(w) - x| <= 1e-14 * max(1, |x|), mapped
    # through the slope exp(w)*(1 + w) of w*exp(w): the tolerance grows
    # like 1/sqrt(x + 1/e) towards the branch point, where W turns vertical.
    # The float nearest -1/e lies just below it, where W is -1.
    with mpmath.workdps(50):
        ref = mpmath.lambertw(max(mpmath.mpf(x), -1 / mpmath.e)).real
        slope = mpmath.exp(ref) * (1 + ref)
        w = lambert_w0(x)
        if slope == 0:
            assert w == -1.0
        else:
            tol = 2 * _REL_TOLERANCE * max(1.0, abs(x)) / slope + 1e-16
            assert abs(w - ref) <= tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.one_of(st.floats(E, 1.7e308),
                   st.floats(1.0, math.log(1.7e308)).map(math.exp)))
def test_matches_mpmath_up_to_largest_floats(x):
    # From about 5e57 on, Halley's residual test fails more and more often
    # (the rounding of w*exp(w) grows with w) and the log-form bisection
    # takes over.
    with mpmath.workdps(50):
        ref = mpmath.lambertw(x)
        assert abs((lambert_w0(x) - ref) / ref) <= 1e-13


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.one_of(st.floats(-math.exp(-1.0), E),
                   st.floats(math.log(1e-17), 0.0).map(lambda t: -math.exp(-1.0) + math.exp(t))))
@example(x=-math.exp(-1.0) + 2e-15)
@example(x=5e-324)
@example(x=E)
def test_bisection_fallback_meets_the_residual_from_the_branch_point_to_e(x):
    # Halley settles on every argument up to e, so the bracketing fallback
    # runs only where Halley is made to fail; its residual, evaluated at 50
    # digits, is the one lambert_w0 documents
    with mock.patch("revshare.lambertw._halley", return_value=None):
        w = lambert_w0(x)
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(w) * mpmath.exp(w) - x) <= _REL_TOLERANCE * max(1.0, abs(x))


def test_halley_nudges_off_w_equal_minus_one():
    # w = -1 zeroes Halley's denominator; a 1e-6 step moves it off
    w = _halley(-0.3, -1.0)
    assert abs(w * math.exp(w) + 0.3) <= _REL_TOLERANCE


def test_halley_tests_the_residual_after_its_last_iteration(monkeypatch):
    monkeypatch.setattr("revshare.lambertw._MAX_ITERATIONS", 0)
    assert _halley(E, 1.0) == 1.0
    assert _halley(E, 0.5) is None


def test_bisection_fallback_reaches_largest_floats():
    for x in (1e20, 6.53e57, 2.718281828459045e300, 1.7e308):
        with mpmath.workdps(50):
            ref = mpmath.lambertw(x)
            assert abs((_bisect(x) - ref) / ref) <= 1e-13


_DBL_MAX = 1.7976931348623157e308


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(r_cost=st.one_of(
    st.tuples(_log_uniform(1e-300, 1e308), _log_uniform(1e-300, 1e308)),
    # r*e overflows
    st.tuples(_log_uniform(_DBL_MAX / E, _DBL_MAX), _log_uniform(1e-300, _DBL_MAX)),
    # e/cost overflows
    st.tuples(_log_uniform(1e-300, 1e308), _log_uniform(5e-324, 1e-300))))
@example(r_cost=(1e308, 5e307))
@example(r_cost=(1.0, 1e-308))
@example(r_cost=(_DBL_MAX, _DBL_MAX))
@example(r_cost=(_DBL_MAX, 5e-324))
def test_ratio_matches_mpmath_where_the_argument_overflows(r_cost):
    r, cost = r_cost
    w = lambert_w0_ratio(r, cost)
    if r * E / cost < math.inf:
        assert w == lambert_w0(r * E / cost)
    with mpmath.workdps(50):
        ref = mpmath.lambertw(mpmath.mpf(r) * mpmath.e / mpmath.mpf(cost)).real
        # below x = 1 lambert_w0 promises an absolute residual
        assert abs(w - ref) <= 1e-13 * max(1.0, ref)


def test_ratio_keeps_the_finite_argument_error():
    with pytest.raises(ValueError, match="finite argument"):
        lambert_w0_ratio(math.inf, 1.0)


def _halley_all_iterations(x, w):
    # Halley's loop as it ran before it stopped at a fixed point or a
    # 2-cycle: every iteration, then the residual test once more
    tol = _REL_TOLERANCE * max(1.0, abs(x))
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
        w -= f / denom
        if not math.isfinite(w):
            return None
    ew = math.exp(w)
    if abs(w * ew - x) <= tol:
        return w
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.one_of(st.floats(E, 1.7e308),
                   st.floats(1.0, math.log(1.7e308)).map(math.exp)))
# arguments where Halley's iteration cycles with period 2
@example(x=6.561688537754647e108)
@example(x=1.150059765235391e289)
@example(x=8.407025733184817e173)
def test_halley_fixed_point_stop_changes_no_result(x):
    w0 = _initial_guess(x)
    assert _halley(x, w0) == _halley_all_iterations(x, w0)
