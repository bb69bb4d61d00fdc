import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revshare.lambertw import DEFAULT_W_CONFIG, WConfig, _bisect, lambert_w0, log_x_over_w

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


def test_config_validation():
    with pytest.raises(ValueError):
        WConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        WConfig(max_iterations=0)


def test_tight_tolerance_still_converges():
    config = WConfig(rel_tolerance=1e-15, max_iterations=200)
    x = 12345.678
    w = lambert_w0(x, config)
    assert abs(w * math.exp(w) - x) <= 1e-15 * x


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


def test_bisection_fallback_reaches_largest_floats():
    for x in (1e20, 6.53e57, 2.718281828459045e300, 1.7e308):
        with mpmath.workdps(50):
            ref = mpmath.lambertw(x)
            assert abs((_bisect(x, DEFAULT_W_CONFIG) - ref) / ref) <= 1e-13
