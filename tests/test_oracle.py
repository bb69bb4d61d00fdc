import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revshare import oracle
from revshare.closed_form import (
    solve_asymmetric_competitive,
    solve_regulated_competitive,
    solve_symmetric_cooperative,
)
from revshare.model import (
    DisagreementPolicy,
    InfeasibleBargainError,
    NonFiniteOutcomeError,
)
from revshare.oracle import (
    best_response_effort,
    leader_optimum,
    nash_product_maximize,
    regulated_competitive_utilities_numeric,
    shapley_brute,
    solve_asymmetric_cooperative,
)
from revshare.verify import _leader_objective

from conftest import bisection_w

E = math.e


class TestBestResponseEffort:
    def test_zero_share_means_zero_effort(self):
        assert best_response_effort(0.0, 10.0, 0.5, 0.0) == 0.0

    def test_interior_response(self):
        # beta*r/c - 1 = 0.3421*10/0.5 - 1 = 5.842
        got = best_response_effort(0.3421, 10.0, 0.5, 0.0)
        assert got == pytest.approx(5.842, abs=1e-8)

    def test_corner_when_others_cover_the_market(self):
        assert best_response_effort(0.3421, 10.0, 0.5, 6.0) == 0.0
        assert best_response_effort(0.3421, 10.0, 0.5, 5.842) == pytest.approx(0.0, abs=1e-8)

    def test_efforts_beyond_the_old_bisection_stop_end(self):
        # float spacing near 1e12 is 1.2e-4, so the search must stop on
        # adjacent floats rather than on a fixed bracket width
        assert best_response_effort(1.0, 1e12, 1.0, 0.0) == 1e12 - 1.0
        assert best_response_effort(0.5, 1e300, 2.0, 3.0) == pytest.approx(2.5e299, rel=1e-15)

    def test_matches_stationary_form_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            beta = float(rng.uniform(0.01, 1.0))
            r = float(rng.uniform(0.5, 40.0))
            c = float(rng.uniform(0.05, 3.0))
            others = float(rng.uniform(0.0, 8.0))
            expected = max(0.0, beta * r / c - 1.0 - others)
            got = best_response_effort(beta, r, c, others)
            assert got == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("beta,r,c,others", [
        # a* = 5 - others - 1 cancels to about 1e-12 with an error near
        # ulp(5), some 1e12 float steps at that size: past the step cap
        (0.5, 10.0, 1.0, 4.0 - 1e-12),
    ])
    def test_bisects_where_the_walk_stops(self, beta, r, c, others):
        assert best_response_effort(beta, r, c, others) == _bisected_response(beta, r, c, others)

    @pytest.mark.parametrize("beta,r,c,others", [
        # above half the largest float a midpoint 0.5*(lo + hi) overflows,
        # and the walk and the bisection returned inf
        (1.0, 1.5e308, 1.0, 0.7e308),
        (1.0, 1.4e308, 1.0, 0.0),
    ])
    def test_efforts_near_the_largest_float_are_finite(self, beta, r, c, others):
        stationary = beta * r / c - others - 1.0
        got = best_response_effort(beta, r, c, others)
        assert abs(got - stationary) <= 4 * math.ulp(stationary)


def _bisected_response(beta_i, r, c_i, others_total):
    """Reference best response: the slope's sign bisected on
    [0, beta_i*r/c_i] down to adjacent floats."""
    def rising(a):
        return beta_i * r / (others_total + a + 1.0) > c_i

    if not rising(0.0):
        return 0.0
    lo, hi = 0.0, beta_i * r / c_i
    z = hi
    if rising(lo) and not rising(hi):
        while lo < (z := 0.5 * (lo + hi)) < hi:
            lo, hi = (z, hi) if rising(z) else (lo, z)
    return z


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       log_r=st.floats(-20.0, 60.0), log_c=st.floats(-20.0, 20.0),
       others=st.one_of(st.just(0.0), st.floats(0.0, math.exp(60.0)),
                        st.tuples(st.floats(-1.0, 1.0), st.integers(-60, -1))))
def test_best_response_is_the_bisections_to_the_bit(beta, log_r, log_c, others):
    # The walk from the stationary point returns the bisection's midpoint
    # only because ``rising`` is monotone in floating point, so the pair of
    # adjacent floats where it flips is unique. The tuples draw others
    # within a relative 2**-1..2**-60 of beta*r/c - 1, where a* cancels and
    # walks run past their step cap
    r, c = math.exp(log_r), math.exp(log_c)
    if isinstance(others, tuple):
        u, k = others
        others = max(beta * r / c - 1.0, 0.0) * (1.0 + u * 2.0 ** k)
    assert repr(best_response_effort(beta, r, c, others)) == repr(
        _bisected_response(beta, r, c, others))


class TestGridPeaks:
    def test_flat_run_counts_at_both_edges(self):
        assert oracle._grid_peaks([0.0, 2.0, 2.0, 2.0, 1.0]) == [1, 3]
        assert oracle._grid_peaks([2.0, 2.0, 2.0]) == [0, 2]

    def test_ends_count(self):
        assert oracle._grid_peaks([3.0, 1.0, 2.0]) == [0, 2]
        assert oracle._grid_peaks([5.0]) == [0]

    def test_all_minus_infinity_has_no_peak(self):
        assert oracle._grid_peaks([-math.inf] * 5) == []

    def test_nan_neighbour_never_makes_a_peak(self):
        nan = math.nan
        assert oracle._grid_peaks([0.0, 1.0, nan]) == []
        assert oracle._grid_peaks([nan, 1.0, 0.0]) == []
        assert oracle._grid_peaks([nan, nan]) == []
        assert oracle._grid_peaks([0.0, 1.0, nan, 2.0, 3.0, 1.0]) == [4]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vals=st.lists(st.sampled_from([-math.inf, 0.0, 1.0]), min_size=1, max_size=12))
def test_grid_peaks_extend_left_edge_peaks_by_right_edges_of_flat_runs(vals):
    # drawn from three values, so that ties occur. The bargain and outer
    # scans once counted a flat run at its left edge only; the leader search
    # wrote the same rule as a max/min comparison, equal to it without NaN
    v = [-math.inf, *vals, -math.inf]
    peaks = oracle._grid_peaks(vals)
    assert peaks == [j for j in range(len(vals))
                     if max(v[j], v[j + 2]) <= v[j + 1] > min(v[j], v[j + 2])]
    left_edge = {j for j in range(len(vals)) if v[j] < v[j + 1] >= v[j + 2]}
    assert left_edge <= set(peaks)
    for j in set(peaks) - left_edge:
        assert v[j] == v[j + 1] > v[j + 2]


class TestOnePeak:
    def test_finds_the_peak_of_every_rise_and_fall(self):
        for n in range(1, 42):
            for j in range(n):
                vals = [float(min(k - j, j - k)) for k in range(n)]
                assert oracle._one_peak(vals.__getitem__, n) == j

    def test_ties_nan_and_no_finite_value_leave_it_to_the_full_scan(self):
        inf, nan = math.inf, math.nan
        for vals in ([0.0, 1.0, 1.0, 0.0], [inf] * 5, [0.0, 1.0, nan, 0.0, -1.0], [-inf] * 5):
            assert oracle._one_peak(vals.__getitem__, len(vals)) is None

    def test_reads_about_two_values_per_halving(self):
        read = set()

        def v(k):
            read.add(k)
            return -abs(k - 30.0)

        assert oracle._one_peak(v, 41) == 30
        assert len(read) <= 2 * math.ceil(math.log2(41)) + 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vals=st.lists(st.sampled_from([-math.inf, 0.0, 1.0, 2.0]), min_size=1, max_size=12))
def test_one_peak_is_a_strict_grid_peak_or_none(vals):
    # on any grid, unimodal or not, a found index is a peak by the full
    # scan's rule, higher than both neighbours; on a grid with one peak, no
    # tie and minus infinity only as a prefix, it is that peak
    j = oracle._one_peak(vals.__getitem__, len(vals))
    v = [-math.inf, *vals, -math.inf]
    peaks = oracle._grid_peaks(vals)
    if j is not None:
        assert j in peaks and v[j] < v[j + 1] > v[j + 2]
    finite = [x for x in vals if x > -math.inf]
    if (len(peaks) == 1 and vals[len(vals) - len(finite):] == finite
            and all(a != b for a, b in zip(finite, finite[1:]))):
        assert j == peaks[0]


class TestLeaderOptimum:
    def test_matches_w_closed_form(self):
        def objective(b):
            return (1.0 - b) * 10.0 * math.log(max(20.0 * b, 1e-300))

        beta, value = leader_optimum(objective)
        assert beta == pytest.approx(0.34210364569921, abs=1e-7)
        assert value == pytest.approx(objective(0.34210364569921), rel=1e-10)

    def test_constant_objective(self):
        beta, value = leader_optimum(lambda b: 3.5)
        assert value == 3.5
        assert 0.0 <= beta <= 1.0

    def test_maximum_at_right_endpoint(self):
        beta, value = leader_optimum(lambda b: b)
        assert beta == pytest.approx(1.0, abs=1e-9)
        assert value == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_ratio=st.floats(math.log(1.05), math.log(1e6)), cost=st.floats(0.05, 5.0),
       multiplier=st.one_of(st.integers(1, 5).map(float), st.floats(1.0, 5.0)))
def test_leader_share_matches_mpmath_lambert_w(log_ratio, cost, multiplier):
    # the verify battery's reduced objective (1 - m*x)*r*log(m*x*r/cost) peaks
    # at x = 1/(m*W(r*e/cost)); near r = cost its profitable window is
    # narrower than a grid cell
    r = cost * math.exp(log_ratio)
    share, value = leader_optimum(_leader_objective(r, cost, multiplier))
    with mpmath.workdps(50):
        exact = float(1 / (multiplier * mpmath.lambertw(mpmath.mpf(r) * mpmath.e / cost)))
    assert abs(share - exact) <= 1e-10
    assert value == _leader_objective(r, cost, multiplier)(share)


def _dense_leader_scan(objective):
    # the search leader_optimum ran before its coarse grid: 2001 points,
    # then golden section on the best cell only
    n = 2001
    xs = [k / (n - 1) for k in range(n)]
    vals = [objective(x) for x in xs]
    k = max(range(n), key=lambda i: vals[i])
    x_star = oracle.golden_section_max(objective, xs[max(0, k - 1)], xs[min(n - 1, k + 1)],
                                       tol=1e-10)
    if vals[k] > objective(x_star):
        x_star = xs[k]
    return x_star, objective(x_star)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(peaks=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.02, 0.5), st.floats(0.1, 1.0)),
                      min_size=2, max_size=2))
def test_coarse_leader_search_never_loses_to_the_dense_scan(peaks):
    def objective(x):
        return sum(h * math.exp(-0.5 * ((x - mu) / sigma) ** 2) for mu, sigma, h in peaks)

    _, value = leader_optimum(objective)
    assert value >= _dense_leader_scan(objective)[1] - 1e-12


class TestNashProductMaximize:
    def test_symmetric_costs_reproduce_cooperative_split(self):
        coop = solve_symmetric_cooperative(10.0, 0.5, 2)
        result = nash_product_maximize(10.0, 0.5, 0.5, coop.contract.joint_share)
        for a in result.efforts.efforts:
            assert a == pytest.approx(coop.efforts.efforts[0], abs=1e-4)
        assert result.converged
        assert result.multistart_agreement < 1e-6

    def test_asymmetric_interior_point(self):
        # frozen from the multistart probe; with zero disagreement the
        # product factorizes as s*(1-s)*(...), so the efforts come out equal
        result = nash_product_maximize(10.0, 0.5, 1.0, 0.4)
        assert result.efforts.efforts[0] == pytest.approx(1.93725409, abs=1e-5)
        assert result.efforts.efforts[1] == pytest.approx(1.93725409, abs=1e-5)
        assert result.surpluses[0] > 0.0 and result.surpluses[1] > 0.0
        assert result.share_split[0] + result.share_split[1] == pytest.approx(0.4, abs=1e-12)

    def test_zero_disagreement_equalizes_efforts(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            c1 = float(rng.uniform(0.1, 1.0))
            c2 = float(c1 * rng.uniform(1.0, 3.0))
            r = float((c1 + c2) * rng.uniform(2.0, 6.0))
            beta = float(rng.uniform(0.3, 0.7))
            result = nash_product_maximize(r, c1, c2, beta)
            a1, a2 = result.efforts.efforts
            assert a1 == pytest.approx(a2, rel=1e-5)

    def test_dense_grid_cross_check(self):
        r, c1, c2, beta = 10.0, 0.5, 1.0, 0.4
        result = nash_product_maximize(r, c1, c2, beta)
        lo, hi = math.log(1e-3), math.log(beta * r / min(c1, c2))
        n = 100
        zs = np.linspace(lo, hi, n)
        best, best_xy = -np.inf, None
        for z1 in zs:
            x = math.exp(z1)
            for z2 in zs:
                y = math.exp(z2)
                total = x + y
                rev = beta * r * math.log(total + 1.0) / total
                f1 = rev * x - c1 * x
                f2 = rev * y - c2 * y
                if f1 > 0 and f2 > 0 and f1 * f2 > best:
                    best, best_xy = f1 * f2, (x, y)
        cell = (hi - lo) / (n - 1)
        for grid_val, nm_val in zip(best_xy, result.efforts.efforts):
            assert abs(math.log(grid_val) - math.log(nm_val)) <= cell

    def test_stationarity_at_maximizer(self):
        r, c1, c2, beta = 10.0, 0.5, 1.0, 0.4
        result = nash_product_maximize(r, c1, c2, beta)
        a1, a2 = result.efforts.efforts

        def log_product(x, y):
            total = x + y
            rev = beta * r * math.log(total + 1.0) / total
            return math.log(rev * x - c1 * x) + math.log(rev * y - c2 * y)

        h = 1e-6
        g1 = (log_product(a1 + h, a2) - log_product(a1 - h, a2)) / (2 * h)
        g2 = (log_product(a1, a2 + h) - log_product(a1, a2 - h)) / (2 * h)
        assert abs(g1) < 1e-4 and abs(g2) < 1e-4

    def test_overflowing_effort_window_is_a_named_error(self):
        # beta*r/min(c) = 5e309 overflows, which made every merit NaN
        with pytest.raises(NonFiniteOutcomeError,
                           match=r"beta\*r = 5e\+159, min\(c\) = 1e-150"):
            nash_product_maximize(1e160, 1e-150, 1.0, 0.5)

    def test_effort_costs_overflowing_the_whole_window_are_infeasible(self):
        # max(c)*T overflows over the whole window, so no search reaches a
        # peak and no idle point stands in; this raised on an empty max()
        with pytest.raises(InfeasibleBargainError, match="no effort pair beats"):
            nash_product_maximize(5.87e-58, 2.77e205, 1.45e-289, 0.5)

    def test_overflowing_effort_cost_does_not_outscore_the_bargain(self):
        # the costlier ISP's c*T overflows at the window's top, where its
        # surplus 0*(-inf) is NaN; scored by the other surplus instead, that
        # point outranked the feasible peak and the search raised
        # InfeasibleBargainError
        result = nash_product_maximize(1.0660236493585454e+301, 1.6570527865295891e+286,
                                       8.77835809579136e+295, 0.8033386732536274)
        assert result.efforts.total == 180218.49341429508

    def test_unreachable_disagreement_raises(self):
        with pytest.raises(InfeasibleBargainError):
            nash_product_maximize(10.0, 0.5, 1.0, 0.4, d1=50.0, d2=50.0)

    def test_rejects_bad_share(self):
        with pytest.raises(ValueError):
            nash_product_maximize(10.0, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            nash_product_maximize(10.0, 0.5, 1.0, 1.0)

    def test_negative_custom_disagreement_idles_isp1(self):
        # d1 = -5 puts the equal-surplus split below zero, so ISP1 idles and
        # ISP2 alone maximizes 4*log(T+1) - T, at T = 3
        result = nash_product_maximize(10.0, 0.5, 1.0, 0.4, d1=-5.0)
        assert result.converged
        assert result.efforts.efforts[0] == pytest.approx(0.0, abs=1e-6)
        assert result.efforts.efforts[1] == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("d1,d2,total", [
        (0.0, 0.0, 3.874508161775093),
        (-0.5, -0.3, 3.8849712028319505),
    ])
    def test_no_golden_section(self, monkeypatch, d1, d2, total):
        # the sign of the product's slope is the only search, with one grid
        # cell where d1, d2 >= 0 and _NASH_GRID + 1 where a d_i is negative
        monkeypatch.setattr(oracle, "golden_section_max", None)
        result = nash_product_maximize(10.0, 0.5, 1.0, 0.4, d1, d2)
        assert result.converged
        assert result.efforts.total == pytest.approx(total, rel=1e-12)

    def test_two_peak_bargain_takes_the_interior_peak(self):
        # an interior peak (log Nash product -9.26717) and an idle one
        # (-9.27049): some of the 4- and 8-start multistart's starts missed
        # the interior one, so it reported a spread of 2.28 and did not
        # converge, and a nested solve whose final bargain landed here raised
        result = nash_product_maximize(0.20593158619428897, 0.010220638924929382,
                                       0.004965131554388034, 0.13037196103461401,
                                       -0.004125138921902187, 0.0006029278475423766)
        assert result.efforts.efforts == (0.5732458448536412, 2.122866074759802)
        assert result.converged and result.multistart_agreement == 0.0
        assert math.log(result.surpluses[0]) + math.log(result.surpluses[1]) == pytest.approx(
            -9.26717, abs=1e-5)


def _log_nash_product(r, c1, c2, beta, d1, d2, x, y):
    total = x + y
    rev = beta * r * np.log1p(total) / total
    f1 = rev * x - c1 * x - d1
    f2 = rev * y - c2 * y - d2
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((f1 > 0.0) & (f2 > 0.0), np.log(f1) + np.log(f2), -np.inf)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(c1=st.floats(0.05, 5.0), c2=st.floats(0.05, 5.0), margin=st.floats(1.05, 100.0),
       beta=st.floats(0.05, 0.95), policy=st.sampled_from(["zero", "custom", "competitive"]),
       u1=st.floats(-0.2, 0.2), u2=st.floats(-0.2, 0.2))
def test_nash_search_is_stationary_and_beats_a_dense_grid(c1, c2, margin, beta, policy, u1, u2):
    # custom utilities are shares of the revenue scale r, of either sign;
    # competitive ones come from the closed form, not from the oracle
    r = (c1 + c2) * margin
    if policy == "zero":
        d1, d2 = 0.0, 0.0
    elif policy == "custom":
        d1, d2 = u1 * r, u2 * r
    else:
        d1, d2 = solve_regulated_competitive(r, c1, c2).isp_utilities
    try:
        result = nash_product_maximize(r, c1, c2, beta, d1, d2)
    except InfeasibleBargainError:
        return
    assert result.converged
    assert sum(result.share_split) == pytest.approx(beta, abs=1e-12)
    a1, a2 = result.efforts.efforts
    total = a1 + a2

    def log_product(x, y):
        return float(_log_nash_product(r, c1, c2, beta, d1, d2, x, y))

    # gradient in units of the total effort, so that tiny-T markets are not
    # swamped by rounding; at an idle ISP the product may only fall as it
    # starts to work
    h = 1e-6 * total
    at = log_product(a1, a2)
    for dx, dy, a in ((h, 0.0, a1), (0.0, h, a2)):
        up = log_product(a1 + dx, a2 + dy)
        if a == 0.0:
            assert (up - at) / h * total <= 1e-4
        else:
            assert abs(up - log_product(a1 - dx, a2 - dy)) / (2 * h) * total <= 1e-4

    hi = beta * r / min(c1, c2)
    zs = np.exp(np.linspace(math.log(hi) - 25.0, math.log(hi), 100))
    x, y = np.meshgrid(zs, zs)
    assert at >= float(np.max(_log_nash_product(r, c1, c2, beta, d1, d2, x, y))) - 1e-9


def _per_start_nash(r, c1, c2, beta, d1, d2, starts):
    # nash_product_maximize before its starts shared one grid: each start
    # scans its own phase-shifted grid and refines each of its own peaks.
    # Returns whether it converged and the log Nash product it reached.
    br = beta * r
    if br / min(c1, c2) <= 1e-3:
        raise InfeasibleBargainError("share too small for any profitable effort")
    z_hi = math.log(br / min(c1, c2))
    z_lo = z_hi - 25.0
    grid = 64

    def point(z):
        t = math.exp(z)
        a, b = br * math.log1p(t) - c1 * t, br * math.log1p(t) - c2 * t
        s = 0.5 * (1.0 - d2 / b + d1 / a) if a * b > 0.0 else float(a > b)
        s = min(s, 1.0) if s > 0.0 else 0.0
        return t, s, s * a - d1, (1.0 - s) * b - d2

    def merit(z):
        _, _, f1, f2 = point(z)
        return math.log(f1) + math.log(f2) if f1 > 0.0 and f2 > 0.0 else min(f1, f2) - 1e6

    def rising(z):
        t, s, f1, f2 = point(z)
        rate = br / (1.0 + t)
        return f1 > 0.0 and f2 > 0.0 and s * (rate - c1) / f1 + (1.0 - s) * (rate - c2) / f2 > 0.0

    def refine(lo, hi):
        z = oracle.golden_section_max(merit, lo, hi, tol=1e-7)
        z = oracle._slope_polish(rising, z, max(z - 1e-5, z_lo), min(z + 1e-5, z_hi))
        return merit(z), z

    idle = [(merit(z), z) for d, c in ((d1, c2), (d2, c1)) if d < 0.0 and br > c
            for z in (max(math.log(br / c - 1.0), z_lo),)]

    def search(phase):
        zs = [z_lo, *(z_lo + (j + phase) * 25.0 / grid for j in range(grid)), z_hi]
        v = [-math.inf, *map(merit, zs[1:-1]), -math.inf]
        return point(max([refine(zs[j - 1], zs[j + 1]) for j in range(1, grid + 1)
                          if v[j - 1] < v[j] >= v[j + 1]] + idle)[1])

    found = [p for p in map(search, ((k + 0.5) / starts for k in range(starts)))
             if p[2] > 0.0 and p[3] > 0.0]
    if not found:
        raise InfeasibleBargainError("no effort pair beats the disagreement point")
    total, s, f1, f2 = max(found, key=lambda p: math.log(p[2]) + math.log(p[3]))
    a1, a2 = s * total, (1.0 - s) * total
    agreement = max(max(abs(t * u - a1), abs(t * (1.0 - u) - a2)) for t, u, _, _ in found)
    return len(found) == starts and agreement <= 1e-6, math.log(f1) + math.log(f2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(c1=st.floats(0.05, 5.0), c2=st.floats(0.05, 5.0), margin=st.floats(1.05, 100.0),
       beta=st.floats(0.05, 0.95), sign=st.sampled_from([0.0, 1.0, -1.0]),
       u1=st.floats(0.0, 0.2), u2=st.floats(0.0, 0.2), starts=st.sampled_from([4, 8]))
def test_shared_grid_never_loses_to_per_start_search(c1, c2, margin, beta, sign, u1, u2, starts):
    # Efforts are not compared: on a flat product they differ by up to 1e-3
    # relative while the products agree. Where the feasible window is
    # narrower than a start's own cell, the search may find a bargain where
    # the per-start one did not, never the reverse.
    r = (c1 + c2) * margin
    d1, d2 = sign * u1 * r, sign * u2 * r

    def outcome(solve):
        try:
            return solve(), None
        except Exception as exc:  # noqa: BLE001 - the types are compared
            return None, type(exc)

    new, new_error = outcome(lambda: nash_product_maximize(r, c1, c2, beta, d1, d2))
    old, old_error = outcome(lambda: _per_start_nash(r, c1, c2, beta, d1, d2, starts))
    if old is None:
        assert new_error is old_error or (new_error is None and old_error is InfeasibleBargainError)
        return
    assert new_error is None
    _, old_log = old
    new_log = math.log(new.surpluses[0]) + math.log(new.surpluses[1])
    assert new_log >= old_log - 1e-12 * max(1.0, abs(old_log))


def _multistart(r, c1, c2, beta, d1, d2, starts=4):
    # nash_product_maximize's multistart search, which ran for every bargain
    # before d1, d2 >= 0 took one search and a negative d_i one grid: start k
    # owns every starts-th point of a shared grid of 64*starts points, and
    # climbs from each of its own points' peaks, uphill on the shared grid,
    # to a shared-grid peak that is refined once. Returns the total effort
    # and log Nash product of its bargain, or raises InfeasibleBargainError
    z_lo, z_hi, point, slope = oracle._bargain(r, c1, c2, beta, d1, d2)
    br = beta * r

    def rising(z):
        return slope(z) > 0.0

    def merit(z):
        # the log Nash product, or min(F1, F2) - 1e6 where a surplus is not
        # positive (a NaN surplus included)
        _, _, f1, f2 = point(z)
        if f1 > 0.0 and f2 > 0.0:
            return math.log(f1) + math.log(f2)
        return (f2 if f2 < f1 or f2 != f2 else f1) - 1e6

    idle = [(merit(z), z) for d, c in ((d1, c2), (d2, c1)) if d < 0.0 and br > c
            for z in (max(math.log(br / c - 1.0), z_lo),)]
    phases = [(k + 0.5) / starts for k in range(starts)]
    zs = [z_lo, *(z_lo + (j + p) * 25.0 / 64 for j in range(64) for p in phases), z_hi]
    v = [-math.inf, *map(merit, zs[1:-1]), -math.inf]

    def climb(i):
        # to a point with v[i-1] < v[i] >= v[i+1], off the two -inf ends
        while True:
            if v[i + 1] > v[i]:
                i += 1
            elif i > 1 and v[i - 1] >= v[i]:
                i -= 1
            else:
                return i

    reached = [{climb(j * starts + k + 1) for j in oracle._grid_peaks(v[k + 1:-1:starts])}
               for k in range(starts)]
    refined = {i: oracle._refine(merit, zs, i, 1e-7, rising, 1e-5) for i in set().union(*reached)}
    candidates = [[refined[i] for i in r] + idle for r in reached]
    found = [p for p in (point(max(c)[1]) for c in candidates if c) if p[2] > 0.0 and p[3] > 0.0]
    if not found:
        raise InfeasibleBargainError("no effort pair beats the disagreement point")
    t, s, f1, f2 = max(found, key=lambda p: math.log(p[2]) + math.log(p[3]))
    return s * t + (1.0 - s) * t, math.log(f1) + math.log(f2)


def _bargain_or_none(search):
    try:
        return search()
    except InfeasibleBargainError:
        return None


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(log_cost=st.floats(-25.0, 25.0), log_ratio=st.floats(0.0, 25.0),
       first_costlier=st.booleans(), margin=st.floats(1.05, 100.0), beta=st.floats(0.01, 0.99),
       u1=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
       u2=st.one_of(st.just(0.0), st.floats(0.0, 0.05)))
def test_one_search_matches_the_multistart(log_cost, log_ratio, first_costlier, margin, beta,
                                           u1, u2):
    # The one search raises only where the 4-start search raises (1 of
    # 23,000 such draws found a bargain the 4 starts step over, as in
    # the test below). Where both find a bargain, its log Nash product is
    # lower by no more than the rounding of evaluating log(F1) + log(F2)
    c_min, c_max = math.exp(log_cost), math.exp(log_cost + log_ratio)
    c1, c2 = (c_max, c_min) if first_costlier else (c_min, c_max)
    r = (c1 + c2) * margin
    d1, d2 = u1 * r, u2 * r
    old = _bargain_or_none(lambda: _multistart(r, c1, c2, beta, d1, d2))
    new = _bargain_or_none(lambda: nash_product_maximize(r, c1, c2, beta, d1, d2))
    assert new is not None or old is None
    if new is not None and old is not None:
        assert _log_product(new) >= old[1] - _rounding(new, r, c1, c2, beta, d1, d2)


def _log_product(result):
    return math.log(result.surpluses[0]) + math.log(result.surpluses[1])


def _rounding(result, r, c1, c2, beta, d1, d2):
    # each F_i = s*A - d_i sums terms no larger than
    # beta*r*log1p(T) + max(c)*T + |d1| + |d2|, so it is off by about eps
    # times that scale, and log F_i by that over F_i
    (f1, f2), total = result.surpluses, result.efforts.total
    scale = beta * r * math.log1p(total) + max(c1, c2) * total + abs(d1) + abs(d2)
    return 2.0 ** -52 * scale * (1.0 / f1 + 1.0 / f2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_cost=st.floats(-3.0, 3.0), log_ratio=st.sampled_from([8.0, 25.0]),
       spread=st.floats(-1.0, 1.0), beta=st.floats(0.02, 0.98), log_margin=st.floats(0.0, 6.0),
       u1=st.floats(-0.5, 0.1), u2=st.floats(-0.5, 0.1), first_negative=st.booleans())
def test_grid_search_never_loses_to_the_multistart(log_cost, log_ratio, spread, beta, log_margin,
                                                   u1, u2, first_negative):
    # With a negative d_i the search refines every peak of the 4-start
    # search's shared grid, so it raises only where the 4-start search
    # raises, and its log Nash product is no lower than the 4- or 8-start
    # one's, up to rounding. Costs differ by up to e^8 or e^25 and
    # d_i = u_i*beta*r reaches -0.5*beta*r.
    c1 = math.exp(log_cost)
    c2 = c1 * math.exp(spread * log_ratio)
    r = min(c1, c2) / beta * math.exp(log_margin)
    if u1 >= 0.0 and u2 >= 0.0:
        u1, u2 = (-u1, u2) if first_negative else (u1, -u2)
    d1, d2 = u1 * beta * r, u2 * beta * r
    new = _bargain_or_none(lambda: nash_product_maximize(r, c1, c2, beta, d1, d2))
    for starts in (4, 8):
        old = _bargain_or_none(lambda: _multistart(r, c1, c2, beta, d1, d2, starts=starts))
        if starts == 4:
            assert new is not None or old is None
        if new is not None and old is not None:
            assert _log_product(new) >= old[1] - _rounding(new, r, c1, c2, beta, d1, d2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_cost=st.floats(math.log(1e-3), math.log(1e3)), log_ratio=st.floats(0.0, math.log(1e100)),
       first_costlier=st.booleans(), log_margin=st.floats(math.log(1.01), math.log(1e6)),
       beta=st.floats(0.01, 0.99))
def test_zero_disagreement_clears_wherever_the_costlier_isp_can_profit(
        log_cost, log_ratio, first_costlier, log_margin, beta):
    # with d1 = d2 = 0 any beta*r > max(c1, c2) admits a bargain. The log-T
    # window ends at beta*r/min(c); past max(c)/min(c) ~ e^25 its bottom lies
    # above every effort at which the costlier ISP profits, and 17,616 of
    # 20,000 seeded such draws raised InfeasibleBargainError before the
    # search restarted the window at log(beta*r/max(c)) - 25
    c_min, c_max = math.exp(log_cost), math.exp(log_cost + log_ratio)
    c1, c2 = (c_max, c_min) if first_costlier else (c_min, c_max)
    r = c_max * math.exp(log_margin) / beta
    result = nash_product_maximize(r, c1, c2, beta)
    assert result.surpluses[0] > 0.0 and result.surpluses[1] > 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_c1=st.floats(-7.0, 7.0), log_c2=st.floats(-7.0, 7.0), log_margin=st.floats(0.0, 12.0),
       beta=st.floats(0.02, 0.98), u1=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
       u2=st.one_of(st.just(0.0), st.floats(0.0, 0.1)))
def test_slope_sign_turns_once_without_negative_disagreement(log_c1, log_c2, log_margin, beta,
                                                             u1, u2):
    # With d1, d2 >= 0, h = d1/A + d2/B is convex where both margins are
    # positive, so the sign the bargain bisects turns at most once over the
    # log-T window, and only from rising to falling
    c1, c2 = math.exp(log_c1), math.exp(log_c2)
    r = (c1 + c2) * math.exp(log_margin)
    z_lo, z_hi, _, slope = oracle._bargain(r, c1, c2, beta, u1 * r, u2 * r)
    signs = [slope(z_lo + k * (z_hi - z_lo) / 2000) > 0.0 for k in range(2001)]
    assert signs == sorted(signs, reverse=True)


def _mp_log_nash_product(r, c1, c2, beta, d1, d2, total):
    # The bargain's maximum log Nash product at 40 digits: with d1, d2 >= 0
    # a feasible split is interior, so it is log(A*B*(1 - h)^2/4) at the
    # root of its T-slope A'/A + B'/B - 2h'/(1 - h), found from the solver's T
    with mpmath.workdps(40):
        r, c1, c2, beta, d1, d2 = map(mpmath.mpf, (r, c1, c2, beta, d1, d2))

        def log_product(t):
            g = beta * r * mpmath.log1p(t)
            a, b = g - c1 * t, g - c2 * t
            return mpmath.log(a * b * (1 - d1 / a - d2 / b) ** 2 / 4)

        t = mpmath.findroot(lambda x: mpmath.diff(log_product, x), mpmath.mpf(total))
        return float(log_product(t))


@pytest.mark.parametrize("seed", range(5))
def test_bargain_is_the_mpmath_maximum(seed):
    # beta*r above max(c1, c2), where a zero-disagreement bargain clears
    rng = np.random.default_rng(seed)
    c1, c2 = np.exp(rng.uniform(-3.0, 3.0, 2))
    beta = rng.uniform(0.2, 0.8)
    r = max(c1, c2) * math.exp(rng.uniform(0.5, 5.0)) / beta
    d1, d2 = (0.0, 0.0) if seed == 0 else rng.uniform(0.0, 0.05, 2) * beta * r
    result = nash_product_maximize(r, c1, c2, beta, d1, d2)
    want = _mp_log_nash_product(r, c1, c2, beta, d1, d2, result.efforts.total)
    assert _log_product(result) == pytest.approx(want, rel=1e-12)


def _bisected_bargain(r, c1, c2, beta, d1, d2):
    # nash_product_maximize before regula falsi: every grid cell where the
    # slope's sign turns is bisected to adjacent floats, for d1, d2 >= 0 the
    # whole log-T window. Returns the total effort and log Nash product of
    # its bargain, or raises InfeasibleBargainError
    z_lo, z_hi, point, slope = oracle._bargain(r, c1, c2, beta, d1, d2)
    br = beta * r

    def rising(z):
        return slope(z) > 0.0

    if d1 >= 0.0 and d2 >= 0.0:
        c_max, t = max(c1, c2), math.exp(z_lo)
        if br * math.log1p(t) <= c_max * t and br > c_max:
            z_lo = math.log(br / c_max) - 25.0
        zs = [z_lo, z_hi]
    else:
        zs = [z_lo, *(z_lo + (i + 0.5) * 25.0 / 256 for i in range(256)), z_hi]
    up = [rising(z) for z in zs]
    ends = [oracle._slope_polish(rising, lo, lo, hi)
            for lo, hi, u, v in zip(zs, zs[1:], up, up[1:]) if u and not v]
    ends += [z for z, end in ((z_lo, not up[0]), (z_hi, up[-1])) if end]
    ends += [max(math.log(br / c - 1.0), z_lo) for d, c in ((d1, c2), (d2, c1))
             if d < 0.0 and br > c]
    found = [p for p in map(point, ends) if p[2] > 0.0 and p[3] > 0.0]
    if not found:
        raise InfeasibleBargainError("no effort pair beats the disagreement point")
    total, s, f1, f2 = max(found, key=lambda p: (math.log(p[2]) + math.log(p[3]), p[0]))
    return total, math.log(f1) + math.log(f2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_c1=st.floats(-7.0, 7.0), log_c2=st.floats(-7.0, 7.0), log_margin=st.floats(0.0, 12.0),
       beta=st.floats(0.02, 0.98), negative=st.booleans(),
       u1=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
       u2=st.one_of(st.just(0.0), st.floats(0.0, 0.1)), v1=st.floats(-0.5, 0.1),
       v2=st.floats(-0.5, 0.1))
def test_regula_falsi_keeps_the_bisected_bargain(log_c1, log_c2, log_margin, beta, negative,
                                                 u1, u2, v1, v2):
    # Closing each flipped cell by regula falsi instead of bisecting it
    # whole ends on an adjacent pair within the band where the slope's
    # sign is rounding noise: the outcome is never turned into
    # InfeasibleBargainError or back, T moves by at most 8e-15 relative and
    # the log Nash product falls by at most 1e-14 relative. d_i = u_i*r,
    # or with a negative d_i v_i*beta*r down to -0.5*beta*r
    c1, c2 = math.exp(log_c1), math.exp(log_c2)
    r = (c1 + c2) * math.exp(log_margin)
    d1, d2 = u1 * r, u2 * r
    if negative:
        v1 = v1 - 0.5 if v1 >= 0.0 and v2 >= 0.0 else v1
        d1, d2 = v1 * beta * r, v2 * beta * r
    old = _bargain_or_none(lambda: _bisected_bargain(r, c1, c2, beta, d1, d2))
    new = _bargain_or_none(lambda: nash_product_maximize(r, c1, c2, beta, d1, d2))
    assert (new is None) == (old is None)
    if new is not None:
        total, log_product = old
        assert abs(new.efforts.total - total) <= 8e-15 * total
        assert _log_product(new) >= log_product - 1e-14 * max(1.0, abs(log_product))


def test_regula_falsi_closes_a_bargain_in_few_slope_evaluations(monkeypatch):
    # Bisecting the sign over the whole window takes about 62 slope
    # evaluations a bargain; sign bisection to 0.05, regula falsi and the
    # final polish take about 28. A share that admits no bargain costs no
    # more than one that does
    counted, real = [], oracle._bargain

    def bargain(*args):
        z_lo, z_hi, point, slope = real(*args)
        counted.append([args, 0])

        def counted_slope(z):
            counted[-1][1] += 1
            return slope(z)

        return z_lo, z_hi, point, counted_slope

    monkeypatch.setattr(oracle, "_bargain", bargain)
    for policy in (DisagreementPolicy.zero(), DisagreementPolicy.custom(0.2, 0.3),
                   DisagreementPolicy.regulated_competitive()):
        start = len(counted)
        solve_asymmetric_cooperative(10.0, 0.5, 1.0, policy)
        evaluations = [n for _, n in counted[start:]]
        assert sum(evaluations) <= 35 * len(evaluations)
    monkeypatch.undo()
    cost = {True: [], False: []}  # by whether the share's bargain clears
    for args, n in counted:
        cost[_bargain_or_none(lambda: nash_product_maximize(*args)) is not None].append(n)
    feasible, infeasible = cost[True], cost[False]
    assert infeasible and sum(infeasible) / len(infeasible) <= sum(feasible) / len(feasible)


def test_one_search_finds_a_window_narrower_than_a_grid_cell():
    # both margins clear only for log T within 0.02 of the window's bottom,
    # below the first point of the 4- and 8-start grids (0.049 and 0.024
    # up): the multistart finds no bargain, the search over the bracket does
    args = (394576535.3445907, 97095705.8397386, 0.003042194910175023, 0.319495387200872,
            872728.3894650964, 17188663.01199888)
    for starts in (4, 8):
        with pytest.raises(InfeasibleBargainError):
            _multistart(*args, starts=starts)
    f1, f2 = nash_product_maximize(*args).surpluses
    assert f1 > 6e4 and f2 > 2e6


@pytest.mark.parametrize("r,c1,c2,beta,d1,d2", [
    (2.8020575498788545e-230, 3.249903578982571e-288, 9.789649022572988e-299,
     0.06153041711464313, 4.1725083568513025e-232, 0.0),
    (1.98198718058461e-164, 6.071217883925096e-171, 3.28749693211577e-166,
     0.8726985834687555, 3.569119719930093e-166, 6.813380604341491e-166),
    (1.4167816132454562e-171, 1.8956555414918865e-216, 5.842503782890439e-227,
     0.5950058149513625, 2.4674318616785395e-173, 5.2236990146717815e-173),
    (3.9672885158093645e-261, 6.953554797200008e-282, 7.722479397166547e-281,
     0.41035220299477654, 7.774144807506924e-263, 0.0),
    (2.719905601030678e-265, 4.710793551104086e-270, 3.1957525188494287e-268,
     0.5337018119398984, 0.0, 5.490959055200868e-267),
    (14.239868425287968, 0.03447124558091777, 2.3858105522518205,
     0.4958915783827468, 1.6345059827482322, 2.369418873170771),
    (22.03321563584354, 0.4542092738400962, 1.078789712675424,
     0.6570372474520945, 36.09185122520979, 0.0),
])
def test_scan_bargain_is_the_four_start_total_on_edge_markets(r, c1, c2, beta, d1, d2):
    # The first five have margins A, B whose product A*B underflows: a
    # split chosen by the product's sign gave one ISP everything, and no
    # search found a bargain. The one search keeps the 4-start search's
    # totals bit for bit; the first one's is 1.0510696684861227e+57. On the
    # last two, min(d1/A + d2/B) is 1 - 7e-12 and 1 - 9e-12: knife edges
    # whose bargain stays feasible
    total = nash_product_maximize(r, c1, c2, beta, d1, d2).efforts.total
    if r < 1e-100:
        assert total == _multistart(r, c1, c2, beta, d1, d2)[0]


class TestSolveAsymmetricCooperative:
    def test_equal_costs_reduce_to_symmetric_cooperative(self):
        outcome, result = solve_asymmetric_cooperative(
            10.0, 0.5, 0.5, disagreement=DisagreementPolicy.zero())
        coop = solve_symmetric_cooperative(10.0, 0.5, 2)
        assert outcome.contract.joint_share == pytest.approx(
            coop.contract.joint_share, abs=1e-4)
        assert outcome.total_effort == pytest.approx(coop.total_effort, abs=2e-3)
        assert outcome.cp_utility == pytest.approx(coop.cp_utility, abs=1e-4)

    def test_cooperation_beats_competition_for_the_cp(self):
        outcome, result = solve_asymmetric_cooperative(
            10.0, 0.5, 1.0, disagreement=DisagreementPolicy.zero())
        competitive = solve_asymmetric_competitive(10.0, 0.5, 1.0)
        assert outcome.cp_utility >= competitive.outcome_at(0.5).cp_utility
        assert result.converged

    def test_fixed_share_skips_outer_stage(self):
        outcome, result = solve_asymmetric_cooperative(
            10.0, 0.5, 1.0, disagreement=DisagreementPolicy.zero(), beta=0.4)
        assert outcome.contract.joint_share == 0.4
        assert result.efforts.efforts[0] == pytest.approx(1.93725409, abs=1e-5)

    def test_competitive_disagreement_shifts_share_up(self):
        # the bargain only clears once the joint pie beats both competitive
        # utilities, which takes a larger share than the zero-disagreement
        # optimum (frozen from the scan probe: 0.3997 vs ~0.45+)
        zero_out, _ = solve_asymmetric_cooperative(
            10.0, 0.5, 1.0, disagreement=DisagreementPolicy.zero())
        comp_out, comp_res = solve_asymmetric_cooperative(
            10.0, 0.5, 1.0, disagreement=DisagreementPolicy.regulated_competitive())
        assert zero_out.contract.joint_share == pytest.approx(0.3997, abs=2e-3)
        assert comp_out.contract.joint_share > zero_out.contract.joint_share
        assert comp_res.surpluses[0] >= -1e-10
        assert comp_res.surpluses[1] >= -1e-10

    def test_optimal_share_matches_mpmath(self):
        # beta* solves, at 40 digits, the inner stationarity G(T, beta) = 0
        # of log(A*B) with A = beta*r*log1p(T) - c1*T (zero disagreement
        # splits evenly) and the outer -log1p(T) + (1-beta)*T'/(1+T) = 0
        r, c1, c2 = 10.0, 0.5, 1.0

        def inner(t, b):
            rate = b * r / (1 + t)
            a = b * r * mpmath.log1p(t) - c1 * t
            bb = b * r * mpmath.log1p(t) - c2 * t
            return (rate - c1) * bb + a * (rate - c2)

        def outer(t, b):
            slope = (-mpmath.diff(lambda x: inner(t, x), b)
                     / mpmath.diff(lambda x: inner(x, b), t))
            return -mpmath.log1p(t) + (1 - b) * slope / (1 + t)

        with mpmath.workdps(40):
            _, beta_star = mpmath.findroot([inner, outer], (mpmath.mpf(3.9), mpmath.mpf(0.4)))
        outcome, result = solve_asymmetric_cooperative(
            r, c1, c2, disagreement=DisagreementPolicy.zero())
        assert abs(outcome.contract.joint_share - float(beta_star)) <= 1e-9
        a1, a2 = result.efforts.efforts
        assert abs(a1 - a2) <= 1e-12 * a1

    def test_extreme_cost_ratio_admits_a_share(self):
        # the cheaper ISP's 1e-12 cost put every bargain's log-T window above
        # the efforts at which the costlier ISP profits: no share cleared.
        # The optima 0.22791430606285615 and 0.22791430606322114 differ in
        # the 12th digit, and each share is 4e-13 above its own
        for c1 in (1e-12, 1e-9):
            outcome, result = solve_asymmetric_cooperative(100.0, c1, 1.0,
                                                           DisagreementPolicy.zero())
            beta = outcome.contract.joint_share
            assert abs(beta - _mp_nested_share(100.0, c1, 1.0, 0.0, 0.0, result, beta)) <= 1e-12

    def test_custom_disagreement_passthrough(self):
        _, result = solve_asymmetric_cooperative(
            10.0, 0.5, 1.0, disagreement=DisagreementPolicy.custom(0.1, 0.2), beta=0.5)
        assert result.disagreement == (0.1, 0.2)

    def test_small_surpluses_are_an_outcome(self):
        # this disagreement point leaves both ISPs surpluses below 1e-6 at the
        # bargain; the stationarity check must not step outside them
        outcome, result = solve_asymmetric_cooperative(
            6.39990663152031, 0.42244726701719093, 0.7213675589094566,
            DisagreementPolicy.custom(0.91677026, 1.2316075),
            beta=0.45057978443260216)
        assert 0.0 < result.surpluses[0] < 1e-6 and 0.0 < result.surpluses[1] < 1e-6
        assert math.isfinite(outcome.foc_residual)

    def test_binding_surplus_is_a_named_infeasible_bargain(self):
        with pytest.raises(InfeasibleBargainError, match="beats the disagreement point"):
            solve_asymmetric_cooperative(
                10.0, 0.5, 1.0, DisagreementPolicy.custom(50.0, 50.0), beta=0.4)

    def test_every_outer_peak_is_refined(self):
        # the CP objective has two peaks on the share grid; the lower-valued
        # grid peak near 0.16 refines above the higher one near 0.34
        outcome, _ = solve_asymmetric_cooperative(
            12.577971255802295, 0.4224149141612196, 0.7141620817795679,
            DisagreementPolicy.custom(-1.2647135566177428, -0.9697533782181277))
        assert outcome.cp_utility >= 16.48044
        assert outcome.contract.joint_share == pytest.approx(0.15971, abs=1e-5)

    def test_optimum_on_the_edge_of_feasible_bargains(self):
        # the best share sits next to shares no bargain clears: the last
        # golden-section midpoint is infeasible, and the interior point
        # beside it (0.450012, worth 5.234107) must beat the grid share 19/42
        outcome, _ = solve_asymmetric_cooperative(
            6.383357105265885, 0.42139988868399836, 0.7161587717048995)
        assert outcome.cp_utility >= 5.2341

    @pytest.mark.parametrize("r,c1,c2,d1,d2,floor", [
        (155.82596636139243, 1.7061271731437513, 4.949152408555484,
         -26.684009736999133, -21.868832095323214, 358.33715),
        (16.215469342043384, 0.7441428638693919, 1.4867997059697335,
         -0.8184698730060748, -1.764597777483476, 21.37131),
    ])
    def test_bimodal_nash_product_keeps_the_cp_value(self, r, c1, c2, d1, d2, floor):
        # negative disagreement makes the Nash product bimodal in total
        # effort; a one-start inner bargain in the outer scan misses the
        # interior peak and ends lower or unconverged
        outcome, _ = solve_asymmetric_cooperative(r, c1, c2, DisagreementPolicy.custom(d1, d2))
        assert outcome.cp_utility >= floor


    @pytest.mark.parametrize("r,c1,c2,policy,beta", [
        (2740023.2170982216, 0.009187765790324537, 302749.8767387149,
         DisagreementPolicy.regulated_competitive(), 0.4839920769151211),
        (5410794221.837892, 8.51045013581711, 852145792.2249161,
         DisagreementPolicy.zero(), 0.465024749477329),
    ])
    def test_costlier_isps_plateau_does_not_steer_the_scan(self, r, c1, c2, policy, beta):
        # above the costlier ISP's zero margin the product is a flat
        # -1e6 - d plateau; one golden section over the whole effort window
        # drifts onto it, and with no fallback the first market admits no
        # share and the second one's share moves to 0.49945. mpmath puts
        # the optima at 0.4839920769151205 and 0.46502474947732798
        outcome, _ = solve_asymmetric_cooperative(r, c1, c2, policy)
        assert outcome.contract.joint_share == beta

    @pytest.mark.parametrize("r,floor,beta_max", [
        (1e25, 5.2863e26, 0.019),
        (1e200, 4.5368e202, 0.0023),
    ])
    def test_best_share_below_the_lowest_grid_share(self, r, floor, beta_max):
        # the grid's lowest share 1/42 scored 5.28242e26 and 4.46184e202
        outcome, _ = solve_asymmetric_cooperative(r, 0.5, 1.0, DisagreementPolicy.zero())
        assert outcome.cp_utility >= floor
        assert outcome.contract.joint_share <= beta_max

    @pytest.mark.parametrize("market,policy,raised", [
        # the search for the grid's one peak skips the infeasible low shares
        # a full scan of the grid reads
        ((10.0, 0.5, 1.0), DisagreementPolicy.zero(), 0),
        ((10.0, 0.5, 1.0), DisagreementPolicy.custom(0.2, 0.3), 0),
        ((10.0, 0.5, 1.0), DisagreementPolicy.regulated_competitive(), 6),
        # a climb warm-started at the last feasible share's peak once
        # stranded on the edge of the costlier ISP's flat plateau here
        ((2.4785394825016343, 1.3126969868884948, 0.05447067055393765),
         DisagreementPolicy.custom(0.09323202368249456, 0.10293511083625789), 3),
    ])
    def test_non_negative_disagreement_scans_without_the_multistart(self, monkeypatch, market,
                                                                    policy, raised):
        # every bargain is one search that evaluates no grid, run once per
        # share, the final one included; the 4-start search agrees that each
        # share found infeasible is so
        calls, infeasible = [], []
        real = oracle.nash_product_maximize

        def counted(*args, **kwargs):
            calls.append((args[3], kwargs))
            try:
                return real(*args, **kwargs)
            except InfeasibleBargainError:
                infeasible.append(args[:6])
                raise

        monkeypatch.setattr(oracle, "nash_product_maximize", counted)
        monkeypatch.setattr(oracle, "_NASH_GRID", None)
        solve_asymmetric_cooperative(*market, policy)
        shares = [beta for beta, kwargs in calls if kwargs == {}]
        assert len(shares) == len(calls) == len(set(shares))
        assert len(infeasible) == raised
        monkeypatch.undo()
        for args in infeasible:
            with pytest.raises(InfeasibleBargainError):
                _multistart(*args)

    @pytest.mark.parametrize("policy", [DisagreementPolicy.zero(),
                                        DisagreementPolicy.custom(0.2, 0.3)])
    def test_slope_search_places_the_share_in_few_bargains(self, monkeypatch, policy):
        # about 9 grid shares find the peak and about 5 more place the share
        # by its slope's sign
        calls = []
        real = oracle.nash_product_maximize

        def counted(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "nash_product_maximize", counted)
        solve_asymmetric_cooperative(10.0, 0.5, 1.0, policy)
        assert len(calls) <= 16

    def test_infeasible_cell_end_keeps_the_golden_section(self, monkeypatch):
        # under competitive disagreement the cell rising towards the grid
        # peak 19/42 starts at 3/7, which admits no bargain: the slope is
        # undefined there, so golden section refines the peak as before, to
        # the same share. The optimum is interior all the same: mpmath puts
        # it at 0.4357704464084458, 1.35e-8 below this share. Every bargain
        # closes its slope's root by _illinois too; only the share stage's
        # calls (on cp_slope) are refused
        real = oracle._illinois

        def bargains_only(f, *args):
            assert f.__name__ != "cp_slope"
            return real(f, *args)

        monkeypatch.setattr(oracle, "_illinois", bargains_only)
        outcome, _ = solve_asymmetric_cooperative(10.0, 0.5, 1.0)
        assert outcome.contract.joint_share == 0.43577045987943014

    def test_negative_disagreement_scans_with_the_multistart(self, monkeypatch):
        calls = []
        real = oracle.nash_product_maximize

        def counted(*args, **kwargs):
            calls.append((args[3], kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "nash_product_maximize", counted)
        outcome, _ = solve_asymmetric_cooperative(10.0, 0.5, 1.0,
                                                  DisagreementPolicy.custom(-0.5, 0.3))
        # one bargain per share: the final share's is the one the scan kept
        scanned = [beta for beta, kwargs in calls if kwargs == {}]
        assert len(scanned) == len(calls) == len(set(scanned))
        assert {(k + 1) / 42 for k in range(41)} <= set(scanned)
        assert outcome.contract.joint_share in scanned

    @pytest.mark.parametrize("d1,d2", [(0.0, -0.2), (-0.5, -0.2)])
    def test_negative_disagreement_scores_every_grid_share(self, monkeypatch, d1, d2):
        # a negative d_i can give the grid two peaks: no peak search runs
        scored = []
        real = oracle.nash_product_maximize

        def counted(*args, **kwargs):
            scored.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "nash_product_maximize", counted)
        monkeypatch.setattr(oracle, "_one_peak", None)
        solve_asymmetric_cooperative(10.0, 0.5, 1.0, DisagreementPolicy.custom(d1, d2))
        assert {(k + 1) / 42 for k in range(41)} <= set(scored)

    def test_tied_grid_values_take_the_full_scan(self, monkeypatch):
        # every grid share's CP value overflows to inf, so the search meets
        # a tie at its first pair; the full scan reads all 41 shares and
        # reports the overflow
        found, scored = [], []
        real_peak, real_nash = oracle._one_peak, oracle.nash_product_maximize

        def peak(*args):
            found.append(real_peak(*args))
            return found[-1]

        def nash(*args, **kwargs):
            scored.append(args[3])
            return real_nash(*args, **kwargs)

        monkeypatch.setattr(oracle, "_one_peak", peak)
        monkeypatch.setattr(oracle, "nash_product_maximize", nash)
        with pytest.raises(NonFiniteOutcomeError, match="cp_utility: inf"):
            solve_asymmetric_cooperative(1e307, 1.0, 2.0, DisagreementPolicy.zero())
        assert found == [None]
        assert {(k + 1) / 42 for k in range(41)} <= set(scored)


def _mp_nested_share(r, c1, c2, d1, d2, result, beta):
    # The nested optimum at 40 digits: mpmath's findroot of the bargain's
    # stationarity G(T, beta) = 0, G = A'/A + B'/B - 2h'/(1 - h) with
    # h = d1/A + d2/B and A = beta*r*log1p(T) - c1*T (B likewise), and of
    # the CP's -log1p(T) + (1 - beta)*T'/(1 + T) = 0, T' = -G_beta/G_T by
    # mpmath.diff; started at the solver's (T, beta)
    with mpmath.workdps(40):
        r, c1, c2, d1, d2 = map(mpmath.mpf, (r, c1, c2, d1, d2))

        def inner(t, b):
            g = b * r * mpmath.log1p(t)
            a, bb = g - c1 * t, g - c2 * t
            a_t, bb_t = b * r / (1 + t) - c1, b * r / (1 + t) - c2
            h_t = -d1 * a_t / a ** 2 - d2 * bb_t / bb ** 2
            return a_t / a + bb_t / bb - 2 * h_t / (1 - d1 / a - d2 / bb)

        def outer(t, b):
            slope = (-mpmath.diff(lambda x: inner(t, x), b)
                     / mpmath.diff(lambda x: inner(x, b), t))
            return -mpmath.log1p(t) + (1 - b) * slope / (1 + t)

        guess = (mpmath.mpf(result.efforts.total), mpmath.mpf(beta))
        return float(mpmath.findroot([inner, outer], guess)[1])


def _solve_or_error(*args):
    try:
        return repr(solve_asymmetric_cooperative(*args))
    except (InfeasibleBargainError, NonFiniteOutcomeError) as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(log_cost=st.floats(math.log(1e-3), math.log(1e3)), log_ratio=st.floats(0.0, 20.0),
       first_costlier=st.booleans(), log_margin=st.floats(math.log(1.05), math.log(1e40)),
       policy=st.sampled_from(["zero", "regulated-competitive", "custom"]),
       u1=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
       u2=st.one_of(st.just(0.0), st.floats(0.0, 0.05)))
def test_peak_search_is_the_full_scan(log_cost, log_ratio, first_costlier, log_margin, policy,
                                      u1, u2):
    # With d1, d2 >= 0 the outer grid has one peak, so the search for it
    # must end where the full scan of all 41 shares ends: the same share,
    # outcome and bargain to the last bit, or the same error. Margins up
    # to 1e40 put the best share below the grid's lowest, 1/42
    c_min, c_max = math.exp(log_cost), math.exp(log_cost + log_ratio)
    c1, c2 = (c_max, c_min) if first_costlier else (c_min, c_max)
    r = (c1 + c2) * math.exp(log_margin)
    disagreement = {"zero": DisagreementPolicy.zero(),
                    "regulated-competitive": DisagreementPolicy.regulated_competitive(),
                    "custom": DisagreementPolicy.custom(u1 * r, u2 * r)}[policy]
    searched = _solve_or_error(r, c1, c2, disagreement)
    with mock.patch.object(oracle, "_one_peak", return_value=None):
        assert _solve_or_error(r, c1, c2, disagreement) == searched


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(c1=st.floats(0.05, 5.0), c2=st.floats(0.05, 5.0), margin=st.floats(1.05, 100.0),
       zero=st.booleans(), u1=st.floats(-0.2, 0.0), u2=st.floats(-0.2, 0.0))
def test_nested_solve_is_stationary_or_a_named_error(c1, c2, margin, zero, u1, u2):
    r = (c1 + c2) * margin
    policy = DisagreementPolicy.zero() if zero else DisagreementPolicy.custom(u1 * r, u2 * r)
    try:
        outcome, _ = solve_asymmetric_cooperative(r, c1, c2, policy)
    except InfeasibleBargainError:
        return
    assert outcome.foc_residual <= 1e-9


# Where the slope search places the share, it is the 40-digit nested optimum
# to 1e-9. Draws whose share it does not place (an end of the peak's rising
# cell admits no bargain or clamps the split, or the slope keeps its sign
# over the cell) or that end in a named error are skipped: of the 60 draws,
# 58 are placed and checked, 2 are not placed and none raises
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c1=st.floats(0.05, 5.0), c2=st.floats(0.05, 5.0), margin=st.floats(1.3, 100.0),
       zero=st.booleans(), u1=st.floats(0.0, 0.2), u2=st.floats(0.0, 0.2))
def test_nested_share_matches_mpmath(c1, c2, margin, zero, u1, u2):
    r = (c1 + c2) * margin
    d1, d2 = (0.0, 0.0) if zero else (u1 * r, u2 * r)
    placed = []

    def illinois(f, *args):
        # the share stage's roots, not the bargains' (on their own slope)
        found = real(f, *args)
        if f.__name__ == "cp_slope" and found is not None:
            placed.append(found[0])
        return found

    real = oracle._illinois
    with mock.patch.object(oracle, "_illinois", illinois):
        try:
            outcome, result = solve_asymmetric_cooperative(
                r, c1, c2, DisagreementPolicy.custom(d1, d2))
        except (InfeasibleBargainError, NonFiniteOutcomeError):
            return
    beta = outcome.contract.joint_share
    if beta not in placed:
        return
    assert abs(beta - _mp_nested_share(r, c1, c2, d1, d2, result, beta)) <= 1e-9


def test_numeric_disagreement_matches_closed_form():
    # both nested searches end in a slope-sign bisection to adjacent floats
    closed = solve_regulated_competitive(10.0, 0.5, 1.0)
    numeric = regulated_competitive_utilities_numeric(10.0, 0.5, 1.0)
    assert numeric[0] == pytest.approx(closed.isp_utilities[0], rel=1e-9)
    assert numeric[1] == pytest.approx(closed.isp_utilities[1], rel=1e-9)


def test_numeric_disagreement_ends_on_a_large_market():
    # the leader scan asks for best responses up to r/(c1 + c2) ~ 7e8 in effort
    closed = solve_regulated_competitive(1e9, 0.5, 1.0)
    numeric = regulated_competitive_utilities_numeric(1e9, 0.5, 1.0)
    assert numeric == pytest.approx(closed.isp_utilities, rel=1e-9)


@pytest.mark.parametrize("solve, args", [
    # the total effort overflows to inf, and each utility is inf - inf
    (regulated_competitive_utilities_numeric, (1e200, 1e-200, 1e-150)),
    # the nested solve's default disagreement point is that benchmark
    (solve_asymmetric_cooperative,
     (1.260936773127558e+118, 6.4861994492187215e-270, 5.351253761485412e-198)),
])
def test_overflowed_disagreement_point_is_a_named_error(solve, args):
    with pytest.raises(NonFiniteOutcomeError,
                       match=r"utilities \(nan, nan\) at total effort inf"):
        solve(*args)


class TestShapleyBrute:
    def test_symmetric_game(self):
        values = {frozenset(): 0.0, frozenset({1}): 1.0,
                  frozenset({2}): 1.0, frozenset({1, 2}): 3.0}
        assert shapley_brute(lambda s: values[frozenset(s)]) == (1.5, 1.5)

    def test_dummy_player(self):
        values = {frozenset(): 0.0, frozenset({1}): 0.0,
                  frozenset({2}): 2.0, frozenset({1, 2}): 2.0}
        assert shapley_brute(lambda s: values[frozenset(s)]) == (0.0, 2.0)

    def test_efficiency_exact_on_random_games(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            v1, v2, v12 = rng.uniform(-3.0, 5.0, size=3)
            values = {frozenset(): 0.0, frozenset({1}): float(v1),
                      frozenset({2}): float(v2), frozenset({1, 2}): float(v12)}
            phi1, phi2 = shapley_brute(lambda s: values[frozenset(s)])
            assert phi1 + phi2 == pytest.approx(float(v12), abs=1e-12)

    def test_market_coalition_values(self):
        # v({i}) = r*(1 - 2/W(r*e/c_i)) + c_i with bisection-oracle W,
        # v({1,2}) per the joint-coalition derivation at the branch effort
        r, c1, c2 = 10.0, 0.5, 1.0
        w1 = bisection_w(r * E / c1)
        w2 = bisection_w(r * E / c2)
        a1 = 0.5 / 1.5 * (r / (c1 * w1) - 1.0)
        values = {
            frozenset(): 0.0,
            frozenset({1}): r * (1 - 2 / w1) + c1,
            frozenset({2}): r * (1 - 2 / w2) + c2,
            frozenset({1, 2}): r * (1 - 2 / w2) + a1 * (c2 - c1) + c2,
        }
        phi1, phi2 = shapley_brute(lambda s: values[frozenset(s)])
        assert phi1 == pytest.approx(2.31580295250659, abs=1e-9)
        assert phi2 == pytest.approx(1.39055481791391, abs=1e-9)

    def test_nonzero_empty_coalition_rejected(self):
        with pytest.raises(ValueError):
            shapley_brute(lambda s: 1.0)


def test_three_isp_asymmetric_total_share_follows_cost_sum():
    # no closed form is shipped for three unequal costs; the oracle confirms
    # the two-ISP structure generalizes: total share 1/W(r*e/sum(c)) and the
    # cost-proportional split is consistent with every best response
    r, costs = 10.0, (0.5, 0.8, 1.2)
    k = sum(costs)

    def objective(u):
        total = max(0.0, u * r / k - 1.0)
        return (1.0 - u) * r * math.log(total + 1.0)

    u_star, _ = leader_optimum(objective)
    assert u_star == pytest.approx(1.0 / bisection_w(r * E / k), abs=1e-7)
    total = u_star * r / k - 1.0
    for ci in costs:
        beta_i = u_star * ci / k
        a_i = ci / k * total
        br = best_response_effort(beta_i, r, ci, total - a_i)
        assert br == pytest.approx(a_i, abs=1e-7)
