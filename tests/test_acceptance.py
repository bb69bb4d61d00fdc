"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with -s / -rA) naming the
criterion it covers; the test name carries the criterion number so the
plain -v listing reads as the acceptance checklist. Criteria 1-3 and 5-8
run ``revshare verify``'s checks at their own seeds and sample sizes and
gate on the worst figures those return.
"""
import math
import time

import numpy as np
import pytest

from revshare import cli, verify
from revshare.closed_form import (
    solve_regulated_competitive,
    solve_regulated_cooperative_cp_preferred,
    solve_symmetric_competitive,
)
from revshare.model import Branch
from revshare.oracle import nash_product_maximize, shapley_brute


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS — {text}")


def test_criterion_01_lambert_w_round_trip_and_identity():
    start = time.perf_counter()
    worst = verify._check_lambertw_roundtrip(10_000, seed=1001).figures
    elapsed = time.perf_counter() - start
    assert worst["roundtrip"] < 1e-12
    assert worst["identity"] < 1e-12
    assert elapsed < 1.0
    _report(1, f"1e4 samples: roundtrip {worst['roundtrip']:.2e}, "
               f"identity {worst['identity']:.2e}, {elapsed:.2f}s")


def test_criterion_02_closed_forms_match_oracle():
    start = time.perf_counter()
    figures = verify._check_closed_vs_oracle(100, seed=1002).figures
    elapsed = time.perf_counter() - start
    assert figures["share_gap"] < 1e-6
    assert figures["effort_gap"] < 1e-8
    assert figures["scenarios"] >= 7
    assert elapsed < 10.0
    _report(2, f"100 draws x {figures['scenarios']} scenarios: share gap "
               f"{figures['share_gap']:.2e}, effort gap {figures['effort_gap']:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_03_foc_residuals():
    worst = verify._check_foc_residuals(100, seed=1003).figures["residual"]
    assert worst < 1e-9
    _report(3, f"100 draws x 8 solves: max FOC residual {worst:.2e}")


def test_criterion_04_isp_count_scaling_suite():
    start = time.perf_counter()
    r, c = 10.0, 0.5
    outs = [solve_symmetric_competitive(r, c, n) for n in range(1, 11)]
    ucp = [o.cp_utility for o in outs]
    assert max(ucp) - min(ucp) < 1e-9
    n_beta = [n * o.contract.shares[0] for n, o in enumerate(outs, start=1)]
    n_eff = [n * o.efforts.efforts[0] for n, o in enumerate(outs, start=1)]
    assert max(n_beta) - min(n_beta) < 1e-9
    assert max(n_eff) - min(n_eff) < 1e-9
    betas = [o.contract.shares[0] for o in outs]
    efforts = [o.efforts.efforts[0] for o in outs]
    utilities = [o.isp_utilities[0] for o in outs]
    for series in (betas, efforts, utilities):
        assert all(b < a for a, b in zip(series, series[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, f"n=1..10: U_CP spread {max(ucp) - min(ucp):.2e}; per-ISP share, "
               f"effort and utility strictly decreasing; {elapsed:.3f}s")


def test_criterion_05_symmetric_competitive_equals_cooperative():
    worst = verify._check_symmetric_coincidence(50, seed=1005).figures["gap"]
    assert worst < 1e-9
    _report(5, f"50 draws: max total-effort/share/utility gap {worst:.2e}")


def test_criterion_06_public_private_orderings_on_grid():
    check = verify._check_public_private_orderings(20)
    assert check.figures["failures"] == 0, check.detail
    _report(6, "400 (r, c2/c1) grid cells: share, total-effort and "
               "CP-utility orderings all hold")


def test_criterion_07_nash_bargaining_battery():
    start = time.perf_counter()
    # symmetric costs reproduce the cooperative split
    sym = verify._check_nbs_symmetric()
    assert sym.figures["effort_gap"] < 1e-4
    assert sym.figures["spread"] < 1e-6
    assert sym.passed, sym.detail  # the multistart converged

    # asymmetric battery: uniqueness, stationarity, dense-grid cross-check
    grad = verify._check_nbs_stationarity().figures["gradient"]
    assert grad < 1e-4
    r, c1, c2, beta = 10.0, 0.5, 1.0, 0.4
    result = nash_product_maximize(r, c1, c2, beta)
    assert result.converged and result.multistart_agreement < 1e-6

    lo, hi = math.log(1e-3), math.log(beta * r / min(c1, c2))
    n = 200
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
            if f1 > 0.0 and f2 > 0.0 and f1 * f2 > best:
                best, best_xy = f1 * f2, (x, y)
    cell = (hi - lo) / (n - 1)
    for grid_val, nm_val in zip(best_xy, result.efforts.efforts):
        assert abs(math.log(grid_val) - math.log(nm_val)) <= cell
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"symmetric split gap {sym.figures['effort_gap']:.2e}; multistart spread "
               f"{result.multistart_agreement:.2e}; stationarity {grad:.2e}; "
               f"200x200 grid within one cell; {elapsed:.1f}s")


def test_criterion_08_closed_split_matches_numeric_nash_product():
    worst = verify._check_nbs_split(100, seed=1008).figures
    assert worst["split_gap"] < 1e-8
    assert worst["surplus_gap"] < 1e-9
    assert worst["conservation"] < 1e-9
    _report(8, f"100 draws: split vs numeric {worst['split_gap']:.2e}, equal-surplus "
               f"slack {worst['surplus_gap']:.2e}, conservation {worst['conservation']:.2e}")


def test_criterion_09_shapley_axioms_and_reported_discrepancy():
    from revshare.bargaining import coalition_values, shapley_closed

    r, c1, c2 = 10.0, 0.5, 1.0
    values = coalition_values(r, c1, c2, Branch.ISP1)
    phi1, phi2 = shapley_brute(lambda s: values[frozenset(s)])
    efficiency = abs(phi1 + phi2 - values[frozenset({1, 2})])
    assert efficiency < 1e-12

    sym = shapley_closed(r, 0.7, 0.7, Branch.ISP1)
    assert sym.phi1 == pytest.approx(sym.phi2, abs=1e-12)

    report = shapley_closed(r, c1, c2, Branch.ISP1)
    # The direct closed forms disagree with the enumeration in sign
    # structure; the gap is computed and reported, never asserted equal.
    assert report.discrepancy > 0.0
    assert not report.matches_brute
    _report(9, f"efficiency slack {efficiency:.1e}; symmetric split equal; "
               f"closed-vs-brute discrepancy {report.discrepancy:.4g} (reported)")


def test_criterion_10_cooperation_dominance_grid():
    c1 = 0.5
    for ratio in (1.0, 2.0, 4.0, 8.0):
        for r in (5.0, 10.0, 20.0):
            c2 = c1 * ratio
            comp = solve_regulated_competitive(r, c1, c2)
            assert not comp.degenerate, (r, c2)
            _, coop = solve_regulated_cooperative_cp_preferred(r, c1, c2)
            assert coop.total_effort >= comp.total_effort
            assert coop.cp_utility >= comp.cp_utility
            if ratio > 1.0:
                # no equality anywhere off the symmetric-cost diagonal
                assert coop.total_effort > comp.total_effort + 1e-9
                assert coop.cp_utility > comp.cp_utility + 1e-9
    _report(10, "12 (c2/c1, r) cells: cooperative total effort and CP utility "
                "dominate, strictly so for unequal costs")


def test_criterion_11_cli_determinism(capsys):
    argv = ["solve", "--scenario", "symmetric-competitive",
            "--r", "10", "--c", "0.5", "--n", "2", "--format", "json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second

    code = cli.main(["verify"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    with capsys.disabled():
        _report(11, "verify exits 0 on a clean build; repeated solve output "
                    "is byte-identical")
