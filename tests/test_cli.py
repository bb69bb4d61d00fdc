import dataclasses
import json

import pytest

from revshare import cli, oracle
from revshare.cli import SweepAxis, UsageError, parse_args
from revshare.model import Branch, MarketParams, ScenarioKind, validate


class TestParseArgs:
    def test_solve_symmetric(self):
        spec = parse_args(["solve", "--scenario", "symmetric-competitive",
                           "--r", "10", "--c", "0.5", "--n", "2"])
        assert spec.command == "solve"
        assert spec.scenario == "symmetric-competitive"
        assert spec.r == 10.0
        assert spec.costs == (0.5,)
        assert spec.n == 2
        assert spec.output_format == "table"

    def test_sweep_compare(self):
        spec = parse_args(["sweep", "--scenario", "compare-coop-comp",
                           "--r", "10", "--c", "0.5,1.0",
                           "--sweep", "c2:0.5:4:8", "--format", "csv"])
        assert spec.command == "sweep"
        assert spec.costs == (0.5, 1.0)
        assert spec.sweep_axis == SweepAxis(param="c2", start=0.5, stop=4.0, steps=8)
        assert spec.output_format == "csv"

    def test_branch_and_disagreement(self):
        spec = parse_args(["nbs", "--scenario", "regulated-cooperative",
                           "--r", "10", "--c", "0.5,1.0",
                           "--branch", "isp2", "--disagreement", "1.5,2.0"])
        assert spec.branch is Branch.ISP2
        assert spec.disagreement.kind == "custom"
        assert spec.disagreement.d1 == 1.5

    def test_usage_errors_name_the_flag(self):
        cases = [
            (["solve", "--scenario", "nope", "--r", "1", "--c", "1"], "--scenario"),
            (["solve", "--scenario", "public-private", "--c", "1,2"], "--r"),
            (["solve", "--scenario", "public-private", "--r", "5"], "--c"),
            (["solve", "--scenario", "public-private", "--r", "5",
              "--c", "abc"], "--c"),
            (["sweep", "--scenario", "public-private", "--r", "5", "--c", "1,2",
              "--sweep", "r:1:2"], "--sweep"),
            (["sweep", "--scenario", "public-private", "--r", "5", "--c", "1,2",
              "--sweep", "r:1:2:1"], "--sweep"),
            (["solve", "--scenario", "public-private", "--r", "5", "--c", "1,2",
              "--sweep", "r:1:2:5"], "--sweep"),
            (["solve", "--scenario", "public-private", "--r", "5", "--c", "1,2",
              "--disagreement", "half"], "--disagreement"),
        ]
        for argv, flag in cases:
            with pytest.raises(UsageError, match=flag.replace("-", "[-]")):
                parse_args(argv)

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["solve", "--scenario", "public-private", "--r", "5",
                        "--c", "1,2", "--frobnicate", "3"])

    def test_config_file_supplies_defaults_and_flags_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "scenario": "symmetric-competitive",
            "r": 10.0,
            "c": [0.5],
            "n": 2,
            "format": "json",
        }))
        spec = parse_args(["solve", "--config", str(config)])
        assert spec.scenario == "symmetric-competitive"
        assert spec.n == 2
        assert spec.output_format == "json"
        spec = parse_args(["solve", "--config", str(config), "--n", "5",
                           "--format", "csv"])
        assert spec.n == 5
        assert spec.output_format == "csv"

    def test_missing_command(self):
        with pytest.raises(UsageError):
            parse_args([])


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_table_output_contains_reference_values(self, capsys):
        code, out, _ = _run(capsys, ["solve", "--scenario", "symmetric-competitive",
                                     "--r", "10", "--c", "0.5", "--n", "2"])
        assert code == 0
        assert "0.17105182285" in out
        assert "12.6519438902" in out

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["solve", "--scenario", "regulated-cooperative",
                "--r", "10", "--c", "0.5,1.0", "--format", "json"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_degenerate_regime_is_an_outcome_not_an_error(self, capsys):
        code, out, err = _run(capsys, ["solve", "--scenario", "asymmetric-competitive",
                                       "--r", "1", "--c", "2,3"])
        assert code == 0
        assert err == ""
        assert "degenerate" in out
        assert "true" in out

    def test_json_and_csv_carry_identical_values(self, capsys):
        base = ["solve", "--scenario", "public-private", "--r", "10", "--c", "1,0.5"]
        _, json_text, _ = _run(capsys, base + ["--format", "json"])
        _, csv_text, _ = _run(capsys, base + ["--format", "csv"])
        payload = json.loads(json_text)
        header, row = csv_text.strip().split("\n")
        columns = dict(zip(header.split(","), row.split(",")))
        assert columns["scenario"] == "public-private"
        assert columns["contract.shares.2"] == cli._fmt(
            payload["contract"]["shares"][1])
        assert columns["utilities.cp"] == cli._fmt(payload["utilities"]["cp"])
        assert columns["degenerate"] == "false"

    def test_multi_cp_reports_per_cp(self, capsys):
        code, out, _ = _run(capsys, ["solve", "--scenario", "multi-cp-competitive",
                                     "--r", "10", "--r2", "1.2", "--c", "0.5,1.0",
                                     "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["per_cp"][0]["degenerate"] is False
        assert payload["per_cp"][1]["degenerate"] is True

    def test_numerical_failure_exits_two(self, capsys):
        code, out, err = _run(capsys, ["solve", "--scenario",
                                       "public-private-regulated",
                                       "--r", "10", "--c", "1,0.5",
                                       "--a1-bar", "50"])
        assert code == 2
        assert "public-private-regulated" in err

    def test_huge_revenue_rate_solves(self, capsys):
        # W(r*e/c) near 1e300 is past the reach of Halley's residual test
        code, out, err = _run(capsys, ["solve", "--scenario", "symmetric-competitive",
                                       "--r", "1e300", "--c", "1", "--n", "2",
                                       "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["residuals"]["foc"] <= 1e-9

    def test_usage_failure_exits_one(self, capsys):
        code, _, err = _run(capsys, ["solve", "--scenario", "public-private"])
        assert code == 1
        assert "usage error" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = _run(capsys, ["solve", "--scenario", "public-private",
                                     "--r", "10", "--c", "1,0.5",
                                     "--format", "json", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["degenerate"] is False


class TestSweepCommand:
    def test_isp_count_sweep_keeps_cp_utility_constant(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--scenario", "symmetric-competitive",
                                     "--r", "10", "--c", "0.5",
                                     "--sweep", "n:1:10:10", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert len(lines) == 11  # header + 10 points
        ucp_col = header.index("utilities.cp")
        values = {line.split(",")[ucp_col] for line in lines[1:]}
        assert len(values) == 1

    def test_compare_sweep_rows(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--scenario", "compare-public-private",
                                     "--r", "10", "--c", "0.5,1.0",
                                     "--sweep", "c2:0.6:4:8", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 9
        holds_cols = [i for i, name in enumerate(lines[0].split(","))
                      if name.endswith(".holds")]
        assert holds_cols
        for line in lines[1:]:
            cells = line.split(",")
            assert all(cells[i] == "true" for i in holds_cols)

    def test_sweep_plot_written(self, capsys, tmp_path):
        target = tmp_path / "sweep.svg"
        code, _, _ = _run(capsys, ["sweep", "--scenario", "symmetric-competitive",
                                   "--r", "10", "--c", "0.5",
                                   "--sweep", "r:2:20:5", "--plot", str(target)])
        assert code == 0
        text = target.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert "utilities.cp" in text

    def test_sweep_reruns_byte_identical(self, capsys):
        argv = ["sweep", "--scenario", "public-private", "--r", "10",
                "--c", "1,0.5", "--sweep", "c2:0.3:2:6", "--format", "csv"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_sweep_symmetric_cost_axis(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--scenario", "symmetric-cooperative",
                                     "--r", "10", "--c", "0.5", "--n", "2",
                                     "--sweep", "c:0.5:2:4", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        cost_col = lines[0].split(",").index("params.costs.1")
        assert [line.split(",")[cost_col] for line in lines[1:]] == [
            "0.5", "1", "1.5", "2"]


    def test_json_sweep_is_an_array_matching_the_csv_rows(self, capsys):
        base = ["sweep", "--scenario", "fixed-public-effort-cooperative", "--r", "10",
                "--c", "0.5,1.0", "--a1-bar", "0.2", "--sweep", "r:0.5:12:6"]
        code, json_text, _ = _run(capsys, base + ["--format", "json"])
        assert code == 0
        _, csv_text, _ = _run(capsys, base + ["--format", "csv"])
        points = json.loads(json_text)
        header, *lines = csv_text.strip().split("\n")
        assert isinstance(points, list) and len(points) == len(lines) == 6
        keys = header.split(",")
        for point, line in zip(points, lines):
            flat = dict(cli._flatten(point))
            assert [cli._fmt(flat.get(key)) for key in keys] == line.split(",")


class TestCompareCommand:
    def test_compare_public_private_table(self, capsys):
        code, out, _ = _run(capsys, ["compare", "--scenario",
                                     "compare-public-private",
                                     "--r", "10", "--c", "0.5,1.0"])
        assert code == 0
        assert "one-public" in out
        all_hold_line = [line for line in out.splitlines()
                         if line.startswith("all_hold")]
        assert all_hold_line and all_hold_line[0].endswith("true")

    def test_compare_requires_comparison_scenario(self, capsys):
        code, _, err = _run(capsys, ["compare", "--scenario", "public-private",
                                     "--r", "10", "--c", "0.5,1.0"])
        assert code == 1
        assert "compare" in err

    def test_n_scaling(self, capsys):
        code, out, _ = _run(capsys, ["compare", "--scenario", "n-scaling",
                                     "--r", "10", "--c", "0.5", "--n", "6",
                                     "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        assert "n=6" in payload["metrics"]


class TestShapleyCommand:
    def test_reports_both_routes(self, capsys):
        code, out, _ = _run(capsys, ["shapley", "--scenario", "regulated-cooperative",
                                     "--r", "10", "--c", "0.5,1.0",
                                     "--branch", "isp1", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["shapley"]["phi1"] == pytest.approx(2.31580295250659, abs=1e-9)
        assert payload["shapley"]["matches_brute"] is False
        assert payload["shapley"]["discrepancy"] > 1.0


class TestNbsCommand:
    def test_zero_disagreement_bargain(self, capsys):
        code, out, _ = _run(capsys, ["nbs", "--scenario", "regulated-cooperative",
                                     "--r", "10", "--c", "0.5,1.0",
                                     "--disagreement", "zero", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["split"]["beta1"] + payload["split"]["beta2"] == pytest.approx(
            payload["stage1"]["joint_share"], abs=1e-10)
        assert payload["free_form_bargain"]["converged"] is True

    def test_competitive_disagreement_split_is_infeasible_here(self, capsys):
        code, _, err = _run(capsys, ["nbs", "--scenario", "regulated-cooperative",
                                     "--r", "10", "--c", "0.5,1.0",
                                     "--disagreement", "competitive"])
        assert code == 2
        assert "surplus" in err

    @pytest.mark.parametrize("argv", [
        ["nbs", "--scenario", "regulated-cooperative", "--disagreement", "zero"],
        ["compare", "--scenario", "compare-coop-comp", "--disagreement", "zero"],
    ])
    def test_non_converged_bargain_exits_two(self, capsys, monkeypatch, argv):
        real = oracle.nash_product_maximize

        def split_starts(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(oracle, "nash_product_maximize", split_starts)
        code, out, err = _run(capsys, argv + ["--r", "10", "--c", "0.5,1.0"])
        assert code == 2
        assert out == ""
        assert "did not converge: multistart spread" in err


def _degenerate_probe_points():
    """(scenario, costs, r, r2) with r just below and above each of c1, c2
    and c1 + c2, for c1 < c2 and c1 > c2. Symmetric scenarios take c1
    alone; two-CP scenarios also move r2 across the same costs."""
    for c1, c2 in ((0.5, 1.0), (1.0, 0.5)):
        rates = [k * f for k in (c1, c2, c1 + c2) for f in (0.999, 1.001)]
        for kind in ScenarioKind:
            costs = (c1,) if kind.value.startswith("symmetric") else (c1, c2)
            r2_values = rates if kind.value.startswith("multi-cp") else [None]
            for r in rates:
                for r2 in r2_values:
                    yield kind, costs, r, r2


def test_solve_degenerate_flag_agrees_with_validate(capsys):
    for kind, costs, r, r2 in _degenerate_probe_points():
        argv = ["solve", "--scenario", kind.value, "--r", repr(r),
                "--c", ",".join(map(repr, costs)), "--format", "json"]
        if r2 is not None:
            argv += ["--r2", repr(r2)]
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        payload = json.loads(out)
        bodies = [(payload, r)] if r2 is None else zip(payload["per_cp"], (r, r2))
        for body, rate in bodies:
            expected = validate(MarketParams(r=rate, costs=costs), kind).degenerate
            assert body["degenerate"] is expected, argv
