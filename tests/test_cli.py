import contextlib
import io
import json
import math
import re
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revshare import bargaining, cli, closed_form
from revshare.cli import SweepAxis, UsageError, parse_args
from revshare.model import SCENARIOS, Branch, MarketParams, ScenarioKind, validate

GOLDEN = Path(__file__).parent / "golden"


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
            (["sweep", "--scenario", "public-private", "--r", "5", "--c", "1,2",
              "--sweep", "r:1:inf:3"], "--sweep"),
            (["sweep", "--scenario", "public-private", "--r", "5", "--c", "1,2",
              "--sweep", "r:nan:5:3"], "--sweep"),
            (["solve", "--scenario", "public-private", "--r", "5", "--c", "1,2",
              "--disagreement", "half"], "--disagreement"),
        ]
        for argv, flag in cases:
            with pytest.raises(UsageError, match=flag.replace("-", "[-]")):
                parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--scenario", "public-private", "--r", "5", "--c", "1,2",
         "--sweep", "r:1:2:1000000000"],
        ["sweep", "--scenario", "symmetric-competitive", "--r", "5", "--c", "1",
         "--sweep", "n:1:1e12:3"],
        ["sweep", "--scenario", "symmetric-competitive", "--r", "5", "--c", "1",
         "--sweep", "n:1:inf:3"],
        ["solve", "--scenario", "symmetric-competitive", "--r", "5", "--c", "1",
         "--n", "1000000000"],
        ["compare", "--scenario", "n-scaling", "--r", "5", "--c", "1", "--n", "1000000000"],
    ])
    def test_size_caps_are_usage_errors_at_parse_time(self, argv, monkeypatch, capsys):
        # run() is never reached, so nothing the size asks for is allocated
        monkeypatch.setattr(cli, "run", lambda spec: pytest.fail("parsed past the cap"))
        assert cli.main(argv) == 1
        assert "at most" in capsys.readouterr().err

    def test_size_caps_admit_their_limits(self):
        spec = parse_args(["sweep", "--scenario", "symmetric-competitive", "--r", "5",
                           "--c", "1", "--n", str(cli.MAX_N), "--sweep",
                           f"n:1:{cli.MAX_N}:{cli.MAX_SWEEP_STEPS}"])
        assert spec.n == cli.MAX_N
        assert spec.sweep_axis.steps == cli.MAX_SWEEP_STEPS

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


_CONFIG_BASE = {"scenario": "symmetric-competitive", "c": [0.5]}


def _parse_config(tmp_path, cfg, command="solve"):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return parse_args([command, "--config", str(path)])


class TestConfigFile:
    """A config file's values are parsed by the flags they mirror."""

    def test_string_values_parse_as_their_flags(self, tmp_path):
        spec = _parse_config(tmp_path, {**_CONFIG_BASE, "r": "10", "n": "2"})
        assert spec == parse_args(["solve", "--scenario", "symmetric-competitive",
                                   "--c", "0.5", "--r", "10", "--n", "2"])

    @pytest.mark.parametrize("cfg, flag", [
        ({"r": 10, "a1_bar": "x"}, "--a1-bar"),
        ({"r": 10, "n": 2.5}, "--n"),
        ({"r": True}, "--r"),
        ({"r": 10, "c": [0.5, "x"]}, "--c"),
        ({"r": 10, "format": "xml"}, "--format"),
    ])
    def test_malformed_values_are_usage_errors_naming_the_flag(self, tmp_path, cfg, flag):
        with pytest.raises(UsageError, match=rf"{re.escape(flag)}\b"):
            _parse_config(tmp_path, {**_CONFIG_BASE, **cfg})

    def test_numeric_out_names_a_file(self, tmp_path, monkeypatch, capsys):
        flags = ["solve", "--scenario", "symmetric-competitive", "--r", "10", "--c", "0.5"]
        _, expected, _ = _run(capsys, flags)
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(json.dumps({**_CONFIG_BASE, "r": 10, "out": 5}))
        assert _run(capsys, ["solve", "--config", "run.json"]) == (0, "", "")
        assert Path("5").read_text() == expected

    def test_zero_rate_reaches_the_positivity_check(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**_CONFIG_BASE, "r": 0}))
        code, out, err = _run(capsys, ["solve", "--config", str(path)])
        assert (code, out) == (2, "")
        assert "r must be positive" in err

    @pytest.mark.parametrize("value", ["-1,-2", [-1, -2]])
    def test_negative_disagreement_values(self, tmp_path, value):
        spec = _parse_config(tmp_path, {**_CONFIG_BASE, "r": 10, "disagreement": value})
        assert (spec.disagreement.kind, spec.disagreement.d1, spec.disagreement.d2) == (
            "custom", -1.0, -2.0)

    def test_switches_and_keys_naming_no_flag(self, tmp_path):
        cfg = {**_CONFIG_BASE, "r": 10, "fast": True, "n": None, "format": False}
        assert _parse_config(tmp_path, cfg) == parse_args(
            ["solve", "--scenario", "symmetric-competitive", "--c", "0.5", "--r", "10"])
        assert _parse_config(tmp_path, cfg, "verify").fast is True
        assert _parse_config(tmp_path, {"fast": False}, "verify").fast is False

    def test_sweep_keys_are_left_out_for_other_commands(self, tmp_path):
        cfg = {**_CONFIG_BASE, "r": 10, "plot": "x.svg", "sweep": "r:1:2:3"}
        assert _parse_config(tmp_path, cfg) == parse_args(
            ["solve", "--scenario", "symmetric-competitive", "--c", "0.5", "--r", "10"])

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}", b"[" * 100_000, b'{"r": ' + b"1" * 5000 + b"}",
    ], ids=["not-utf8", "too-deep", "too-long-an-integer"])
    def test_unreadable_json_is_a_usage_error(self, tmp_path, data):
        path = tmp_path / "run.json"
        path.write_bytes(data)
        with pytest.raises(UsageError, match="--config"):
            parse_args(["solve", "--config", str(path)])


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.sampled_from(["10", "0.5,1.0", "-1,-2", "zero", "competitive", "isp2", "csv", "json",
                     "r:1:2:3", "n:1:5:3", "c2:0.5:2:2", *cli._CALLS]))
_CONFIG_KEYS = st.sampled_from(["scenario", "r", "c", "n", "a1_bar", "a1-bar", "r2", "branch",
                                "disagreement", "sweep", "format", "plot", "out", "config",
                                "fast", "costs", "sweep_axis", "help", ""])


@pytest.mark.parametrize("command", ["solve", "sweep", "compare", "shapley", "nbs", "verify"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=st.dictionaries(_CONFIG_KEYS, st.one_of(
    _JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3)), max_size=8))
def test_any_config_parses_or_is_a_usage_error(tmp_path_factory, command, cfg):
    path = tmp_path_factory.getbasetemp() / "any-config.json"
    path.write_text(json.dumps(cfg))
    try:
        spec = parse_args([command, "--config", str(path)])
    except UsageError:
        return
    assert all(value is None or type(value) is float for value in (spec.r, spec.r2, spec.a1_bar))
    assert spec.n is None or type(spec.n) is int
    assert spec.costs is None or all(type(cost) is float for cost in spec.costs)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SOLVED = {kind.value for kind in ScenarioKind}
_REPORTED = {"compare-public-private", "compare-coop-comp", "n-scaling"}
# The scenario names each command takes.
_TAKES = {"solve": _SOLVED, "sweep": _SOLVED | _REPORTED, "compare": _REPORTED,
          "shapley": {"regulated-cooperative"}, "nbs": {"regulated-cooperative"},
          "verify": set()}


def _refuse_to_run(spec):
    pytest.fail("parsed an invocation that is a usage error")


@pytest.mark.parametrize("name", [*cli._CALLS, "no-such-scenario"])
@pytest.mark.parametrize("command", list(_TAKES))
def test_each_command_takes_exactly_its_scenarios(command, name, monkeypatch, capsys):
    argv = [command, "--scenario", name]
    if command != "verify":
        argv += ["--r", "10", "--c", "0.5,1.0"]
    if command == "sweep":
        argv += ["--sweep", "r:1:2:3"]
    if name in _TAKES[command]:
        assert parse_args(argv).scenario == name
        return
    # a usage error at parse time: run() is never reached
    monkeypatch.setattr(cli, "run", _refuse_to_run)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ")


def test_solve_rejects_the_comparison_reports(capsys):
    code, out, err = _run(capsys, ["solve", "--scenario", "compare-coop-comp",
                                   "--r", "10", "--c", "0.5,1.0"])
    assert (code, out) == (1, "")
    assert err == ("usage error: solve needs --scenario public-private, "
                   "public-private-regulated, symmetric-competitive, symmetric-cooperative, "
                   "asymmetric-competitive, regulated-competitive, regulated-cooperative, "
                   "fixed-public-effort-cooperative, multi-cp-competitive or "
                   "multi-cp-cooperative\n")


@pytest.mark.parametrize("flag", ["--plot=x.svg", "--sweep=r:1:2:3"])
@pytest.mark.parametrize("command", ["solve", "compare", "shapley", "nbs"])
def test_sweep_flags_are_usage_errors_for_other_commands(command, flag, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", _refuse_to_run)
    code, out, err = _run(capsys, [command, "--r", "10", "--c", "0.5,1.0", flag])
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {flag}" in err


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

    @pytest.mark.parametrize("argv, share, expected", [
        # r*e overflows: each of two ISPs gets 1/(2 W(2e))
        ("symmetric-competitive --r 1e308 --c 5e307 --n 2", "shares",
         lambda: 1 / (2 * mpmath.lambertw(2 * mpmath.e))),
        # e/c overflows: the joint share is 1/W(e/c)
        ("symmetric-cooperative --r 1 --c 1e-308", "joint_share",
         lambda: 1 / mpmath.lambertw(mpmath.e / mpmath.mpf("1e-308"))),
    ])
    def test_overflowing_w_argument_solves(self, capsys, argv, share, expected):
        code, out, err = _run(capsys, ["solve", "--scenario", *argv.split(),
                                       "--format", "json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        value = payload["contract"][share]
        value = value[0] if share == "shares" else value
        with mpmath.workdps(30):
            assert value == pytest.approx(float(expected().real), rel=1e-11)
        assert payload["degenerate"] is False

    def test_non_finite_figure_exits_two(self, capsys):
        # the regulated split puts the effort on the costly ISP, whose cost
        # times effort overflows
        code, out, err = _run(capsys, ["solve", "--scenario", "regulated-cooperative",
                                       "--r", "5.627606837921932e70", "--c",
                                       "4.2840227920486624e186,1.2558238068085856e-194"])
        assert (code, out) == (2, "")
        assert "non-finite utility of ISP 1" in err

    @pytest.mark.parametrize("scenario", ["regulated-competitive", "multi-cp-competitive"])
    def test_overflowed_total_effort_exits_two(self, capsys, scenario):
        code, out, err = _run(capsys, ["solve", "--scenario", scenario,
                                       "--r", "8.380031113062626e307", "--c",
                                       "5.3711634715813e-94,7.132631030071139e-274", "--r2", "1"])
        assert (code, out) == (2, "")
        assert "non-finite total_effort: inf" in err

    def test_usage_failure_exits_one(self, capsys):
        code, _, err = _run(capsys, ["solve", "--scenario", "public-private"])
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("scenario", ["fixed-public-effort-cooperative",
                                          "public-private-regulated"])
    def test_imposed_effort_above_a_tiny_budget_is_infeasible(self, capsys, scenario):
        # the effort budget is 4.3e-14; an absolute 1e-12 slack let 2.6e-13 through
        code, out, err = _run(capsys, ["solve", "--scenario", scenario, "--r",
                                       "1.5562722186625776e-173", "--c",
                                       "9.669194694088076e-196,1.5562722186624424e-173",
                                       "--a1-bar", "2.6e-13"])
        assert (code, out) == (2, "")
        assert "a1_bar=2.6e-13 exceeds the total effort budget 4.32987e-14" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = _run(capsys, ["solve", "--scenario", "public-private",
                                     "--r", "10", "--c", "1,0.5",
                                     "--format", "json", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["degenerate"] is False


# Sweeps whose --plot output, and stdout unless it is JSON, match goldens.
PLOT_EXAMPLES = [
    # the row shape changes with n, so the per-ISP columns are partly empty
    ("sweep --scenario symmetric-cooperative --r 10 --c 0.5 --sweep n:1:4:4",
     "sweep-symmetric-cooperative-n"),
    # the degenerate flag flips; JSON output, plotted from the flattened rows
    ("sweep --scenario regulated-cooperative --r 10 --c 0.5,1.0 --sweep r:0.25:3:12 "
     "--format json", "sweep-regulated-cooperative-r-json"),
    # the README's plot example: the nested bargain in every row
    ("sweep --scenario compare-coop-comp --r 10 --c 0.5,1.0 --sweep c2:0.5:4:8 --format csv",
     "sweep-compare-coop-comp-c2"),
]


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


    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_sweep_failing_at_a_later_point_prints_nothing(self, capsys, fmt):
        # points 1 to 4 solve; a1_bar = 4 at point 5 exceeds the budget
        code, out, err = _run(capsys, ["sweep", "--scenario", "fixed-public-effort-cooperative",
                                       "--r", "10", "--c", "0.5,1.0",
                                       "--sweep", "a1-bar:0:5:6", "--format", fmt])
        assert (code, out) == (2, "")
        assert err == ("error in sweep (fixed-public-effort-cooperative): a1_bar=4.0 "
                       "exceeds the total effort budget 3.13366\n")

    @pytest.mark.parametrize("argv, golden", PLOT_EXAMPLES)
    def test_sweep_plot_is_byte_identical(self, capsys, tmp_path, argv, golden):
        target = tmp_path / "sweep.svg"
        code, out, _ = _run(capsys, argv.split() + ["--plot", str(target)])
        assert code == 0
        assert target.read_text() == (GOLDEN / f"{golden}.svg").read_text()
        if "json" not in argv:
            assert out == (GOLDEN / f"{golden}.txt").read_text()


@pytest.mark.parametrize("flag", ["--out", "--plot"])
@pytest.mark.parametrize("target", ["missing/out.txt", "", None],
                         ids=["missing-dir", "directory", "empty"])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, flag, target):
    path = "" if target is None else str(tmp_path / target)
    code, out, err = _run(capsys, ["sweep", "--scenario", "symmetric-competitive", "--r", "10",
                                   "--c", "0.5", "--sweep", "n:1:4:4", "--format", "csv",
                                   flag, path])
    # a plot is written before the sweep prints, so a failed one prints nothing
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: {flag}: cannot write {path!r}: ")
    assert list(tmp_path.iterdir()) == []


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_SWEEP_AXES = ("r", "c", "c1", "c2", "n", "a1-bar", "r2")
_RATE = st.floats(math.log(0.05), math.log(50.0)).map(math.exp)


def _point_argv(argv, param, value):
    """The ``solve`` argv of the sweep point where ``param`` is ``value``."""
    argv = ["solve", *argv]
    flag = {"r": "--r", "r2": "--r2", "n": "--n", "a1-bar": "--a1-bar"}.get(param, "--c")
    if flag not in argv:
        argv += [flag, ""]
    i = argv.index(flag) + 1
    costs = argv[argv.index("--c") + 1].split(",")
    if param == "n":
        argv[i] = str(int(value))
    elif param == "c":
        argv[i] = ",".join([repr(value)] * len(costs))
    elif param in ("c1", "c2"):
        costs[int(param[1]) - 1] = repr(value)
        argv[i] = ",".join(costs)
    else:
        argv[i] = repr(value)
    return argv


@pytest.mark.parametrize("param", _SWEEP_AXES)
@pytest.mark.parametrize("kind", list(closed_form.SOLVERS))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(r=_RATE, c1=_RATE, c2=_RATE,
       cost_count=st.sampled_from([2, 2, 2, 1]), n=st.sampled_from([None, 1, 3]),
       a1_bar=st.sampled_from([0.0, 0.05, 0.5, 3.0]), r2=_RATE,
       start=_RATE, stop=_RATE, steps=st.integers(2, 4), start_at_base=st.booleans())
def test_every_sweep_row_is_the_solve_at_its_point(kind, param, r, c1, c2, cost_count, n,
                                                   a1_bar, r2, start, stop, steps,
                                                   start_at_base):
    scenario = kind.value
    if scenario.startswith("symmetric"):
        c2 = c1
    if start_at_base and param != "n":
        # the first point is the base market, so only later points move it
        start = {"r": r, "c": c1, "c1": c1, "c2": c2, "r2": r2, "a1-bar": a1_bar}[param]
    base = ["--scenario", scenario, "--r", repr(r),
            "--c", ",".join(map(repr, (c1, c2)[:cost_count])), "--a1-bar", repr(a1_bar)]
    if n is not None:
        base += ["--n", str(n)]
    if scenario.startswith("multi-cp"):
        base += ["--r2", repr(r2)]
    if param == "n":
        start, stop = 1.0 + start / 10.0, 1.0 + stop / 10.0
    code, out, err = _main(["sweep", *base, "--sweep", f"{param}:{start!r}:{stop!r}:{steps}",
                            "--format", "csv"])
    if param in ("c1", "c2") and cost_count == 1:
        assert (code, out, err) == (1, "", f"usage error: --sweep {param} needs two costs in --c\n")
        return
    step = (stop - start) / (steps - 1)
    values = [start + step * i for i in range(steps)]
    if param == "n":
        values = [float(max(1, round(v))) for v in values]
    solves = [_main(_point_argv(base, param, v) + ["--format", "csv"]) for v in values]
    failed = [solve for solve in solves if solve[0] != 0]
    if failed:
        # the sweep stops at its first failing point and prints nothing
        solve_code, _, solve_err = failed[0]
        assert (code, out) == (solve_code, "")
        assert err == solve_err.replace("error in solve ", "error in sweep ")
        return
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    assert len(lines) == steps
    for line, (_, solve_out, _) in zip(lines, solves):
        solve_header, solve_line = solve_out.splitlines()
        if solve_header == header:
            assert line == solve_line
        else:
            # a row shape the sweep's first point lacks: its own keys hold the
            # solve's values, the sweep's other columns are empty
            row = dict(zip(header.split(","), line.split(",")))
            assert [row.pop(key) for key in solve_header.split(",")] == solve_line.split(",")
            assert set(row.values()) <= {""}


class TestRenderer:
    PAYLOAD = {"neg_zero": -0.0, "yes": True, "no": False, "none": None, "third": 1 / 3,
               "floats": [5e-324, -2.5e300, math.inf], "nested": {"int": 7, "text": "x"}}
    HEADER = "neg_zero,yes,no,none,third,floats.1,floats.2,floats.3,nested.int,nested.text"
    LINE = "0,true,false,,0.333333333333,4.94065645841e-324,-2.5e+300,inf,7,x"
    TABLE = ("neg_zero     0\nyes          true\nno           false\nnone         \n"
             "third        0.333333333333\nfloats.1     4.94065645841e-324\n"
             "floats.2     -2.5e+300\nfloats.3     inf\nnested.int   7\nnested.text  x\n")

    def test_single_payload(self):
        assert cli._render(self.PAYLOAD, "csv") == f"{self.HEADER}\n{self.LINE}\n"
        assert cli._render(self.PAYLOAD, "table") == self.TABLE
        assert cli._render(self.PAYLOAD, "json") == (
            '{\n  "neg_zero": 0,\n  "yes": true,\n  "no": false,\n  "none": null,\n'
            '  "third": 0.333333333333,\n  "floats": [\n    4.94065645841e-324,\n'
            '    -2.5e+300,\n    inf\n  ],\n  "nested": {\n    "int": 7,\n    "text": "x"\n'
            '  }\n}\n')

    def test_sweep_rows(self):
        # the second row has another shape: a float where the first has None
        other = {**self.PAYLOAD, "none": -0.0, "yes": False}
        table = cli._flat_table([self.PAYLOAD, other, self.PAYLOAD])
        csv_lines = cli._render_table(table, "csv", sweep=True).splitlines()
        assert csv_lines == [self.HEADER, self.LINE,
                             self.LINE.replace("0,true,false,,", "0,false,false,0,"), self.LINE]
        table_text = cli._render_table(table, "table", sweep=True)
        assert table_text == "".join(
            f"# point {i}\n{text}" for i, text in enumerate(
                [self.TABLE, self.TABLE.replace("true", "false").replace(
                    "none         \n", "none         0\n"), self.TABLE], start=1))

    def test_rows_nested_differently_keep_their_keys(self):
        # same keys, leaf count and leaf types, but the list moves
        table = cli._flat_table([{"a": [1.0, 2.0], "b": 3.0}, {"a": 4.0, "b": [5.0, 6.0]}])
        assert cli._render_table(table, "csv", sweep=True) == (
            "a.1,a.2,b,a,b.1,b.2\n1,2,3,,,\n,,,4,5,6\n")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=4))
    def test_floats_print_as_fmt_prints_them(self, values):
        expected = ",".join(map(cli._fmt, values))
        assert cli._render({"v": values}, "csv").splitlines()[1] == expected
        table = cli._flat_table([{"v": values}, {"v": values}])
        assert cli._render_table(table, "csv", sweep=True).splitlines()[1:] == [expected] * 2


class TestVerifyCommand:
    def test_fast_battery_trims_sample_counts(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--fast"])
        assert code == 0
        assert sum(line.startswith("PASS ") for line in out.splitlines()) == 13
        assert "2000 samples" in out
        assert "20 draws" in out


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

    def test_overflowing_effort_window_is_a_named_error(self, capsys):
        code, out, err = _run(capsys, ["compare", "--scenario", "compare-coop-comp",
                                       "--r", "1e160", "--c", "1e-150,1"])
        assert (code, out) == (2, "")
        assert "beta*r / min(c) overflows" in err

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

    def test_one_regulated_cooperative_solve(self, capsys, monkeypatch):
        real, calls = closed_form.solve_regulated_cooperative, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (closed_form, bargaining):
            monkeypatch.setattr(module, "solve_regulated_cooperative", counted)
        assert _run(capsys, ["shapley", "--r", "10", "--c", "0.5,1.0"])[0] == 0
        assert calls == [(10.0, 0.5, 1.0, Branch.ISP1)]


@pytest.mark.parametrize("command", ["nbs", "shapley"])
def test_bargain_commands_reject_other_scenarios(capsys, command):
    # both commands always solve the regulated cooperative market
    code, out, err = _run(capsys, [command, "--scenario", "public-private", "--r", "10",
                                   "--c", "0.5,1.0", "--disagreement", "zero"])
    assert (code, out) == (1, "")
    assert "needs --scenario regulated-cooperative" in err


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

    def test_huge_rate_prints_finite_figures(self, capsys):
        # total effort near 4e197, whose square overflowed in the residual
        code, out, err = _run(capsys, ["nbs", "--scenario", "regulated-cooperative",
                                       "--r", "1e200", "--c", "0.5,1",
                                       "--disagreement", "zero"])
        assert (code, err) == (0, "")
        values = {line.split()[-1] for line in out.splitlines()}
        assert "free_form_bargain.cp_utility" in out and not {"inf", "-inf", "nan"} & values

    def test_competitive_disagreement_split_is_infeasible_here(self, capsys):
        code, _, err = _run(capsys, ["nbs", "--scenario", "regulated-cooperative",
                                     "--r", "10", "--c", "0.5,1.0",
                                     "--disagreement", "competitive"])
        assert code == 2
        assert "surplus" in err


def _degenerate_probe_points():
    """(scenario, costs, r, r2) with r just below and above each of c1, c2
    and c1 + c2, for c1 < c2 and c1 > c2, and a few ulps above each (where
    a share of exactly one ties the CP's utility with the degenerate zero).
    Symmetric scenarios take c1 alone; two-CP scenarios also move r2 across
    the same costs."""
    for c1, c2 in ((0.5, 1.0), (1.0, 0.5)):
        rates = [k * f for k in (c1, c2, c1 + c2) for f in (0.999, 1.001, 1 + 1e-15)]
        for kind in ScenarioKind:
            costs = (c1,) if kind.value.startswith("symmetric") else (c1, c2)
            r2_values = rates if kind.value.startswith("multi-cp") else [None]
            for r in rates:
                for r2 in r2_values:
                    yield kind, costs, r, r2


@pytest.mark.parametrize("argv, code", [
    # equal means within a relative 1e-12, whatever the scale of the costs
    ("solve --scenario symmetric-competitive --r 10 --c 1e-300,2e-300", 1),
    ("solve --scenario symmetric-cooperative --r 10 --c 1e6,1.00000000001e6", 1),
    ("solve --scenario symmetric-competitive --r 10 --c 1e6,1.0000000000001e6", 0),
    ("solve --scenario symmetric-competitive --r 10 --c 0.5,inf", 1),
    ("compare --scenario n-scaling --r 10 --c 0.5,1.0", 1),
    ("compare --scenario n-scaling --r 10 --c 0.5,0.5", 0),
])
def test_one_cost_scenarios_need_costs_equal_to_a_relative_1e12(capsys, argv, code):
    got, out, err = _run(capsys, argv.split())
    if code:
        assert (got, out, err) == (
            1, "", "usage error: symmetric scenarios need a single cost (or equal costs)\n")
    else:
        assert (got, err) == (0, "")


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


# Each arity usage error of the CLI and the validate() note for the same market.
_ARITY_NOTES = {
    "needs --c c1,c2": "expects two ISP costs",
    "need a single cost (or equal costs)": "unequal costs",
    "need --r2": "without a second rate",
}


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_cli_arity_errors_match_validate_notes(kind):
    assert set(SCENARIOS) == set(closed_form.SOLVERS) == set(ScenarioKind)
    for costs in ((0.5,), (0.5, 1.0), (0.5, 0.5)):
        for r2 in (None, 4.0):
            argv = ["solve", "--scenario", kind.value, "--r", "10",
                    "--c", ",".join(map(repr, costs))]
            if r2 is not None:
                argv += ["--r2", repr(r2)]
            code, _, err = _main(argv)
            notes = validate(MarketParams(r=10.0, costs=costs, second_cp_rate=r2), kind).notes
            if code == 0:
                assert notes == (), argv
            else:
                assert code == 1, (argv, err)
                matching = [note for error, note in _ARITY_NOTES.items() if error in err]
                assert matching and any(matching[0] in note for note in notes), (argv, err, notes)
