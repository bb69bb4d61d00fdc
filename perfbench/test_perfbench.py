"""Tests of the benchmark's own output checker and input generator.

Run from the root of a checkout (pytest's ``testpaths`` leave them out of
the project's suite):

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from revshare import cli  # noqa: E402


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _retouch(csv_text, column, edit):
    header, *rows = csv_text.splitlines()
    keys = header.split(",")
    j = keys.index(column)
    edited = []
    for row in rows:
        cells = row.split(",")
        cells[j] = edit(cells[j])
        edited.append(",".join(cells))
    return "\n".join([header] + edited) + "\n"


ASYM = ("solve", "--scenario", "asymmetric-competitive", "--r", "10", "--c", "0.5,1.0",
        "--format", "csv")
SWEEP = ("sweep", "--scenario", "public-private", "--r", "10", "--c", "0.5,1.0",
         "--sweep", "r:0.25:20:40", "--format", "csv")
NBS = ("nbs", "--scenario", "regulated-cooperative", "--r", "10", "--c", "0.5,1.0",
       "--disagreement", "zero", "--format", "csv")


@pytest.fixture(scope="module")
def nbs_output():
    code, text = _run(NBS)
    assert code == 0
    return text


def test_correct_outputs_pass(nbs_output):
    for argv in (ASYM, SWEEP):
        code, text = _run(argv)
        assert check.check_cli(argv, code, text, "") is None
    assert check.check_cli(NBS, 0, nbs_output, "") is None


def test_wrong_w_value_fails():
    code, text = _run(ASYM)
    # share 1 enters no first-order condition, so only the 50-digit W
    # comparison can catch a nudge this small
    bad = _retouch(text, "contract.shares.1", lambda v: repr(float(v) * (1 + 1e-8)))
    reason = check.check_cli(ASYM, code, bad, "")
    assert reason is not None and "1/W" in reason


def test_flipped_degenerate_flag_fails():
    code, text = _run(SWEEP)
    bad = _retouch(text, "degenerate", lambda v: "false" if v == "true" else "true")
    assert check.check_cli(SWEEP, code, bad, "") is not None


def test_null_json_sweep_fails():
    argv = SWEEP[:-1] + ("json",)
    code, text = _run(argv)
    assert text.strip() == "null"  # the defect itself, still present
    assert check.check_cli(argv, code, text, "") is not None


def test_unconverged_bargain_fails(nbs_output):
    bad = _retouch(nbs_output, "free_form_bargain.converged", lambda v: "false")
    assert "converged=false" in check.check_cli(NBS, 0, bad, "")


def test_infeasible_bargain_is_an_outcome_and_other_errors_are_not():
    message = "error in nbs (regulated-cooperative): total surplus -0.8 cannot cover " \
              "the disagreement point 0\n"
    assert check.check_cli(NBS, 2, "", message) is None
    assert check.check_cli(NBS, 2, "", "error in nbs (-): math domain error\n") is not None


def test_battery_gaps_over_tolerance_fail():
    args = (10.0, 0.5, 1.0, 2)
    gaps = {f"s{i}": (1e-9, 1e-11) for i in range(8)}
    assert check.check_battery(args, gaps) is None
    assert check.check_battery(args, {**gaps, "s0": (2e-6, 0.0)}) is not None
    assert check.check_battery(args, {**gaps, "s0": (0.0, 2e-8)}) is not None


def test_host_speed_correction_divides_by_the_slowdown_around_an_op():
    host = hostspeed.HostSpeed()
    host.samples = [2 * hostspeed.REFERENCE_S, 4 * hostspeed.REFERENCE_S]
    assert host.corrected(0.3, 0) == pytest.approx(0.1)
    # the last op of a run has only the sample before it
    assert host.corrected(0.4, 1) == pytest.approx(0.1)


def _inputs(workload, seed, count=2):
    stream = workloads.rounds(workload, seed)
    ops = [op for _ in range(count) for op in next(stream)]
    ops += workloads.defect_probe(workload, random.Random(f"probe:{seed}"))
    return json.dumps([[op.kind, list(op.args), op.points, op.defect] for op in ops]).encode()


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_timed_rounds_hold_no_known_defect_inputs(workload):
    stream = workloads.rounds(workload, 3)
    for _ in range(2):
        assert all(op.defect == "" for op in next(stream))


def test_probes_cover_every_known_defect():
    shown = {op.defect for w in workloads.ROUNDS
             for op in workloads.defect_probe(w, random.Random("probe:3"))}
    assert shown == set(workloads.KNOWN_DEFECTS)
