"""revshare benchmark: closed-loop workloads driven through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-form-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One client on one thread sends the next op only after the previous one
returns. An op is one ``revshare.cli.main(argv)`` call (stdout captured in
memory) or one ``revshare.verify.scenario_gap_battery`` call; only its call
is timed, and its output is checked afterwards. Every timing is corrected
for the shared host's speed at the time (``hostspeed.py``). ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs half the ops untraced,
replays them traced and prints the per-layer metrics. The last stdout line is the JSON
result; a report (and, when traced, the spans) goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
VERIFY_REPEATS = 4
IMPORTTIME_REPEATS = 3
# Closes every traced run, so each layer (the nested bargain included)
# shows measured time on every workload rather than a constant zero.
TRACED_BARGAIN = workloads.Op("cli", ("nbs", "--scenario", "regulated-cooperative",
                                      "--r", "10", "--c", "0.5,1.0", "--disagreement",
                                      "zero", "--format", "csv"), 1)
IMPORT_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import revshare"


class Record:
    """One timed op: wall seconds, the failure (or None), the points it
    evaluated, its output size and the host-speed sample it follows."""

    __slots__ = ("seconds", "failure", "points", "bytes_out", "ref")

    def __init__(self, seconds, failure, points, bytes_out, ref=0):
        self.seconds, self.failure = seconds, failure
        self.points, self.bytes_out, self.ref = points, bytes_out, ref


def corrected(records: list[Record], host: hostspeed.HostSpeed) -> list[Record]:
    return [Record(host.corrected(r.seconds, r.ref), r.failure, r.points, r.bytes_out)
            for r in records]


def measure_setup(repeats: int, host: hostspeed.HostSpeed) -> list[Record]:
    """Wall time of fresh interpreters each running ``import revshare``."""
    records = []
    for _ in range(repeats):
        ref = host.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True, cwd=ROOT,
                       timeout=60)
        records.append(Record(time.perf_counter() - t0, None, 1, 0, ref))
    return records


def _importtime_cumulative(stderr: str, package: str) -> float:
    """Cumulative import seconds of ``package`` and its submodules at their
    outermost nesting level in ``-X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        module = name.strip()
        if module == package or module.startswith(package + "."):
            entries.append((depth, int(cumulative)))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


def measure_imports(repeats: int) -> dict[str, float]:
    samples = {"revshare": [], "scipy": [], "numpy": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                              check=True, cwd=ROOT, timeout=60,
                              capture_output=True, text=True)
        for package, values in samples.items():
            values.append(_importtime_cumulative(proc.stderr, package))
    return {f"import.{p}_s": statistics.median(v) for p, v in samples.items()}


def execute(op, tracer=None) -> Record:
    """Run one op (timed), then check its output (untimed).

    Garbage left by earlier ops and by the checker is collected first,
    untimed. Otherwise a full collection, up to 0.1 s on closed-form-sweep,
    lands on whichever op happens to cross the collector's threshold; a CLI
    user's fresh process starts with no such garbage. The op still pays for
    collecting its own."""
    from revshare import cli, verify

    gc.collect()
    if tracer is not None:
        tracer.op_id += 1
        tracer.active = True
        span = tracer.begin(0)
    if op.kind == "battery":
        t0 = time.perf_counter()
        try:
            gaps = verify.scenario_gap_battery(*op.args)
            failure = None
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            gaps, failure = None, f"crashed: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        out_bytes = 0
    else:
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(op.args))
            except Exception as exc:  # a crash is a failed op, not a benchmark error
                err.write(f"{type(exc).__name__}: {exc}\n")
            elapsed = time.perf_counter() - t0
        stdout = out.getvalue()
        out_bytes = len(stdout)
    if tracer is not None:
        tracer.finish(span)
        tracer.active = False
    if op.kind == "battery":
        failure = failure or check.check_battery(op.args, gaps)
    else:
        failure = check.check_cli(op.args, code, stdout, err.getvalue())
    if failure is not None:
        failure = f"{' '.join(map(str, op.args))[:240]} -> {failure}"
    return Record(elapsed, failure, op.points, out_bytes)


class Loop:
    """The closed loop: one op at a time, with ``side_ops`` run between ops
    at evenly spaced points of the timed total of ``seconds``. Spreading
    them out keeps one slow spell of the shared host from hitting all of
    them. Host-speed samples are taken between ops."""

    def __init__(self, seconds: float, host: hostspeed.HostSpeed, side_ops=(),
                 tracer=None):
        self.host = host
        self.side_ops = list(side_ops)
        self.due = [(k + 0.5) * seconds / len(self.side_ops)
                    for k in range(len(self.side_ops))]
        self.side: list[Record] = []
        self.timed = 0.0
        self.tracer = tracer

    def _execute(self, op) -> Record:
        ref = self.host.before_op()
        record = execute(op, self.tracer)
        record.ref = ref
        return record

    def run(self, op) -> Record:
        while len(self.side) < len(self.side_ops) and self.timed >= self.due[len(self.side)]:
            self.side.append(self._execute(self.side_ops[len(self.side)]))
        record = self._execute(op)
        self.timed += record.seconds
        return record

    def finish(self) -> list[Record]:
        """Run the side ops not yet due and take the closing host sample."""
        self.side += [self._execute(op) for op in self.side_ops[len(self.side):]]
        self.host.sample()
        return self.side


def run_rounds(workload: str, seed: int, seconds: float, loop: Loop):
    """Whole rounds of ops until their timed total reaches ``seconds``."""
    ops: list = []
    records: list[Record] = []
    for batch in workloads.rounds(workload, seed):
        records += [loop.run(op) for op in batch]
        ops += batch
        if loop.timed >= seconds:
            return ops, records


def warm_up(workload: str) -> None:
    """One small untimed op so lazy set-up inside the process is done."""
    if workload == "verify-battery":
        execute(workloads.Op("battery", (10.0, 0.5, 1.0, 2), 1))
    else:
        execute(workloads.Op("cli", ("solve", "--scenario", "symmetric-competitive",
                                     "--r", "10", "--c", "0.5", "--format", "csv"), 1))


def run_probe(workload: str, seed: int, tracer=None) -> dict[str, dict[str, int]]:
    """Run the known-defect inputs; tally per defect how many showed it."""
    tally: dict[str, dict[str, int]] = {}
    for op in workloads.defect_probe(workload, random.Random(f"probe:{seed}")):
        record = execute(op, tracer)
        counts = tally.setdefault(op.defect, {"ops": 0, "shown": 0})
        counts["ops"] += 1
        counts["shown"] += record.failure is not None
    return tally


def _percentile(records: list[Record], p: float) -> tuple[float, int, int]:
    """Nearest-rank percentile in ms of the ops that succeeded, their count
    and how many lie beyond it."""
    ms = sorted(r.seconds * 1e3 for r in records if r.failure is None)
    n = len(ms)
    rank = max(1, math.ceil(p / 100.0 * n))
    return (ms[rank - 1] if ms else 0.0), n, n - rank


def latency_summary(records: list[Record], tail_percentile: float) -> dict:
    p50, n, _ = _percentile(records, 50.0)
    tail, _, beyond = _percentile(records, tail_percentile)
    return {"samples": n, "p50_ms": p50, "tail_percentile": tail_percentile,
            "tail_ms": tail, "beyond_tail": beyond}


def throughput(records: list[Record]) -> tuple[float, float, float]:
    timed = sum(r.seconds for r in records)
    ok = [r for r in records if r.failure is None]
    return timed, len(ok) / timed, sum(r.points for r in ok) / timed


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(),
            "limits": "wall-clock time only; no hardware counters; shared machine"}


def _failures(records):
    return [r.failure for r in records if r.failure is not None]


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
              "environment": environment()}
    warm_up(workload)
    # what is alive now (modules, caches) is never garbage, so the collection
    # before each op need not walk it
    gc.freeze()
    verify_op = workloads.Op("cli", ("verify",), 1)
    host = hostspeed.HostSpeed()
    if not traced:
        setup_raw = measure_setup(SETUP_REPEATS, host)
        loop = Loop(seconds, host, [verify_op] * VERIFY_REPEATS)
        _, raw = run_rounds(workload, seed, seconds, loop)
        verify_raw = loop.finish()
        probe = run_probe(workload, seed)
        records = corrected(raw, host)
        setup = [r.seconds for r in corrected(setup_raw, host)]
        verify_samples = [r.seconds for r in corrected(verify_raw, host)]
        timed, ops_per_s, points_per_s = throughput(records)
        latency = latency_summary(records, workloads.TAIL_PERCENTILE[workload])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "points_per_s": (points_per_s, "1/s"),
            "op_p50_ms": (latency["p50_ms"], "ms"),
            "op_tail_ms": (latency["tail_ms"], "ms"),
            "verify_s": (statistics.median(verify_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {"setup_s": len(setup), "ops_per_s": len(records),
                   "points_per_s": len(records), "op_p50_ms": latency["samples"],
                   "op_tail_ms": latency["samples"], "verify_s": len(verify_samples),
                   "peak_rss_mb": 1}
        raw_timed, raw_ops_per_s, raw_points_per_s = throughput(raw)
        raw_latency = latency_summary(raw, workloads.TAIL_PERCENTILE[workload])
        report.update(timed_s=timed, latency=latency, samples=samples, probe=probe,
                      setup_samples=setup, verify_samples=verify_samples,
                      uncorrected={
                          "timed_s": raw_timed, "ops_per_s": raw_ops_per_s,
                          "points_per_s": raw_points_per_s, "latency": raw_latency,
                          "setup_samples": [r.seconds for r in setup_raw],
                          "verify_samples": [r.seconds for r in verify_raw]},
                      host_slowdowns=host.slowdowns(),
                      op_ms=[r.seconds * 1e3 for r in records])
        all_records = raw + verify_raw
    else:
        import spans

        imports = measure_imports(IMPORTTIME_REPEATS)
        # half the time untraced; then the same ops again, traced
        loop = Loop(seconds / 2, host)
        ops, plain = run_rounds(workload, seed, seconds / 2, loop)
        tracer = spans.Tracer()
        spans.install(tracer)
        loop.tracer = tracer
        traced_raw = [loop.run(op) for op in ops]
        loop.finish()
        closing = [execute(op, tracer) for op in (verify_op, TRACED_BARGAIN)]
        probe = run_probe(workload, seed, tracer)
        layers = spans.layer_metrics(tracer)
        layers.update(imports)
        layers["cli.bytes_out"] = float(sum(r.bytes_out for r in traced_raw))
        plain_rate = throughput(corrected(plain, host))[1]
        traced_rate = throughput(corrected(traced_raw, host))[1]
        layers["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
        metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
        report.update(untraced_ops_per_s=plain_rate, traced_ops_per_s=traced_rate,
                      probe=probe)
        all_records = plain + traced_raw + closing
    failures = _failures(all_records)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["failures"] = failures[:50]
    report["failed"] = len(failures)
    report["attempted"] = len(all_records)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    return report


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def print_result(report: dict) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} ({env['limits']})")
    samples = report.get("samples", {})
    for name, m in report["metrics"].items():
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{n}")
    if "latency" in report:
        latency = report["latency"]
        print(f"# op_tail_ms is p{latency['tail_percentile']:g}, "
              f"{latency['beyond_tail']} samples beyond it")
    for name, tally in report.get("probe", {}).items():
        print(f"# known defect {name}: shown by {tally['shown']}/{tally['ops']} probe ops")
    for failure in report["failures"][:10]:
        print(f"# failed op: {failure}")
    failed = report["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": report["attempted"],
                      "failed": failed, "metrics": report["metrics"]}))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    for workload in workloads.ROUNDS:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            summary[f"{workload}/trace{traced}"] = json.loads(proc.stdout.splitlines()[-1])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"summary-seed{seed}.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.ROUNDS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "revshare" / "__init__.py").is_file():
        print(f"error: no revshare sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
