"""Command-line surface: solve, sweep, compare, verify, shapley, nbs.

Output is deterministic: floats are printed at 12 significant digits in
every format, so JSON and CSV carry identical values and re-running a
command is byte-identical. Exit codes: 0 success, 1 usage error,
2 numerical or verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace

from . import closed_form, oracle
from .bargaining import (
    coalition_values,
    disagreement_point,
    nbs_split_closed,
    shapley_closed,
)
from .compare import compare_coop_comp, compare_public_private, n_scaling_report
from .model import (
    Branch,
    DegenerateRegimeError,
    DisagreementPolicy,
    EquilibriumOutcome,
    InfeasibleBargainError,
    InfeasibleEffortError,
    ScenarioKind,
    pin_cost,
)

__all__ = ["RunSpec", "SweepAxis", "UsageError", "parse_args", "run", "main"]

_SOLVE_SCENARIOS = tuple(kind.value for kind in closed_form.SOLVERS)
_COMPARE_SCENARIOS = ("compare-public-private", "compare-coop-comp", "n-scaling")
_SWEEP_PARAMS = ("r", "c", "c1", "c2", "n", "a1-bar", "r2")
# Size caps, checked while parsing so an oversized request allocates nothing:
# a sweep holds every row in memory, and n sets the length of every row.
MAX_SWEEP_STEPS = 100_000
MAX_N = 1_000


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SweepAxis:
    param: str
    start: float
    stop: float
    steps: int


@dataclass
class RunSpec:
    """A fully-resolved invocation; flags override config-file values."""

    command: str
    scenario: str | None = None
    r: float | None = None
    costs: tuple[float, ...] | None = None
    n: int | None = None
    a1_bar: float = 0.0
    r2: float | None = None
    branch: Branch | None = None
    disagreement: DisagreementPolicy = field(
        default_factory=DisagreementPolicy.regulated_competitive)
    sweep_axis: SweepAxis | None = None
    output_format: str = "table"
    plot: str | None = None
    out: str | None = None
    fast: bool = False


# --------------------------------------------------------------------------
# parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_costs(text: str) -> tuple[float, ...]:
    try:
        costs = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise UsageError(f"--c expects comma-separated numbers, got {text!r}") from None
    if not costs:
        raise UsageError("--c expects at least one cost")
    return costs


def _parse_disagreement(text: str) -> DisagreementPolicy:
    if text == "zero":
        return DisagreementPolicy.zero()
    if text == "competitive":
        return DisagreementPolicy.regulated_competitive()
    parts = text.split(",")
    if len(parts) == 2:
        try:
            return DisagreementPolicy.custom(float(parts[0]), float(parts[1]))
        except ValueError:
            pass
    raise UsageError(f"--disagreement expects zero, competitive, or d1,d2; got {text!r}")


def _parse_sweep(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"--sweep expects param:from:to:steps, got {text!r}")
    param = parts[0]
    if param not in _SWEEP_PARAMS:
        raise UsageError(f"--sweep parameter must be one of {_SWEEP_PARAMS}, got {param!r}")
    try:
        start, stop, steps = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise UsageError(f"--sweep bounds/steps malformed in {text!r}") from None
    if steps < 2:
        raise UsageError("--sweep needs at least 2 steps")
    if steps > MAX_SWEEP_STEPS:
        raise UsageError(f"--sweep allows at most {MAX_SWEEP_STEPS} steps, got {steps}")
    if param == "n" and not (start <= MAX_N and stop <= MAX_N):
        raise UsageError(f"--sweep n allows at most n={MAX_N}, got {text!r}")
    return SweepAxis(param=param, start=start, stop=stop, steps=steps)


def _parse_branch(text: str) -> Branch:
    try:
        return Branch(text)
    except ValueError:
        raise UsageError(f"--branch must be isp1 or isp2, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="revshare", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in ("solve", "sweep", "compare", "shapley", "nbs"):
        p = sub.add_parser(name)
        p.add_argument("--scenario")
        p.add_argument("--r", type=float)
        p.add_argument("--c")
        p.add_argument("--n", type=int)
        p.add_argument("--a1-bar", dest="a1_bar", type=float)
        p.add_argument("--r2", type=float)
        p.add_argument("--branch")
        p.add_argument("--disagreement")
        p.add_argument("--sweep")
        p.add_argument("--format", dest="output_format",
                       choices=("table", "csv", "json"))
        p.add_argument("--plot")
        p.add_argument("--config")
        p.add_argument("--out")
    v = sub.add_parser("verify")
    v.add_argument("--fast", action="store_true")
    v.add_argument("--config")
    v.add_argument("--out")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config: {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"--config: {path!r} must hold a JSON object")
    return cfg


def parse_args(argv: list[str]) -> RunSpec:
    """Parse argv (deterministically) into a RunSpec.

    A --config JSON file supplies defaults for any field not given as a
    flag; flags always win. Raises UsageError with the offending flag named
    on any malformed value.
    """
    ns = _build_parser().parse_args(argv)
    if ns.command is None:
        raise UsageError("a command is required: solve, sweep, compare, verify, shapley, nbs")
    cfg = _load_config(ns.config) if getattr(ns, "config", None) else {}

    def pick(flag, key, fallback=None):
        return flag if flag is not None else cfg.get(key, fallback)

    spec = RunSpec(command=ns.command)
    if ns.command == "verify":
        spec.fast = bool(ns.fast or cfg.get("fast", False))
        spec.out = pick(ns.out, "out")
        return spec

    spec.scenario = pick(ns.scenario, "scenario")
    spec.r = pick(ns.r, "r")
    raw_costs = pick(ns.c, "c")
    if raw_costs is not None:
        if isinstance(raw_costs, (int, float)):
            spec.costs = (float(raw_costs),)
        elif isinstance(raw_costs, (list, tuple)):
            spec.costs = tuple(float(x) for x in raw_costs)
        else:
            spec.costs = _parse_costs(str(raw_costs))
    spec.n = pick(ns.n, "n")
    if spec.n is not None and spec.n > MAX_N:
        raise UsageError(f"--n allows at most {MAX_N}, got {spec.n}")
    spec.a1_bar = float(pick(ns.a1_bar, "a1_bar", 0.0))
    spec.r2 = pick(ns.r2, "r2")
    branch = pick(ns.branch, "branch")
    if branch is not None:
        spec.branch = _parse_branch(str(branch))
    disagreement = pick(ns.disagreement, "disagreement")
    if disagreement is not None:
        spec.disagreement = _parse_disagreement(str(disagreement))
    sweep = pick(ns.sweep, "sweep")
    if sweep is not None:
        spec.sweep_axis = _parse_sweep(str(sweep))
    spec.output_format = pick(ns.output_format, "format", "table")
    if spec.output_format not in ("table", "csv", "json"):
        raise UsageError(f"--format must be table, csv or json, got {spec.output_format!r}")
    spec.plot = pick(ns.plot, "plot")
    spec.out = pick(ns.out, "out")

    if spec.scenario is None:
        raise UsageError("--scenario is required")
    known = _SOLVE_SCENARIOS + _COMPARE_SCENARIOS
    if spec.scenario not in known:
        raise UsageError(f"--scenario must be one of {', '.join(known)}")
    if spec.sweep_axis is not None and spec.command != "sweep":
        raise UsageError("--sweep is only valid with the sweep command")
    if spec.command == "sweep" and spec.sweep_axis is None:
        raise UsageError("sweep requires --sweep param:from:to:steps")
    if spec.plot is not None and spec.command != "sweep":
        raise UsageError("--plot is only valid with the sweep command")
    if spec.r is None:
        raise UsageError("--r is required")
    if spec.costs is None:
        raise UsageError("--c is required")
    return spec


# --------------------------------------------------------------------------
# deterministic rendering

def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # normalize -0.0
        return format(value, ".12g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _json_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_text(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, (bool, int, float)):
        return _fmt(value)
    return json.dumps(str(value))


def _flatten(value, prefix: str = "", into: list | None = None) -> list[tuple[str, object]]:
    """(dotted key, leaf) pairs of a nested dict; list items count from 1."""
    rows = [] if into is None else into
    for k, v in value.items() if isinstance(value, dict) else enumerate(value, start=1):
        key = f"{prefix}.{k}" if prefix else str(k)
        if isinstance(v, (dict, list, tuple)):
            _flatten(v, key, rows)
        else:
            rows.append((key, v))
    return rows


def _flat_table(rows: list[dict]) -> tuple[tuple, list[tuple[tuple, tuple]]]:
    """Flatten each row once into (keys, values), rows of one shape sharing a key
    tuple; the header is the union of row keys in first-appearance order."""
    shapes: dict[tuple, tuple] = {}
    flats = []
    for row in rows:
        keys, values = zip(*_flatten(row))
        flats.append((shapes.setdefault(keys, keys), values))
    return tuple(dict.fromkeys(key for keys in shapes for key in keys)), flats


def _aligned(header: tuple, keys: tuple, values: tuple) -> tuple:
    """A flattened row's values in header order, None where it lacks a key."""
    return values if keys == header else tuple(map(dict(zip(keys, values)).get, header))


def _render(payload, fmt: str, table: tuple | None = None) -> str:
    """Render one payload, or a sweep's list of payloads, in the requested
    format. ``table`` is the sweep's ``_flat_table`` when the caller has it."""
    if fmt == "json":
        return _json_text(payload) + "\n"
    sweep = isinstance(payload, list)
    header, flats = table or _flat_table(payload if sweep else [payload])
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(map(_fmt, _aligned(header, *flat))) for flat in flats)
        return "\n".join(lines) + "\n"
    width = max(len(key) for key in header)
    chunks = []
    for i, (keys, values) in enumerate(flats, start=1):
        if sweep:
            chunks.append(f"# point {i}\n")
        chunks.extend(f"{key.ljust(width)}  {_fmt(v)}\n" for key, v in zip(keys, values))
    return "".join(chunks)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#e377c2", "#17becf")


def _write_svg(path: str, x_label: str, xs: list[float],
               series: dict[str, list[float]]) -> None:
    """Minimal SVG line chart: one polyline per metric, linear axes."""
    width, height = 760, 480
    left, right, top, bottom = 80, 20, 30, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    finite = [v for vs in series.values() for v in vs
              if isinstance(v, (int, float)) and abs(v) < 1e300]
    y_lo = min(finite) if finite else 0.0
    y_hi = max(finite) if finite else 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left}" y="{height - 12}" font-size="12">{_fmt(float(x_lo))}</text>',
        f'<text x="{left + plot_w - 40}" y="{height - 12}" font-size="12">'
        f'{_fmt(float(x_hi))}</text>',
        f'<text x="{left + plot_w // 2}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="8" y="{top + plot_h}" font-size="12">{_fmt(float(y_lo))}</text>',
        f'<text x="8" y="{top + 10}" font-size="12">{_fmt(float(y_hi))}</text>',
    ]
    for idx, (name, ys) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
            if isinstance(y, (int, float)) and abs(y) < 1e300
        )
        parts.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        parts.append(
            f'<text x="{left + 8}" y="{top + 14 + 14 * idx}" font-size="12" '
            f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# --------------------------------------------------------------------------
# payload builders

def _outcome_body(outcome: EquilibriumOutcome) -> dict:
    body = {
        "contract": {
            "shares": list(outcome.contract.shares),
            "joint_share": outcome.contract.joint_share,
            "total_share": outcome.contract.total_share,
        },
        "efforts": list(outcome.efforts.efforts),
        "demand": outcome.demand,
        "utilities": {"cp": outcome.cp_utility, "isps": list(outcome.isp_utilities)},
        "residuals": {"foc": outcome.foc_residual},
        "degenerate": outcome.degenerate,
    }
    if outcome.matches_competitive_total is not None:
        body["residuals"]["matches_competitive_total"] = outcome.matches_competitive_total
    return body


def _params_payload(spec: RunSpec) -> dict:
    return {
        "r": spec.r,
        "costs": list(spec.costs),
        "n": spec.n,
        "a1_bar": spec.a1_bar,
        "r2": spec.r2,
        "branch": spec.branch.value if spec.branch else None,
        "disagreement": spec.disagreement.kind,
    }


def _symmetric_args(spec: RunSpec) -> tuple[float, int]:
    costs = spec.costs
    c = costs[0]
    if any(abs(ci - c) > 1e-12 for ci in costs):
        raise UsageError("symmetric scenarios need a single cost (or equal costs)")
    n = spec.n if spec.n is not None else len(costs)
    if n < 1:
        raise UsageError("--n must be at least 1")
    return c, n


def _two_costs(spec: RunSpec) -> tuple[float, float]:
    if len(spec.costs) == 1:
        raise UsageError(f"scenario {spec.scenario!r} needs --c c1,c2")
    if len(spec.costs) != 2:
        raise UsageError(f"scenario {spec.scenario!r} supports exactly two ISPs")
    return spec.costs[0], spec.costs[1]


def _payload_for(spec: RunSpec) -> dict:
    if spec.scenario in _COMPARE_SCENARIOS:
        return _report_payload(spec)
    kind = ScenarioKind(spec.scenario)
    params = _params_payload(spec)
    if kind in (ScenarioKind.SYMMETRIC_COMPETITIVE, ScenarioKind.SYMMETRIC_COOPERATIVE):
        c1, n = _symmetric_args(spec)
        c2 = c1
        params["n"] = n
    else:
        (c1, c2), n = _two_costs(spec), spec.n
        if spec.r2 is None and kind in (ScenarioKind.MULTI_CP_COMPETITIVE,
                                        ScenarioKind.MULTI_CP_COOPERATIVE):
            raise UsageError("two-CP scenarios need --r2")
    branch, solved = closed_form.SOLVERS[kind](
        r=spec.r, c1=c1, c2=c2, n=n, a1_bar=spec.a1_bar, r2=spec.r2, branch=spec.branch)
    params["branch"] = branch.value if branch else None
    if isinstance(solved, list):
        return {"scenario": spec.scenario, "params": params,
                "per_cp": [_outcome_body(o) for o in solved]}
    return {"scenario": spec.scenario, "params": params, **_outcome_body(solved)}


def _report_payload(spec: RunSpec) -> dict:
    scenario = spec.scenario
    params = _params_payload(spec)
    if scenario == "compare-public-private":
        c1, c2 = _two_costs(spec)
        report = compare_public_private(spec.r, c1, c2)
    elif scenario == "compare-coop-comp":
        c1, c2 = _two_costs(spec)
        report = compare_coop_comp(spec.r, c1, c2, spec.disagreement)
    else:
        c = spec.costs[0]
        n_max = spec.n if spec.n is not None else 10
        report = n_scaling_report(spec.r, c, list(range(1, n_max + 1)))
        params["n"] = n_max
    return {
        "comparison": scenario,
        "params": params,
        "metrics": {label: dict(report.metrics[label]) for label in report.scenarios},
        "orderings": [
            {"metric": o.metric, "relation": o.relation, "holds": o.holds}
            for o in report.orderings
        ],
        "all_hold": report.all_hold,
    }


def _sweep_values(axis: SweepAxis) -> list[float]:
    step = (axis.stop - axis.start) / (axis.steps - 1)
    values = [axis.start + step * i for i in range(axis.steps)]
    if axis.param == "n":
        values = [float(max(1, round(v))) for v in values]
    return values


def _spec_with(spec: RunSpec, param: str, value: float) -> RunSpec:
    if param == "r":
        return replace(spec, r=value)
    if param == "r2":
        return replace(spec, r2=value)
    if param == "n":
        return replace(spec, n=int(value))
    if param == "a1-bar":
        return replace(spec, a1_bar=value)
    if param == "c":
        return replace(spec, costs=tuple(value for _ in spec.costs))
    if param == "c1":
        if len(spec.costs) < 2:
            raise UsageError("--sweep c1 needs two costs in --c")
        return replace(spec, costs=(value,) + spec.costs[1:])
    if param == "c2":
        if len(spec.costs) < 2:
            raise UsageError("--sweep c2 needs two costs in --c")
        return replace(spec, costs=spec.costs[:1] + (value,) + spec.costs[2:])
    raise UsageError(f"unknown sweep parameter {param!r}")


# --------------------------------------------------------------------------
# commands

def _emit(spec: RunSpec, text: str) -> None:
    if spec.out:
        with open(spec.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_solve(spec: RunSpec) -> int:
    _emit(spec, _render(_payload_for(spec), spec.output_format))
    return 0


def _run_sweep(spec: RunSpec) -> int:
    axis = spec.sweep_axis
    values = _sweep_values(axis)
    rows = [_payload_for(_spec_with(spec, axis.param, value)) for value in values]
    table = _flat_table(rows) if spec.plot or spec.output_format != "json" else None
    _emit(spec, _render(rows, spec.output_format, table))
    if spec.plot:
        header, flats = table
        columns = zip(*(_aligned(header, *flat) for flat in flats))
        series = {key: [float(v) for v in column] for key, column in zip(header, columns)
                  if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in column)}
        _write_svg(spec.plot, axis.param, values, series)
    return 0


def _run_verify(spec: RunSpec) -> int:
    # The only command that loads numpy (the seeded batteries), so imported here.
    from . import verify

    results = verify.run_checks(fast=spec.fast)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{status}  {result.name}: {result.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{'OK' if ok else 'FAILED'}  {sum(r.passed for r in results)}"
                 f"/{len(results)} checks passed")
    _emit(spec, "\n".join(lines) + "\n")
    return 0 if ok else 2


def _run_shapley(spec: RunSpec) -> int:
    c1, c2 = _two_costs(spec)
    branch = spec.branch or Branch.ISP1
    report = shapley_closed(spec.r, c1, c2, branch)
    values = coalition_values(spec.r, c1, c2, branch)
    payload = {
        "params": {"r": spec.r, "costs": [c1, c2], "branch": branch.value},
        "coalition_values": {
            "isp1": values[frozenset({1})],
            "isp2": values[frozenset({2})],
            "both": values[frozenset({1, 2})],
        },
        "shapley": {
            "phi1": report.phi1,
            "phi2": report.phi2,
            "closed_phi1": report.closed_phi1,
            "closed_phi2": report.closed_phi2,
            "matches_brute": report.matches_brute,
            "discrepancy": report.discrepancy,
        },
    }
    _emit(spec, _render(payload, spec.output_format))
    return 0


def _run_nbs(spec: RunSpec) -> int:
    c1, c2 = _two_costs(spec)
    kind = ScenarioKind.REGULATED_COOPERATIVE
    branch, outcome = closed_form.SOLVERS[kind](r=spec.r, c1=c1, c2=c2, branch=spec.branch)
    if outcome.degenerate:
        raise DegenerateRegimeError("regulated cooperative solve is degenerate")
    d1, d2 = disagreement_point(spec.disagreement, spec.r, c1, c2)
    a1, a2 = outcome.efforts.efforts
    payload = {
        "params": {"r": spec.r, "costs": [c1, c2], "branch": branch.value,
                   "disagreement": spec.disagreement.kind},
        "disagreement_point": [d1, d2],
        "stage1": {
            "joint_share": outcome.contract.joint_share,
            "efforts": [a1, a2],
            "total_effort": outcome.total_effort,
        },
    }
    split = nbs_split_closed(outcome.contract.joint_share, a1, a2, d1, d2,
                             spec.r, c1, c2, pin_cost(kind, (c1, c2), branch))
    payload["split"] = {
        "beta1": split.beta1,
        "beta2": split.beta2,
        "clamped": split.clamped,
    }
    nested_outcome, bargain = oracle.solve_asymmetric_cooperative(
        spec.r, c1, c2, disagreement=spec.disagreement)
    payload["free_form_bargain"] = {
        "joint_share": nested_outcome.contract.joint_share,
        "efforts": list(bargain.efforts.efforts),
        "share_split": list(bargain.share_split),
        "surpluses": list(bargain.surpluses),
        "cp_utility": nested_outcome.cp_utility,
        "converged": bargain.converged,
        "multistart_agreement": bargain.multistart_agreement,
    }
    _emit(spec, _render(payload, spec.output_format))
    return 0


def run(spec: RunSpec) -> int:
    """Execute a RunSpec; returns the process exit status."""
    if spec.command == "solve":
        return _run_solve(spec)
    if spec.command == "sweep":
        return _run_sweep(spec)
    if spec.command == "compare":
        if spec.scenario not in _COMPARE_SCENARIOS:
            raise UsageError(
                f"compare needs a comparison scenario: {', '.join(_COMPARE_SCENARIOS)}")
        return _run_solve(spec)
    if spec.command == "verify":
        return _run_verify(spec)
    if spec.command == "shapley":
        return _run_shapley(spec)
    if spec.command == "nbs":
        return _run_nbs(spec)
    raise UsageError(f"unknown command {spec.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        spec = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleBargainError, InfeasibleEffortError, DegenerateRegimeError,
            ValueError, ArithmeticError) as exc:
        print(f"error in {spec.command} ({spec.scenario or '-'}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
