"""Command-line surface: solve, sweep, compare, verify, shapley, nbs.

Output is deterministic: floats are printed at 12 significant digits in
every format, so JSON and CSV carry identical values and re-running a
command is byte-identical. Exit codes: 0 success, 1 usage error,
2 numerical or verification failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, NamedTuple

from . import closed_form, oracle
from .bargaining import disagreement_point, nbs_split_closed, shapley_closed
from .compare import compare_coop_comp, compare_public_private, n_scaling_report
from .model import (
    Branch,
    DegenerateRegimeError,
    DisagreementPolicy,
    EquilibriumOutcome,
    InfeasibleBargainError,
    InfeasibleEffortError,
    SCENARIOS,
    Scenario,
    ScenarioKind,
    equal_costs,
)

__all__ = ["RunSpec", "SweepAxis", "UsageError", "parse_args", "run", "main"]

# Each comparison scenario's report call and the scenario whose arity it
# takes; the call takes the keywords SOLVERS entries take (n-scaling reads
# its cost from c1 and its largest n from n).
_REPORTS = {
    "compare-public-private": (ScenarioKind.PUBLIC_PRIVATE, lambda r, c1, c2, **_:
                               compare_public_private(r, c1, c2)),
    "compare-coop-comp": (ScenarioKind.REGULATED_COOPERATIVE, lambda r, c1, c2, disagreement, **_:
                          compare_coop_comp(r, c1, c2, disagreement)),
    "n-scaling": (ScenarioKind.SYMMETRIC_COMPETITIVE, lambda r, c1, n, **_:
                  n_scaling_report(r, c1, list(range(1, n + 1)))),
}
# Each scenario name's record and its solve or report call.
_CALLS = {**{kind.value: (SCENARIOS[kind], call) for kind, call in closed_form.SOLVERS.items()},
          **{name: (SCENARIOS[kind], call) for name, (kind, call) in _REPORTS.items()}}
# Each --sweep parameter and the RunSpec field, solver keyword and params key it
# sets; the cost axes set the cost tuple, from which the c1 and c2 keywords follow.
_SWEPT_FIELDS = {"r": "r", "c": "costs", "c1": "costs", "c2": "costs", "n": "n",
                 "a1-bar": "a1_bar", "r2": "r2"}
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
    if param not in _SWEPT_FIELDS:
        raise UsageError(f"--sweep parameter must be one of {tuple(_SWEPT_FIELDS)}, got {param!r}")
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
    if not math.isfinite(stop - start):
        raise UsageError(f"--sweep bounds and their span must be finite, got {text!r}")
    return SweepAxis(param=param, start=start, stop=stop, steps=steps)


def _parse_branch(text: str) -> Branch:
    try:
        return Branch(text)
    except ValueError:
        raise UsageError(f"--branch must be isp1 or isp2, got {text!r}") from None


# The flags of every command that solves a market, and their add_argument keywords;
# a flag's dest is the RunSpec field it sets. No flag has a default, so RunSpec's are
# the only ones. Each command's flags are in its _COMMANDS row (under "commands").
_MARKET_FLAGS = {
    "--scenario": {}, "--r": {"type": float}, "--c": {"dest": "costs", "type": _parse_costs},
    "--n": {"type": int}, "--a1-bar": {"type": float}, "--r2": {"type": float},
    "--branch": {"type": _parse_branch}, "--disagreement": {"type": _parse_disagreement},
    "--format": {"dest": "output_format", "choices": ("table", "csv", "json")},
    "--config": {}, "--out": {},
}


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parsing leaves no state on the parser, and
    # building it costs more than a whole single-point solve
    parser = _Parser(prog="revshare", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, keywords in command.flags.items():
            p.add_argument(flag, **keywords)
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # or undecodable, too deeply nested, too long
        raise UsageError(f"--config: {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"--config: {path!r} must hold a JSON object")
    return cfg


def _config_argv(command: str, cfg: dict) -> list[str]:
    """A config object as the command's flags: key a1_bar is --a1-bar, a list its comma-joined
    items, true a bare switch; null, false and keys naming no flag of the command are left out."""
    flags = _COMMANDS[command].flags
    argv = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags or value is None or value is False:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        # one token, so a value such as -1,-2 is not read as a flag
        argv.append(flag if value is True else f"{flag}={value}")
    return argv


def parse_args(argv: list[str]) -> RunSpec:
    """Parse argv (deterministically) into a RunSpec.

    A --config JSON file's values are parsed as flags placed before the
    command line's own, so the flags given win. The scenario must be one the
    command's row names; a row that names one supplies it. Raises UsageError
    with the offending flag named on any malformed value.
    """
    ns = _build_parser().parse_args(argv)
    if ns.command is None:
        raise UsageError("a command is required: solve, sweep, compare, verify, shapley, nbs")
    if ns.config is not None:
        tokens = _config_argv(ns.command, _load_config(ns.config))
        ns = _build_parser().parse_args([ns.command, *tokens, *argv[1:]])
    spec = RunSpec(**{k: v for k, v in vars(ns).items() if v is not None and k != "config"})
    scenarios = _COMMANDS[spec.command].scenarios
    if not scenarios:  # verify solves no market
        return spec
    if spec.n is not None and spec.n > MAX_N:
        raise UsageError(f"--n allows at most {MAX_N}, got {spec.n}")
    if spec.scenario is None and len(scenarios) == 1:
        spec.scenario = scenarios[0]
    if spec.scenario not in scenarios:
        *others, last = scenarios
        names = f"{', '.join(others)} or {last}" if others else last
        raise UsageError(f"{spec.command} needs --scenario {names}")
    if spec.command == "sweep" and spec.sweep_axis is None:
        raise UsageError("sweep requires --sweep param:from:to:steps")
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


def _leaves(value, values: list, shape: list) -> None:
    """Append a nested payload's leaves to ``values`` in ``_flatten`` order,
    as a ``%`` template prints them: floats with -0.0 as 0.0, bools as
    true/false and None as an empty field. ``shape`` gets each container's
    keys (or length) and the leaf count where it ends, which together fix
    every leaf's dotted key."""
    if isinstance(value, dict):
        shape.append(tuple(value))
        value = value.values()
    else:
        shape.append(len(value))
    for v in value:
        kind = type(v)
        if kind is float:
            values.append(v + 0.0)
        elif kind is bool:
            values.append("true" if v else "false")
        elif v is None:
            values.append("")
        elif isinstance(v, (dict, list, tuple)):
            _leaves(v, values, shape)
        else:
            values.append(v)
    shape.append(len(values))


def _flat_table(payloads) -> tuple[tuple, list[tuple[tuple, tuple]], list[tuple[int, tuple]]]:
    """Flatten each payload once into (shape number, leaf values).

    A payload's shape is its containers' keys and lengths plus the types of
    its leaves, and each shape's dotted keys are worked out once, from its
    first payload. Returns the header (the union of row keys in
    first-appearance order), each shape's (keys, leaf types) and the rows.
    """
    numbers: dict[tuple, int] = {}
    shapes = []
    rows = []
    for payload in payloads:
        values, shape = [], []
        _leaves(payload, values, shape)
        values = tuple(values)
        key = (tuple(shape), tuple(map(type, values)))
        number = numbers.get(key)
        if number is None:
            number = numbers[key] = len(shapes)
            shapes.append((tuple(k for k, _ in _flatten(payload)), key[1]))
        rows.append((number, values))
    header = tuple(dict.fromkeys(k for keys, _ in shapes for k in keys))
    return header, shapes, rows


def _aligned(header: tuple, keys: tuple, values: tuple) -> tuple:
    """A flattened row's values in header order, None where it lacks a key."""
    return values if keys == header else tuple(map(dict(zip(keys, values)).get, header))


def _placeholder(leaf_type: type) -> str:
    return "%.12g" if leaf_type is float else "%s"


def _csv_template(header: tuple, keys: tuple, types: tuple):
    """A shape's csv line as a ``%`` template over its values, and the
    itemgetter that puts them in header order (None if they already are).
    A header key the shape lacks is an empty field."""
    index = {key: i for i, key in enumerate(keys)}
    fields = [_placeholder(types[index[key]]) if key in index else "" for key in header]
    order = [index[key] for key in header if key in index]
    return ",".join(fields) + "\n", (None if order == list(range(len(keys)))
                                     else itemgetter(*order))


def _render_table(table, fmt: str, sweep: bool) -> str:
    """Render a ``_flat_table`` as csv, or as a key/value table with a
    ``# point i`` line before each sweep point. Each shape's line template
    is built once."""
    header, shapes, rows = table
    if fmt == "csv":
        templates = [_csv_template(header, *shape) for shape in shapes]
        lines = [",".join(header) + "\n"]
        for number, values in rows:
            template, order = templates[number]
            lines.append(template % (values if order is None else order(values)))
        return "".join(lines)
    width = max(len(key) for key in header)
    templates = [("# point %d\n" if sweep else "") + "".join(
        f"{key.ljust(width).replace('%', '%%')}  {_placeholder(kind)}\n"
        for key, kind in zip(keys, types)) for keys, types in shapes]
    if not sweep:
        return "".join(templates[number] % values for number, values in rows)
    return "".join(templates[number] % (i, *values)
                   for i, (number, values) in enumerate(rows, start=1))


def _render(payload, fmt: str) -> str:
    """Render one payload in the requested format."""
    if fmt == "json":
        return _json_text(payload) + "\n"
    return _render_table(_flat_table([payload]), fmt, sweep=False)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#e377c2", "#17becf")


def _svg(x_label: str, xs: list[float], series: dict[str, list[float]]) -> str:
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
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# payload builders

def _outcome_body(outcome: EquilibriumOutcome) -> dict:
    return {
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


def _cost_args(scenario: str, costs: tuple[float, ...],
               one_cost: bool = False) -> tuple[float, float]:
    """The c1 and c2 keywords of a scenario's call; one-cost scenarios read c1."""
    if one_cost:
        if not equal_costs(costs):
            raise UsageError("symmetric scenarios need a single cost (or equal costs)")
        return costs[0], costs[0]
    if len(costs) == 1:
        raise UsageError(f"scenario {scenario!r} needs --c c1,c2")
    if len(costs) != 2:
        raise UsageError(f"scenario {scenario!r} supports exactly two ISPs")
    return costs[0], costs[1]


def _call_for(spec: RunSpec) -> tuple[Scenario, Callable, dict, dict]:
    """The record of the spec's scenario, its solve or report call, the
    call's keywords and the params payload, after the record's arity checks."""
    scenario = spec.scenario
    record, call = _CALLS[scenario]
    params = _params_payload(spec)
    c1, c2 = _cost_args(scenario, spec.costs, record.costs == 1)
    n = spec.n
    if record.costs == 1:
        # a report tabulates n = 1..10 by default, a solve one ISP per cost
        default_n = 10 if scenario in _REPORTS else len(spec.costs)
        n = params["n"] = default_n if n is None else n
        if n < 1:
            raise UsageError("--n must be at least 1")
    elif record.two_cp and spec.r2 is None:
        raise UsageError("two-CP scenarios need --r2")
    keywords = {"r": spec.r, "c1": c1, "c2": c2, "n": n, "a1_bar": spec.a1_bar,
                "r2": spec.r2, "branch": spec.branch, "disagreement": spec.disagreement}
    return record, call, keywords, params


def _payload(spec: RunSpec, resolved: tuple | None = None) -> dict:
    """Run the spec's solve or report call and lay out its payload. A sweep
    passes each point's ``_call_for`` result, which it resolves once."""
    _, call, keywords, params = _call_for(spec) if resolved is None else resolved
    scenario = spec.scenario
    if scenario in _REPORTS:
        report = call(**keywords)
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
    branch, solved = call(**keywords)
    params["branch"] = branch.value if branch else None
    if isinstance(solved, list):
        return {"scenario": scenario, "params": params,
                "per_cp": [_outcome_body(o) for o in solved]}
    return {"scenario": scenario, "params": params, **_outcome_body(solved)}


def _sweep_values(axis: SweepAxis) -> list[float]:
    step = (axis.stop - axis.start) / (axis.steps - 1)
    values = [axis.start + step * i for i in range(axis.steps)]
    if axis.param == "n":
        values = [float(max(1, round(v))) for v in values]
    return values


def _swept(spec: RunSpec, param: str, value: float):
    """The value a sweep point gives the field its axis sets."""
    if param == "n":
        return int(value)
    if param == "c":
        return (value,) * len(spec.costs)
    if param in ("c1", "c2"):
        if len(spec.costs) < 2:
            raise UsageError(f"--sweep {param} needs two costs in --c")
        i = 0 if param == "c1" else 1
        return spec.costs[:i] + (value,) + spec.costs[i + 1:]
    return value


def _sweep_payloads(spec: RunSpec, param: str, values: list[float]):
    """Each sweep point's payload, in sweep order.

    The scenario, its arity checks and the params are resolved once, at the
    first point; each point then sets only the swept keyword (and re-runs
    the cost check, the one check a swept cost can change).
    """
    name = _SWEPT_FIELDS[param]
    record, call, keywords, params = _call_for(
        replace(spec, **{name: _swept(spec, param, values[0])}))
    for value in values:
        value = _swept(spec, param, value)
        if name == "costs":
            keywords["c1"], keywords["c2"] = _cost_args(spec.scenario, value, record.costs == 1)
            params["costs"] = list(value)
        else:
            keywords[name] = params[name] = value
        yield _payload(spec, (record, call, keywords, dict(params)))


# --------------------------------------------------------------------------
# commands

def _write(flag: str, path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise UsageError(f"{flag}: cannot write {path!r}: {exc}") from None


def _emit(spec: RunSpec, text: str) -> None:
    if spec.out is not None:
        _write("--out", spec.out, text)
    else:
        sys.stdout.write(text)


def _run_sweep(spec: RunSpec) -> int:
    axis = spec.sweep_axis
    values = _sweep_values(axis)
    payloads = _sweep_payloads(spec, axis.param, values)
    if spec.output_format == "json":
        payloads = list(payloads)
        table = _flat_table(payloads) if spec.plot is not None else None
        text = _json_text(payloads) + "\n"
    else:
        # flattened as they are made, so no nested payload outlives its row
        table = _flat_table(payloads)
        text = _render_table(table, spec.output_format, sweep=True)
    if spec.plot is not None:
        # written first, so a plot that cannot be written prints nothing
        header, shapes, rows = table
        columns = zip(*(_aligned(header, shapes[number][0], values)
                        for number, values in rows))
        series = {key: [float(v) for v in column] for key, column in zip(header, columns)
                  if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in column)}
        _write("--plot", spec.plot, _svg(axis.param, values, series))
    _emit(spec, text)
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


def _shapley_payload(spec: RunSpec) -> dict:
    c1, c2 = _cost_args(spec.scenario, spec.costs)
    branch = spec.branch or Branch.ISP1
    report = shapley_closed(spec.r, c1, c2, branch)
    return {
        "params": {"r": spec.r, "costs": [c1, c2], "branch": branch.value},
        "coalition_values": {
            "isp1": report.values[frozenset({1})],
            "isp2": report.values[frozenset({2})],
            "both": report.values[frozenset({1, 2})],
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


def _nbs_payload(spec: RunSpec) -> dict:
    # stage 1 is the solve that `solve --scenario regulated-cooperative` prints
    record, call, keywords, _ = _call_for(spec)
    c1, c2 = keywords["c1"], keywords["c2"]
    branch, outcome = call(**keywords)
    if outcome.degenerate:
        raise DegenerateRegimeError("regulated cooperative solve is degenerate")
    d1, d2 = disagreement_point(spec.disagreement, spec.r, c1, c2)
    a1, a2 = outcome.efforts.efforts
    split = nbs_split_closed(outcome.contract.joint_share, a1, a2, d1, d2,
                             spec.r, c1, c2, record.pin((c1, c2), branch))
    nested_outcome, bargain = oracle.solve_asymmetric_cooperative(
        spec.r, c1, c2, disagreement=spec.disagreement)
    return {
        "params": {"r": spec.r, "costs": [c1, c2], "branch": branch.value,
                   "disagreement": spec.disagreement.kind},
        "disagreement_point": [d1, d2],
        "stage1": {
            "joint_share": outcome.contract.joint_share,
            "efforts": [a1, a2],
            "total_effort": outcome.total_effort,
        },
        "split": {
            "beta1": split.beta1,
            "beta2": split.beta2,
            "clamped": split.clamped,
        },
        "free_form_bargain": {
            "joint_share": nested_outcome.contract.joint_share,
            "efforts": list(bargain.efforts.efforts),
            "share_split": list(bargain.share_split),
            "surpluses": list(bargain.surpluses),
            "cp_utility": nested_outcome.cp_utility,
            "converged": bargain.converged,
            "multistart_agreement": bargain.multistart_agreement,
        },
    }


class _Command(NamedTuple):
    """A command's flags, the scenario names it takes and how it prints:
    run() renders the one payload ``payload`` builds, or ``printer`` prints
    and returns the exit status."""

    flags: dict[str, dict]
    scenarios: tuple[str, ...] = ()
    payload: Callable[[RunSpec], dict] | None = None
    printer: Callable[[RunSpec], int] | None = None


# Both bargain commands solve the regulated cooperative market only.
_BARGAIN_SCENARIOS = (ScenarioKind.REGULATED_COOPERATIVE.value,)
_COMMANDS = {
    "solve": _Command(_MARKET_FLAGS, tuple(kind.value for kind in closed_form.SOLVERS),
                      payload=_payload),
    "sweep": _Command({**_MARKET_FLAGS, "--sweep": {"dest": "sweep_axis", "type": _parse_sweep},
                       "--plot": {}}, tuple(_CALLS), printer=_run_sweep),
    "compare": _Command(_MARKET_FLAGS, tuple(_REPORTS), payload=_payload),
    "shapley": _Command(_MARKET_FLAGS, _BARGAIN_SCENARIOS, payload=_shapley_payload),
    "nbs": _Command(_MARKET_FLAGS, _BARGAIN_SCENARIOS, payload=_nbs_payload),
    "verify": _Command({"--fast": {"action": "store_const", "const": True},
                        "--config": {}, "--out": {}}, printer=_run_verify),
}


def run(spec: RunSpec) -> int:
    """Execute a RunSpec; returns the process exit status."""
    command = _COMMANDS[spec.command]
    if command.printer is not None:
        return command.printer(spec)
    _emit(spec, _render(command.payload(spec), spec.output_format))
    return 0


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
