"""Span tracing for the per-layer run, installed from outside the program.

Every public function of each revshare layer module is replaced by a
wrapper at every module binding it is reachable under (``closed_form``
calls its own ``lambert_w0`` binding, ``compare`` its own
``solve_regulated_competitive``, and so on). A wrapper records a span
(name, start, end, parent, op id) in flat arrays; self time is a span's
duration minus that of its children.
"""
from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("lambertw", "model", "closed_form", "oracle", "bargaining", "compare",
          "verify", "cli")
OP = "op"


class Tracer:
    """In-memory span store. ``active`` is off while outputs are checked,
    so the checker's own calls into revshare leave no spans."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.active = False
        self.counts: collections.Counter = collections.Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = index
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.current = self.parent[index]

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.array(self.name),
                            parent=np.array(self.parent), op=np.array(self.op),
                            start=np.array(self.start), end=np.array(self.end))


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.finish(index)
            tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        tracer.finish(index)
        if on_result is not None:
            on_result(tracer.counts, result)
        return result

    return traced


def _count_degenerate(counts, result):
    outcomes = result if isinstance(result, list) else [result]
    if isinstance(result, tuple):          # (branch, outcome)
        outcomes = [result[1]]
    for outcome in outcomes:
        degenerate = getattr(outcome, "degenerate", None)
        if degenerate is not None:
            counts["closed_form.outcomes"] += 1
            counts["closed_form.degenerate"] += bool(degenerate)


def _count_converged(counts, result):
    counts["oracle.nash_product_maximize.returned"] += 1
    counts["oracle.nash_product_maximize.converged"] += bool(result.converged)


def _count_nfev(counts, result):
    counts["oracle.simplex_nfev"] += int(result.nfev)


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer at every binding."""
    modules = [importlib.import_module("revshare")]
    modules += [importlib.import_module(f"revshare.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules[1:]):
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                hook = None
                if layer == "closed_form":
                    hook = _count_degenerate
                elif attr == "nash_product_maximize":
                    hook = _count_converged
                wrappers[id(fn)] = _wrap(tracer, f"{layer}.{attr}", fn, hook)
    oracle = modules[1 + LAYERS.index("oracle")]
    # scipy's minimize as oracle binds it: one span per Nelder-Mead run
    wrappers[id(oracle.minimize)] = _wrap(tracer, "oracle.minimize", oracle.minimize,
                                          _count_nfev)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    from revshare.closed_form import ContinuumEquilibrium
    from revshare.model import EquilibriumOutcome

    EquilibriumOutcome.__post_init__ = _wrap(tracer, "model.outcome",
                                             EquilibriumOutcome.__post_init__)
    ContinuumEquilibrium.outcome_at = _wrap(tracer, "closed_form.outcome_at",
                                            ContinuumEquilibrium.outcome_at,
                                            _count_degenerate)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans."""
    names = np.array(tracer.name, dtype=np.int64)
    parent = np.array(tracer.parent, dtype=np.int64)
    dur = np.array(tracer.end) - np.array(tracer.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    k = len(tracer.names)
    calls = np.bincount(names, minlength=k)
    self_by = np.bincount(names, weights=self_time, minlength=k)
    total_by = np.bincount(names, weights=dur, minlength=k)

    def by_name(name, table):
        return float(table[tracer._ids[name]]) if name in tracer._ids else 0.0

    def layer_self(layer):
        return float(sum(self_by[i] for i, n in enumerate(tracer.names)
                         if n.split(".")[0] == layer))

    def layer_calls(layer):
        return float(sum(calls[i] for i, n in enumerate(tracer.names)
                         if n.split(".")[0] == layer))

    def frac(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    is_op = names == 0
    op_s = float(dur[is_op].sum())
    under_op = has_parent & is_op[np.where(has_parent, parent, 0)]
    attributed = float(dur[under_op].sum())
    w_calls = by_name("lambertw.lambert_w0", calls)
    nash_calls = by_name("oracle.nash_product_maximize", calls)
    return {
        "lambertw.calls": w_calls,
        "lambertw.self_s": layer_self("lambertw"),
        "lambertw.us_per_call": frac(layer_self("lambertw") * 1e6, w_calls),
        "lambertw.errors": float(counts["lambertw.lambert_w0.raised.ArithmeticError"]),
        "closed_form.calls": layer_calls("closed_form"),
        "closed_form.self_s": layer_self("closed_form"),
        "closed_form.degenerate_frac": frac(counts["closed_form.degenerate"],
                                            counts["closed_form.outcomes"]),
        "model.outcome.calls": by_name("model.outcome", calls),
        "model.outcome.self_s": by_name("model.outcome", self_by),
        "model.self_s": layer_self("model"),
        "cli.parse_args.self_s": by_name("cli.parse_args", self_by),
        "cli.run.self_s": by_name("cli.run", self_by),
        "cli.self_s": layer_self("cli"),
        "oracle.self_s": layer_self("oracle"),
        "oracle.nash_product_maximize.calls": nash_calls,
        "oracle.nash_product_maximize.self_s": by_name("oracle.nash_product_maximize",
                                                       self_by),
        "oracle.simplex_runs": by_name("oracle.minimize", calls),
        "oracle.simplex_nfev": float(counts["oracle.simplex_nfev"]),
        "oracle.simplex_s": by_name("oracle.minimize", total_by),
        "oracle.nash_infeasible_frac": frac(
            counts["oracle.nash_product_maximize.raised.InfeasibleBargainError"], nash_calls),
        "oracle.nash_converged_frac": frac(counts["oracle.nash_product_maximize.converged"],
                                           counts["oracle.nash_product_maximize.returned"]),
        "oracle.solve_asymmetric_cooperative.self_s": by_name(
            "oracle.solve_asymmetric_cooperative", self_by),
        "oracle.leader_optimum.calls": by_name("oracle.leader_optimum", calls),
        "oracle.leader_optimum.self_s": by_name("oracle.leader_optimum", self_by),
        "oracle.best_response_effort.calls": by_name("oracle.best_response_effort", calls),
        "oracle.best_response_effort.self_s": by_name("oracle.best_response_effort",
                                                      self_by),
        "oracle.golden_section_max.calls": by_name("oracle.golden_section_max", calls),
        "bargaining.self_s": layer_self("bargaining"),
        "compare.self_s": layer_self("compare"),
        "verify.self_s": layer_self("verify"),
        "verify.scenario_gap_battery.self_s": by_name("verify.scenario_gap_battery",
                                                      self_by),
        "trace.spans": float(len(dur)),
        "trace.op_s": op_s,
        "trace.unattributed_s": op_s - attributed,
        "trace.attributed_frac": frac(attributed, op_s),
    }
