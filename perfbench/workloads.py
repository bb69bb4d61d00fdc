"""Seeded inputs for the benchmark workloads.

Every generator draws from a ``random.Random`` built from the command-line
seed and returns plain CLI argv lists or gap-battery arguments. Nothing
here imports revshare: only the generated inputs reach the program.

Ops come in rounds of fixed composition (which scenarios, formats, policies
and length strata appear) with the values inside each round drawn from the
seed. A run measures whole rounds, so every seed does about the same amount
of work and the figures stay comparable across seeds.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import mpmath

SOLVABLE = (
    "public-private",
    "public-private-regulated",
    "symmetric-competitive",
    "symmetric-cooperative",
    "asymmetric-competitive",
    "regulated-competitive",
    "regulated-cooperative",
    "fixed-public-effort-cooperative",
    "multi-cp-competitive",
    "multi-cp-cooperative",
)
SWEEPABLE = SOLVABLE + ("compare-public-private", "n-scaling")

# Sweep axes that make sense per scenario; together they cover every axis
# the CLI accepts (r, c, c1, c2, n, a1-bar, r2).
AXES = {
    "public-private": ("r", "c1", "c2"),
    "public-private-regulated": ("r", "c2", "a1-bar"),
    "symmetric-competitive": ("r", "c", "n"),
    "symmetric-cooperative": ("r", "c", "n"),
    "asymmetric-competitive": ("r", "c1", "c2"),
    "regulated-competitive": ("r", "c1", "c2"),
    "regulated-cooperative": ("r", "c1", "c2"),
    "fixed-public-effort-cooperative": ("r", "c2", "a1-bar"),
    "multi-cp-competitive": ("r", "r2", "c1", "c2"),
    "multi-cp-cooperative": ("r", "r2", "c1", "c2"),
    "compare-public-private": ("r", "c1", "c2"),
    "n-scaling": ("r", "c", "n"),
}
SYMMETRIC = ("symmetric-competitive", "symmetric-cooperative", "n-scaling")
# Scenarios whose CLI solve picks the ISP1 branch (CP-preferred, or the
# two-CP default) while revshare.model.validate uses max(c1, c2) as the
# threshold: for r in (c1, c2] the two disagree (see KNOWN_DEFECTS).
BRANCH_THRESHOLD = ("regulated-cooperative", "multi-cp-cooperative")

MAX_SWEEP_STEPS = 20_000
SWEEP_FORMATS = ("csv", "table")
SOLVE_FORMATS = ("csv", "json", "table")
# lambert_w0 meets its stopping rule for every argument up to about 1e55
# (none failed in 1e5 draws); the defect begins above that.
MAX_SAFE_RATIO = 1e50
POLICIES = ("zero", "competitive", "custom")

KNOWN_DEFECTS = {
    "json-null": "sweep --format json prints null: cli._render passes payload=None "
                 "to _json_text for sweeps",
    "lambertw-large": "lambert_w0 raises ArithmeticError for large arguments "
                      "(about half of r/c log-uniform on [1, 1e300])",
    "branch-threshold": "regulated-cooperative and multi-cp-cooperative solve on a "
                        "cheaper branch than the max(c1, c2) that validate() uses, so "
                        "the degenerate flag disagrees with validate() between them",
    "bargain-log-domain": "compare-coop-comp with competitive disagreement exits 2 with "
                          "'math domain error' when the bargain binds: the stationarity "
                          "finite difference in solve_asymmetric_cooperative steps "
                          "outside the feasible region",
}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``kind`` is ``"cli"`` (``args`` is an argv for ``revshare.cli.main``)
    or ``"battery"`` (``args`` is ``(r, c1, c2, n)`` for
    ``revshare.verify.scenario_gap_battery``). ``points`` counts the
    markets the op evaluates. ``defect`` names the known defect an input
    is drawn to expose; such ops run in the untimed defect probe.
    """

    kind: str
    args: tuple
    points: int
    defect: str = ""


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _w(x: float) -> float:
    return float(mpmath.lambertw(mpmath.mpf(x)).real)


def _max_public_effort(r: float, c1: float, c2: float) -> float:
    """Largest imposed public effort that keeps both public scenarios
    feasible: within the effort budget and with beta1 + beta2 <= 1."""
    if r <= c2:
        return 0.0
    w = _w(r * math.e / c2)
    budget = r / (c2 * w) - 1.0
    share_cap = (1.0 - 1.0 / w) * r * (w - 1.0) / c1
    return max(0.0, min(budget, share_cap))


def threshold(scenario: str, c1: float, c2: float) -> float:
    """Revenue rate at or below which the scenario is degenerate."""
    if scenario in SYMMETRIC:
        return c1
    if scenario in ("public-private", "public-private-regulated",
                    "fixed-public-effort-cooperative"):
        return c2
    if scenario in BRANCH_THRESHOLD:
        return max(c1, c2)
    return c1 + c2


def sweep_values(start: float, stop: float, steps: int) -> list[float]:
    """The points ``revshare sweep`` evaluates for ``param:start:stop:steps``."""
    step = (stop - start) / (steps - 1)
    return [start + step * i for i in range(steps)]


def _market(rng: random.Random) -> tuple[float, float]:
    c1 = _log_uniform(rng, 0.05, 2.0)
    return c1, c1 * rng.uniform(1.0, 4.0)


def _touches_branch_gap(scenario, axis, values, r, r2, c1, c2) -> bool:
    """True if any sweep point of a branch-threshold scenario has a rate
    between its solve's branch cost and max(c1, c2): min(c1, c2) for the
    CP-preferred branch, c1 for the two-CP default."""
    if scenario not in BRANCH_THRESHOLD:
        return False
    for v in values:
        rr, rr2, a, b = r, r2, c1, c2
        if axis == "r":
            rr = v
        elif axis == "r2":
            rr2 = v
        elif axis == "c1":
            a = v
        elif axis == "c2":
            b = v
        if scenario == "multi-cp-cooperative":
            rates, branch_cost = (rr, rr2), a
        else:
            rates, branch_cost = (rr,), min(a, b)
        if any(branch_cost < rate <= max(a, b) for rate in rates):
            return True
    return False


PUBLIC_EFFORT = ("public-private-regulated", "fixed-public-effort-cooperative")


def _sweep_op(rng: random.Random, scenario: str, axis: str, steps: int, fmt: str,
              below_threshold: bool) -> Op:
    """One ``sweep`` op; ``below_threshold`` lets the axis reach the
    degenerate regime. Callers never set it for compare-public-private,
    which raises there, or for the branch-threshold scenarios, whose
    crossing belongs to the defect probe."""
    c1, c2 = _market(rng)
    # An n-scaling row holds a report per n up to n, so n is kept small.
    # Its cost grows with n, and so does that of any sweep along n: both are
    # fixed, or the tail op's cost would change from seed to seed.
    n_top = 4 if scenario == "n-scaling" else 6
    n = 3 if scenario == "n-scaling" else rng.randint(1, n_top)
    k = threshold(scenario, c1, c2)
    lo_q = rng.uniform(0.3, 0.95) if below_threshold else _log_uniform(rng, 1.05, 3.0)
    hi_q = lo_q * _log_uniform(rng, 3.0, 1e4)
    r = k * _log_uniform(rng, 1.5, 1e3)
    if axis in ("r", "r2"):
        start, stop = lo_q * k, hi_q * k
        r2 = k * _log_uniform(rng, 1.5, 1e3)
    else:
        r2 = r * _log_uniform(rng, 1.0, 10.0)
    if axis == "c":
        start, stop = r / hi_q, r / lo_q
    elif axis == "n":
        start, stop = 1.0, float(2 * n_top)
    elif axis == "a1-bar":
        start, stop = 0.0, rng.uniform(0.1, 0.9) * _max_public_effort(r, c1, c2)
    elif axis in ("c1", "c2"):
        other = c2 if axis == "c1" else c1
        if below_threshold:
            # from a cost well under the threshold to one above it
            start = other * _log_uniform(rng, 0.01, 0.5)
            stop = max(r, start) * rng.uniform(1.05, 3.0)
        else:
            stop = (r - other if scenario == "compare-public-private"
                    else max(r - other, r / 2.0)) / rng.uniform(1.05, 3.0)
            start = stop / _log_uniform(rng, 3.0, 1e3)
    a1_bar = 0.0
    if scenario in PUBLIC_EFFORT and not below_threshold and axis in ("r", "c2"):
        # within the effort budget and share cap at every sweep point
        if axis == "r":
            a1_bar = 0.5 * _max_public_effort(start, c1, c2)
        else:
            a1_bar = 0.5 * min(_max_public_effort(r, c1, v) for v in (start, stop))
    argv = ["sweep", "--scenario", scenario, "--r", _num(r)]
    if scenario in SYMMETRIC:
        argv += ["--c", _num(c1), "--n", str(n)]
    else:
        argv += ["--c", f"{_num(c1)},{_num(c2)}"]
    if scenario.startswith("multi-cp"):
        argv += ["--r2", _num(r2)]
    if a1_bar > 0.0:
        argv += ["--a1-bar", _num(a1_bar)]
    argv += ["--sweep", f"{axis}:{_num(start)}:{_num(stop)}:{steps}", "--format", fmt]
    defect = ""
    if fmt == "json":
        defect = "json-null"
    elif _touches_branch_gap(scenario, axis, sweep_values(start, stop, steps),
                             r, r2, c1, c2):
        defect = "branch-threshold"
    return Op("cli", tuple(argv), steps, defect)


def _solve_op(rng: random.Random, scenario: str, fmt: str, max_ratio: float) -> Op:
    """One single-point ``solve`` with r/c log-uniform up to ``max_ratio``."""
    c1, c2 = _market(rng)
    lo = 1.0 if scenario in BRANCH_THRESHOLD else 0.3
    base = max(c1, c2) if scenario in BRANCH_THRESHOLD else min(c1, c2)
    r = base * _log_uniform(rng, lo, max_ratio)
    argv = ["solve", "--scenario", scenario, "--r", _num(r)]
    if scenario in SYMMETRIC:
        argv += ["--c", _num(c1), "--n", str(rng.randint(1, 6))]
    else:
        argv += ["--c", f"{_num(c1)},{_num(c2)}"]
    if scenario.startswith("multi-cp"):
        argv += ["--r2", _num(base * _log_uniform(rng, lo, max_ratio))]
    argv += ["--format", fmt]
    defect = "lambertw-large" if max_ratio > MAX_SAFE_RATIO else ""
    return Op("cli", tuple(argv), 1, defect)


LENGTH_STRATA = 6
# With 24 solves a sub-round, a cycle holds 216 ops. The median falls among
# the 144 single-point solves, whose mix of scenarios and formats is the same
# in every cycle; with 6, it fell among the shortest sweeps, where latency
# climbs steeply with length and it moved by 15 % from seed to seed. The
# p95 tail is the 11th-slowest op, one of the sweeps of the two longest
# length strata.
SOLVES_PER_SUB_ROUND = 24


def _stratum_length(stratum: int, slot: float) -> int:
    """Length at position ``slot`` in [0, 1) of one of LENGTH_STRATA
    equal-probability strata of log-uniform [2, MAX_SWEEP_STEPS]."""
    span = math.log(MAX_SWEEP_STEPS / 2.0)
    return max(2, round(2.0 * math.exp(span * (stratum + slot) / LENGTH_STRATA)))


def closed_form_cycle(rng: random.Random) -> list[Op]:
    """One cycle of LENGTH_STRATA sub-rounds; each sub-round holds one
    sweep of every sweepable scenario and SOLVES_PER_SUB_ROUND
    single-point solves.

    The structure is the same for every seed: scenario i meets every length
    stratum once per cycle, its sweep axis and format follow the stratum,
    and within a stratum the twelve scenarios take the midpoints of twelve
    equal-probability slots. So the 72 sweep lengths are the same for every
    seed: the median op and the tail op sit on the steep parts of the
    latency distribution, where lengths drawn per seed moved them by up to
    15 % from seed to seed. The seed draws the markets, sweep ranges and op
    order.
    """
    count = len(SWEEPABLE)
    ops = []
    for sub in range(LENGTH_STRATA):
        batch = []
        for i, scenario in enumerate(SWEEPABLE):
            stratum = (i + sub) % LENGTH_STRATA
            slot = ((5 * i + stratum) % count + 0.5) / count
            axes = AXES[scenario]
            below = (stratum % 2 == 0 and scenario not in BRANCH_THRESHOLD
                     and scenario != "compare-public-private")
            batch.append(_sweep_op(rng, scenario, axes[stratum % len(axes)],
                                   _stratum_length(stratum, slot),
                                   SWEEP_FORMATS[(i + stratum) % len(SWEEP_FORMATS)],
                                   below))
        for k in range(SOLVES_PER_SUB_ROUND):
            scenario = SOLVABLE[(SOLVES_PER_SUB_ROUND * sub + k) % len(SOLVABLE)]
            fmt = SOLVE_FORMATS[(sub + k) % len(SOLVE_FORMATS)]
            batch.append(_solve_op(rng, scenario, fmt, MAX_SAFE_RATIO))
        rng.shuffle(batch)
        ops += batch
    return ops


def _closed_form_probe(rng: random.Random) -> list[Op]:
    """Inputs drawn to expose the closed-form defects."""
    ops = []
    for _ in range(2):
        scenario = rng.choice(SOLVABLE)
        ops.append(_sweep_op(rng, scenario, rng.choice(AXES[scenario]),
                             rng.randint(2, 50), "json", True))
    ops += [_solve_op(rng, rng.choice(SOLVABLE), "csv", 1e300) for _ in range(8)]
    for scenario in BRANCH_THRESHOLD:
        c1, c2 = _market(rng)
        c2 = max(c2, 2.0 * c1)
        argv = ["sweep", "--scenario", scenario, "--r", _num(c2), "--c",
                f"{_num(c1)},{_num(c2)}"]
        if scenario == "multi-cp-cooperative":
            argv += ["--r2", _num(c2)]
        steps = rng.randint(3, 40)
        argv += ["--sweep", f"r:{_num(0.5 * c1)}:{_num(2.0 * c2)}:{steps}",
                 "--format", "csv"]
        ops.append(Op("cli", tuple(argv), steps, "branch-threshold"))
    return ops


# ---------------------------------------------------------------------------
# nested bargaining

# The market set is drawn once from this fixed seed and --seed only picks
# the order and output formats. A nested solve costs from 2 ms to a few
# seconds depending on the market, and a 1 % nudge can move the competitive
# bargain onto the log-domain defect (KNOWN_DEFECTS), so a set drawn or
# jittered per seed would measure different work, or a crash, per seed.
NESTED_BASE_SEED = 20211102
NESTED_MARKETS = 6
# The timed round uses base markets 1 to 3: one per disagreement policy
# (competitive, custom, zero), and the custom and zero ones have a feasible
# nbs. A round of all six takes 13 to 20 s, so a run of whole rounds would
# overshoot its --seconds by up to that much.
NESTED_TIMED = range(1, 4)


def _nested_base() -> list[tuple[float, float, float, float, float]]:
    rng = random.Random(NESTED_BASE_SEED)
    markets = []
    for _ in range(NESTED_MARKETS):
        c1 = _log_uniform(rng, 0.1, 2.0)
        c2 = c1 * rng.uniform(1.0, 4.0)
        r = (c1 + c2) * _log_uniform(rng, 1.3, 20.0)
        # custom disagreement utilities: small shares of the revenue scale
        d1, d2 = (rng.uniform(0.0, 0.02) * r for _ in range(2))
        markets.append((r, c1, c2, d1, d2))
    return markets


def _bargain_op(command: str, r: float, c1: float, c2: float, disagreement: str,
                fmt: str, defect: str = "") -> Op:
    scenario = "compare-coop-comp" if command == "compare" else "regulated-cooperative"
    return Op("cli", (command, "--scenario", scenario, "--r", _num(r),
                      "--c", f"{_num(c1)},{_num(c2)}", "--disagreement", disagreement,
                      "--format", fmt), 1, defect)


def nested_round(rng: random.Random) -> list[Op]:
    """Every timed base market twice, once as ``compare --scenario
    compare-coop-comp`` and once as ``nbs``; market i uses policy i mod 3."""
    ops = []
    base = _nested_base()
    for i in NESTED_TIMED:
        r, c1, c2, d1, d2 = base[i]
        policy = POLICIES[i % len(POLICIES)]
        disagreement = f"{_num(d1)},{_num(d2)}" if policy == "custom" else policy
        for command in ("compare", "nbs"):
            ops.append(_bargain_op(command, r, c1, c2, disagreement,
                                   rng.choice(SWEEP_FORMATS)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify battery

# A round takes about 1.5 s, so a run stops within a round of its budget.
BATTERIES_PER_ROUND = 200


def battery_round(rng: random.Random) -> list[Op]:
    """Gap batteries on markets with r/(c1+c2) log-uniform on [1.05, 1e6],
    one per equal-probability stratum of that ratio."""
    span = math.log(1e6 / 1.05)
    strata = list(range(BATTERIES_PER_ROUND))
    rng.shuffle(strata)
    ops = []
    for s in strata:
        c1, c2 = _market(rng)
        q = 1.05 * math.exp(span * (s + rng.random()) / BATTERIES_PER_ROUND)
        ops.append(Op("battery", ((c1 + c2) * q, c1, c2, rng.randint(1, 5)), 1))
    return ops


# A competitive-disagreement market whose bargain binds; found by the
# checker on a 1 % nudge of base market 1.
LOG_DOMAIN_MARKET = (6.39990663152031, 0.42244726701719093, 0.7213675589094566)


def defect_probe(workload: str, rng: random.Random) -> list[Op]:
    """Inputs that expose the known defects touching ``workload``; they run
    untimed after the rounds and are tallied apart from the timed ops."""
    if workload == "closed-form-sweep":
        return _closed_form_probe(rng)
    if workload == "nested-bargain":
        return [_bargain_op("compare", *LOG_DOMAIN_MARKET, "competitive",
                            rng.choice(SWEEP_FORMATS), "bargain-log-domain")]
    return []


# The latency tail each workload reports: the highest of p99.9, p99, p95,
# p90, p75 and p50 with at least 10 samples beyond it at the designed
# sample count (216 ops a cycle, 6 a round, about 2,000 batteries a run).
# It is fixed here so that a run measuring one round more does not switch it.
TAIL_PERCENTILE = {
    "closed-form-sweep": 95.0,
    "nested-bargain": 50.0,
    "verify-battery": 99.0,
}

ROUNDS = {
    "closed-form-sweep": closed_form_cycle,
    "nested-bargain": nested_round,
    "verify-battery": battery_round,
}


def rounds(workload: str, seed: int):
    """Endless stream of rounds for ``workload``, reproducible from ``seed``."""
    make = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)
