"""Output checks for benchmark ops, run outside the timed region.

Each ``check_*`` function returns ``None`` when the output is correct and a
one-line reason when it is not. The checks recompute what they can from the
op's own inputs and the printed numbers; the only program code they call is
``revshare.model.validate``, which defines when a market is degenerate.
"""
from __future__ import annotations

import io
import json
import math

import mpmath

from workloads import BRANCH_THRESHOLD, SYMMETRIC, sweep_values

FOC_TOL = 1e-9          # relative first-order-condition residual
IDENTITY_TOL = 1e-9     # relative accounting-identity slack
W_TOL = 1e-10           # share vs 1/W at 50 digits (outputs carry 12 digits)
W_SAMPLE_ROWS = 4       # rows per op checked against mpmath
NASH_SPREAD_TOL = 1e-6
NASH_GRAD_TOL = 1e-4
SHARE_GAP_TOL = 1e-6
EFFORT_GAP_TOL = 1e-8
VERIFY_CHECKS = 13

# Messages of the InfeasibleBargainError raises in revshare: a bargain that
# ends in one of them is a documented outcome, not a failure.
INFEASIBLE_BARGAIN = (
    "cannot cover the disagreement point",
    "share too small for any profitable effort",
    "no effort pair beats the disagreement point",
    "regulated competitive benchmark is degenerate",
    "admits a feasible bargain",
)

mpmath.mp.dps = 50


class CheckFailure(Exception):
    pass


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out.update(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
        return out
    if isinstance(value, list):
        out = {}
        for i, v in enumerate(value, start=1):
            out.update(_flatten(v, f"{prefix}.{i}"))
        return out
    return {prefix: value}


def iter_rows(text: str, fmt: str):
    """Rows of key -> printed value, keys as the CLI flattens them. Rows are
    produced one at a time, so checking a long sweep holds one row."""
    if fmt == "json":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise CheckFailure(f"json output is {text.strip()[:40]!r}, not an object")
        yield _flatten(data)
        return
    lines = io.StringIO(text)
    if fmt == "csv":
        header = lines.readline().rstrip("\n").split(",")
        for line in lines:
            values = line.rstrip("\n").split(",")
            if len(values) != len(header):
                raise CheckFailure("csv row width differs from the header")
            yield dict(zip(header, values))
        return
    row = None
    for line in lines:
        if line.startswith("# point "):
            if row is not None:
                yield row
            row = {}
            continue
        if row is None:
            row = {}
        key, _, value = line.partition(" ")
        row[key] = value.strip()
    if row is not None:
        yield row


def _num(row, key):
    value = row.get(key)
    if value is None or value == "":
        raise CheckFailure(f"missing value for {key}")
    return float(value)


def _bool(row, key):
    value = row.get(key)
    if value in (True, "true"):
        return True
    if value in (False, "false"):
        return False
    raise CheckFailure(f"{key} is {value!r}, not a boolean")


def _close(a, b, tol, what):
    if not abs(a - b) <= tol * max(1.0, abs(a), abs(b)):
        raise CheckFailure(f"{what}: {a!r} vs {b!r}")


class Market:
    """Exact inputs of one evaluated point, rebuilt from the op's argv."""

    def __init__(self, scenario, r, costs, n, a1_bar, r2):
        self.scenario, self.r, self.costs = scenario, r, costs
        self.n, self.a1_bar, self.r2 = n, a1_bar, r2

    @classmethod
    def from_argv(cls, argv):
        costs = tuple(float(x) for x in _flag(argv, "--c").split(","))
        n = _flag(argv, "--n")
        r2 = _flag(argv, "--r2")
        return cls(_flag(argv, "--scenario"), float(_flag(argv, "--r")), costs,
                   int(n) if n is not None else None,
                   float(_flag(argv, "--a1-bar", 0.0)),
                   float(r2) if r2 is not None else None)

    def with_param(self, param, value):
        m = Market(self.scenario, self.r, self.costs, self.n, self.a1_bar, self.r2)
        if param == "r":
            m.r = value
        elif param == "r2":
            m.r2 = value
        elif param == "n":
            m.n = int(float(max(1, round(value))))
        elif param == "a1-bar":
            m.a1_bar = value
        elif param == "c":
            m.costs = tuple(value for _ in self.costs)
        elif param == "c1":
            m.costs = (value,) + self.costs[1:]
        elif param == "c2":
            m.costs = self.costs[:1] + (value,) + self.costs[2:]
        return m


def _validate_degenerate(scenario, r, costs):
    from revshare.model import MarketParams, ScenarioKind, validate

    return validate(MarketParams(r=r, costs=costs), ScenarioKind(scenario)).degenerate


def _w50(x):
    return mpmath.lambertw(mpmath.mpf(x)).real


def _expected_shares(scenario, r, c1, c2, n, a1_bar, pin_cost):
    """Per-ISP shares and joint share from 1/W at 50 digits."""
    w = _w50(mpmath.mpf(r) * mpmath.e / mpmath.mpf(pin_cost))
    beta = 1 / w
    k = mpmath.mpf(c1) + c2
    if scenario == "symmetric-competitive":
        return (beta / n,) * n, None
    if scenario == "symmetric-cooperative":
        return (beta / n,) * n, beta
    if scenario == "public-private":
        return (0, beta), None
    if scenario == "public-private-regulated":
        return (mpmath.mpf(a1_bar) * c1 / (mpmath.mpf(r) * (w - 1)), beta), None
    if scenario in ("asymmetric-competitive", "regulated-competitive",
                    "multi-cp-competitive"):
        return (beta * c1 / k, beta * c2 / k), None
    if scenario in BRANCH_THRESHOLD:
        return (beta * c1 / k, beta * c2 / k), beta
    if scenario == "fixed-public-effort-cooperative":
        total = mpmath.mpf(r) / (c2 * w) - 1
        return (beta * a1_bar / total, beta * (total - a1_bar) / total), beta
    raise CheckFailure(f"no expected shares for {scenario}")


def _pin(scenario, costs, branch):
    """The (share, cost) pair whose W pins the scenario: share = 1/W(r*e/cost)."""
    c1 = costs[0]
    c2 = costs[1] if len(costs) > 1 else c1
    if scenario in SYMMETRIC:
        return "total_share", c1
    if scenario in ("public-private", "public-private-regulated"):
        return "shares.2", c2
    if scenario == "fixed-public-effort-cooperative":
        return "joint_share", c2
    if scenario in BRANCH_THRESHOLD:
        return "joint_share", c1 if branch == "isp1" else c2
    return "total_share", c1 + c2


def check_outcome(row, prefix, market, rate, branch, sample):
    """One solved outcome body: degenerate flag, FOC, identity, and, when
    ``sample`` is set, every share against 1/W at 50 digits."""
    scenario = market.scenario
    costs = market.costs
    n = market.n if market.n is not None else len(costs)
    if scenario in SYMMETRIC:
        costs = (costs[0],) * n
    degenerate = _bool(row, prefix + "degenerate")
    if degenerate != _validate_degenerate(scenario, rate, costs):
        raise CheckFailure(f"degenerate={degenerate} disagrees with validate() "
                           f"at r={rate!r}")
    if degenerate:
        if any(float(v) != 0.0 for k, v in row.items()
               if k.startswith(prefix) and v not in ("", None)
               and k[len(prefix):].split(".")[0] in ("contract", "efforts", "demand",
                                                     "utilities")):
            raise CheckFailure("degenerate outcome with non-zero values")
        return
    efforts = [_num(row, f"{prefix}efforts.{i}") for i in range(1, len(costs) + 1)]
    total = sum(efforts)
    demand = _num(row, prefix + "demand")
    _close(demand, math.log(total + 1.0), IDENTITY_TOL, "demand vs log(total effort + 1)")
    cp = _num(row, prefix + "utilities.cp")
    isps = [_num(row, f"{prefix}utilities.isps.{i}") for i in range(1, len(costs) + 1)]
    spent = sum(c * a for c, a in zip(costs, efforts))
    scale = max(abs(cp), sum(abs(u) for u in isps), spent, rate * demand)
    if abs(cp + sum(isps) + spent - rate * demand) > IDENTITY_TOL * max(1.0, scale):
        raise CheckFailure("accounting identity cp + isps + costs = r * demand fails")
    key, pin_cost = _pin(scenario, costs, branch)
    share = _num(row, prefix + "contract." + key)
    leader = (1.0 - share) / share
    follower = share * rate / pin_cost
    foc_scale = max(1.0, leader, follower)
    if abs(math.log(follower) - leader) > FOC_TOL * foc_scale:
        raise CheckFailure("leader first-order condition fails")
    if abs(total + 1.0 - follower) > FOC_TOL * foc_scale:
        raise CheckFailure("follower first-order condition fails")
    if _num(row, prefix + "residuals.foc") > FOC_TOL * foc_scale:
        raise CheckFailure("printed FOC residual above tolerance")
    if sample:
        c1, c2 = costs[0], costs[-1]
        shares, joint = _expected_shares(scenario, rate, c1, c2, n, market.a1_bar, pin_cost)
        for i, expected in enumerate(shares, start=1):
            _close(_num(row, f"{prefix}contract.shares.{i}"), float(expected), W_TOL,
                   f"share {i} vs 1/W")
        if joint is not None:
            _close(_num(row, prefix + "contract.joint_share"), float(joint), W_TOL,
                   "joint share vs 1/W")


def _check_orderings(row, tol_eq=1e-9):
    """Every printed ordering agrees with the printed metrics."""
    holds_all = True
    i = 1
    # csv rows carry the union of all rows' columns, so a row with fewer
    # orderings than the widest one has empty trailing cells
    while row.get(f"orderings.{i}.metric") not in (None, ""):
        metric = row[f"orderings.{i}.metric"]
        a_label, relation, b_label = row[f"orderings.{i}.relation"].split(" ")
        holds = _bool(row, f"orderings.{i}.holds")
        holds_all &= holds
        a = _num(row, f"metrics.{a_label}.{metric}")
        b = _num(row, f"metrics.{b_label}.{metric}")
        margin = 1e-11 * max(abs(a), abs(b))
        if relation == "==":
            gap = abs(a - b)
            wrong = (holds and gap > tol_eq + margin) or (not holds and gap < tol_eq - margin)
        else:
            wrong = (holds and a < b - margin) or (not holds and a > b + margin)
        if wrong:
            raise CheckFailure(f"ordering {a_label} {relation} {b_label} on {metric} "
                               f"printed {holds}")
        i += 1
    if _bool(row, "all_hold") != holds_all:
        raise CheckFailure("all_hold disagrees with the orderings")


def check_report(row, market, sample):
    scenario = market.scenario
    if row.get("comparison") != scenario:
        raise CheckFailure(f"comparison field is {row.get('comparison')!r}")
    _check_orderings(row)
    if scenario == "compare-public-private":
        c1, c2 = market.costs[:2]
        if sample:
            _close(_num(row, "metrics.both-private.total_share"),
                   float(1 / _w50(market.r * mpmath.e / (mpmath.mpf(c1) + c2))),
                   W_TOL, "both-private share vs 1/W")
            _close(_num(row, "metrics.one-public.total_share"),
                   float(1 / _w50(market.r * mpmath.e / c2)), W_TOL,
                   "one-public share vs 1/W")
    elif scenario == "n-scaling":
        c = market.costs[0]
        n_max = market.n if market.n is not None else 10
        for n in range(1, n_max + 1):
            degenerate = _num(row, f"metrics.n={n}.degenerate") == 1.0
            if degenerate != _validate_degenerate("symmetric-competitive", market.r, (c,) * n):
                raise CheckFailure(f"n={n} degenerate flag disagrees with validate()")
            if sample and not degenerate:
                _close(_num(row, f"metrics.n={n}.beta"),
                       float(1 / (n * _w50(market.r * mpmath.e / c))), W_TOL,
                       f"n={n} share vs 1/W")


def _check_row(row, market, sample):
    if market.scenario in ("compare-public-private", "n-scaling"):
        check_report(row, market, sample)
        return
    if row.get("scenario") != market.scenario:
        raise CheckFailure(f"scenario field is {row.get('scenario')!r}")
    branch = row.get("params.branch")
    if market.scenario.startswith("multi-cp"):
        for j, rate in ((1, market.r), (2, market.r2)):
            check_outcome(row, f"per_cp.{j}.", market, rate, branch, sample)
    else:
        check_outcome(row, "", market, market.r, branch, sample)


def _sample_indices(count):
    if count <= W_SAMPLE_ROWS:
        return set(range(count))
    return {round(i * (count - 1) / (W_SAMPLE_ROWS - 1)) for i in range(W_SAMPLE_ROWS)}


def check_solution(argv, stdout):
    """``solve`` and ``sweep`` outputs, including the comparison scenarios
    that sweeps accept."""
    market = Market.from_argv(argv)
    if argv[0] == "sweep":
        param, start, stop, steps = _flag(argv, "--sweep").split(":")
        markets = [market.with_param(param, v)
                   for v in sweep_values(float(start), float(stop), int(steps))]
    else:
        markets = [market]
    sampled = _sample_indices(len(markets))
    count = 0
    for i, row in enumerate(iter_rows(stdout, _flag(argv, "--format", "table"))):
        if i >= len(markets):
            raise CheckFailure(f"more rows than the {len(markets)} points asked for")
        _check_row(row, markets[i], i in sampled)
        count += 1
    if count != len(markets):
        raise CheckFailure(f"{count} rows for {len(markets)} points")


def _log_nash_gradient(r, c1, c2, beta, a1, a2, d1, d2, h=1e-6):
    """Largest central-difference partial of log(F1*F2) at (a1, a2)."""

    def log_product(x, y):
        total = x + y
        rev = beta * r * math.log(total + 1.0) / total
        f1, f2 = rev * x - c1 * x - d1, rev * y - c2 * y - d2
        if f1 <= 0.0 or f2 <= 0.0:
            raise CheckFailure("a Nash surplus is not positive at the printed efforts")
        return math.log(f1) + math.log(f2)

    return max(abs(log_product(a1 + h, a2) - log_product(a1 - h, a2)) / (2 * h),
               abs(log_product(a1, a2 + h) - log_product(a1, a2 - h)) / (2 * h))


def _disagreement(argv, competitive):
    policy = _flag(argv, "--disagreement", "competitive")
    if policy == "zero":
        return 0.0, 0.0
    if policy == "competitive":
        return competitive()
    d1, d2 = policy.split(",")
    return float(d1), float(d2)


def check_nbs(argv, stdout):
    row = next(iter_rows(stdout, _flag(argv, "--format", "table")))
    r = float(_flag(argv, "--r"))
    c1, c2 = (float(x) for x in _flag(argv, "--c").split(","))
    if not _bool(row, "free_form_bargain.converged"):
        raise CheckFailure("bargain reports converged=false")
    spread = _num(row, "free_form_bargain.multistart_agreement")
    if not spread <= NASH_SPREAD_TOL:
        raise CheckFailure(f"multistart spread {spread:.3g} above {NASH_SPREAD_TOL}")
    d1, d2 = _disagreement(argv, lambda: (_num(row, "disagreement_point.1"),
                                          _num(row, "disagreement_point.2")))
    _close(_num(row, "split.beta1") + _num(row, "split.beta2"),
           _num(row, "stage1.joint_share"), 1e-11, "closed split conservation")
    grad = _log_nash_gradient(r, c1, c2, _num(row, "free_form_bargain.joint_share"),
                              _num(row, "free_form_bargain.efforts.1"),
                              _num(row, "free_form_bargain.efforts.2"), d1, d2)
    if not grad <= NASH_GRAD_TOL:
        raise CheckFailure(f"bargain stationarity {grad:.3g} above {NASH_GRAD_TOL}")


def check_coop_comp(argv, stdout):
    """The comparison prints no bargain efforts or convergence data, so
    only its internal consistency is checked: orderings against metrics,
    and the bargained utilities against a split of the total effort."""
    row = next(iter_rows(stdout, _flag(argv, "--format", "table")))
    r = float(_flag(argv, "--r"))
    c1, c2 = (float(x) for x in _flag(argv, "--c").split(","))
    _check_orderings(row)
    label = "metrics.nbs-cooperative."
    beta = _num(row, label + "total_share")
    total = _num(row, label + "total_effort")
    revenue = beta * r * math.log(total + 1.0) / total
    # ISP i nets a_i * (revenue per unit effort - c_i); invert for the efforts
    a1 = _num(row, label + "isp1_utility") / (revenue - c1)
    a2 = _num(row, label + "isp2_utility") / (revenue - c2)
    _close(a1 + a2, total, 1e-6, "bargained utilities vs total effort")


def check_cli(argv, code, stdout, stderr):
    """Reason the CLI op failed, or None. ``code`` is the exit status, or
    None when ``main`` raised."""
    command = argv[0]
    if code is None:
        return f"crashed: {stderr.strip().splitlines()[-1] if stderr.strip() else '?'}"
    if code != 0:
        message = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        bargain = command == "nbs" or _flag(argv, "--scenario") == "compare-coop-comp"
        if bargain and code == 2 and any(m in message for m in INFEASIBLE_BARGAIN):
            return None
        return f"exit {code}: {message[:160]}"
    try:
        if command == "verify":
            lines = stdout.strip().splitlines()
            if not lines or not lines[-1].startswith(f"OK  {VERIFY_CHECKS}/{VERIFY_CHECKS}"):
                raise CheckFailure(f"verify ended with {lines[-1] if lines else 'nothing'!r}")
        elif command == "nbs":
            check_nbs(argv, stdout)
        elif _flag(argv, "--scenario") == "compare-coop-comp":
            check_coop_comp(argv, stdout)
        else:
            check_solution(argv, stdout)
    except CheckFailure as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, ZeroDivisionError, StopIteration) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def check_battery(args, gaps):
    """Reason a gap battery failed, or None."""
    r, c1, c2, n = args
    expected = 8 if r > c1 + c2 else 0
    if len(gaps) < expected:
        return f"{len(gaps)} scenarios gapped, expected {expected}"
    for name, (share_gap, effort_gap) in gaps.items():
        if not share_gap < SHARE_GAP_TOL:
            return f"{name}: share gap {share_gap:.3g}"
        if not effort_gap < EFFORT_GAP_TOL:
            return f"{name}: effort gap {effort_gap:.3g}"
    return None
