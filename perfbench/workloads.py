"""The workloads: each a closed loop with one caller, timed per operation,
with its correctness checks run outside the timed region.

An operation is a grid-eval batch, a sweep of solve-price requests over
log p, or an mc-sample round of draws at every p and one point cloud.
grid-eval and mc-sample cycle over p in whole cycles, so every run sees
each p equally often.  The CLI round at the end runs once in each traced
run (layers.py).
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import singular_mrl as sm

import calibration
import inputs
import oracle
import procs

# a few ulps of 1.0 (F, J and m all lie in [0, 1]) for the final rounding
SLACK = 4 * 2.0 ** -52
DKW_DRAWS = 200_000
DKW_CONFIDENCE = 0.999
SOLVE_TOLERANCE = 1e-8

# Seed defects a miss can be traced to.  A miss with a cause still counts
# as failed; a miss with none makes the run incorrect.
CAUSES = {
    "rounded_descent": (
        "the float descent rounds y -> 3y and 1 - y and so takes another branch than "
        "the exact path of the double passed, and its bound does not cover that "
        "(ROADMAP item 2)"),
    "mrl_many_quotient": (
        "mrl_many's vector quotient J(1-x)/F(1-x) for x >= 1/3 keeps J's absolute "
        "tolerance and retightens only where F's bound is loose, so where F(1-x) is "
        "small it misses by up to J's error bound over F(1-x); scalar mrl at the same "
        "double is within its bound (ROADMAP item 2)"),
    "accumulator_rounding": (
        "exact path, but the bound ignores the rounding of the float accumulators "
        "(the library reports 0 on plateau termination); excess below ROUNDING_BUDGET"),
    "first_order_bound": (
        "mrl's quotient bound (e_J + m e_F)/F is first order in e_F/F; the error of "
        "J/F exceeds it by up to m r^2/(1 - r), r = e_F/F"),
    "sampler_levels": (
        "sample() stops after a fixed 50 levels; at p=0.01 q^50 puts most draws on "
        "one value near 7e-25 (ROADMAP item 3)"),
    "p100_representable": (
        "recorded only: at p=100 F jumps by 0.72 between the two doubles next to 3/4, "
        "so no double sampler meets the band"),
    "plot_cap": (
        "plot-data's default --iterations 17 trips the 5,000,000-point cap at "
        "iteration 12 and exits 5 (ROADMAP item 5)"),
}
ROUNDING_BUDGET = 1e-12


@dataclass
class Check:
    """Outcome of one kind of correctness check over a run.

    Each miss counts as failed and is filed under the key of CAUSES that
    explains it, or under "unexplained".  A check with counted=False is
    recorded but not scored."""
    name: str
    counted: bool = True
    attempted: int = 0
    failed: int = 0
    causes: dict = field(default_factory=dict)
    worst: float = 0.0
    examples: list = field(default_factory=list)

    def add(self, ok: bool, excess: float = 0.0, example=None, cause: str | None = None):
        self.attempted += 1
        if ok:
            return
        cause = cause or "unexplained"
        self.failed += 1
        self.causes[cause] = self.causes.get(cause, 0) + 1
        self.worst = max(self.worst, excess)
        if example is not None and sum(e["cause"] == cause for e in self.examples) < 2:
            self.examples.append(dict(example, cause=cause))

    @property
    def unexplained(self) -> int:
        return self.causes.get("unexplained", 0)


@dataclass
class Result:
    latencies: list = field(default_factory=list)
    references: list = field(default_factory=list)
    op_attempted: int = 0
    op_failed: int = 0
    op_errors: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    cycle_rss_mb: float = 0.0
    items: int = 0
    extra: dict = field(default_factory=dict)
    reference: object = calibration.array_reference
    _last_reference: float = 0.0

    def check(self, name, **kw) -> Check:
        if name not in self.checks:
            self.checks[name] = Check(name, **kw)
        return self.checks[name]

    def end_cycle(self):
        """Record the peak RSS once the first cycle (one operation at each p)
        is done: it depends only on that fixed work, where the peak at the
        end of the run also depends on how many cycles ran."""
        if not self.cycle_rss_mb:
            self.cycle_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op(self, calls, thunk, items=1):
        """Time one operation between two runs of the reference loop; an
        exception fails it and keeps the loop going.  Probes queued by a
        traced call run afterwards, outside the timed region."""
        self.op_attempted += 1
        before = self._last_reference or calibration.timed(self.reference)
        start = time.perf_counter()
        try:
            value = thunk()
        except Exception:
            self.op_failed += 1
            if len(self.op_errors) < 3:
                self.op_errors.append(traceback.format_exc(limit=3))
            value = None
        took = time.perf_counter() - start
        calls.run_probes()
        self._last_reference = calibration.timed(self.reference)
        if value is not None:
            self.latencies.append(took)
            self.references.append(0.5 * (before + self._last_reference))
            self.items += items
        return value


def _reflected(xs: np.ndarray) -> np.ndarray:
    # the arguments mrl_many and payoff_curve hand to the F/J kernel
    return np.where(xs >= 1.0 / 3.0, 1.0 - xs, xs)


def scan_points(grid_n: int = 1000) -> np.ndarray:
    """The points fixed_point_solve's uniqueness scan sends to mrl_many."""
    xs = np.unique(np.concatenate((np.linspace(0.0, 1.0, grid_n), inputs.gap_endpoints(),
                                   [1.0 / 3.0, 2.0 / 3.0])))
    return xs[xs < 1.0]


# ---- probes: inner calls a public function hides, timed again on the same inputs

def _probe_mrl_many(P, xs):
    z = _reflected(xs)
    return [("distribution", "cdf_many", lambda: sm.cdf_many(P, z), z.size, None),
            ("integration", "cdf_integral_many", lambda: sm.cdf_integral_many(P, z), z.size, None)]


def _probe_payoff_curve(P, xs):
    z = _reflected(xs)
    return [("integration", "cdf_integral_many", lambda: sm.cdf_integral_many(P, z), z.size, None)]


def _probe_fixed_point(P):
    scan = scan_points()
    return [("distribution", "gap_intervals", lambda: sm.gap_intervals(8), 1, None),
            ("mrl", "mrl_many", lambda: sm.mrl_many(P, scan), scan.size,
             lambda: _probe_mrl_many(P, scan))]


def _probe_optimal_price(P):
    return [("fixedpoint", "fixed_point_solve", lambda: sm.fixed_point_solve(P), 1,
             lambda: _probe_fixed_point(P))]


def _probe_scalar(P, x):
    z = 1.0 - x if x >= 1.0 / 3.0 else x
    return [("distribution", "cdf", lambda: sm.cdf(P, z), 1, None),
            ("integration", "cdf_integral", lambda: sm.cdf_integral(P, z), 1, None)]


# ---- grid-eval

def _allowed(interval, bound, slack):
    """Closed float interval a value may take: the exact value (or the
    oracle's exact bracket) widened by the library's reported bound and a
    rounding slack, rounded outward."""
    lo, hi = interval
    width = Fraction(bound) + Fraction(slack)
    return (float(np.nextafter(float(lo - width), -np.inf)),
            float(np.nextafter(float(hi + width), np.inf)))


def oracle_bounds(P, fam, xs):
    """Allowed intervals for F, J and m at each x, from the oracle and the
    bounds the scalar evaluators report at the same double.  Below 1/3,
    m = (...)/(1 - F(x)) divides the numerator's rounding by 1 - F(x), so
    m's slack is divided by it too.  Also the scalar m, and the second-order
    term m r^2/(1 - r), r = e_F/F, that mrl's first-order quotient bound
    (e_J + m e_F)/F leaves out."""
    rows = {"F": [], "J": [], "m": [], "m_scalar": [], "m_second": []}
    for x in xs.tolist():
        f_exact = oracle.cdf(fam, x)
        m_scalar = sm.mrl(P, x)
        m_slack = SLACK if x >= 1.0 / 3.0 else SLACK / float(1 - f_exact[1])
        rows["F"].append(_allowed(f_exact, sm.cdf_with_bound(P, x)[1], SLACK))
        rows["J"].append(_allowed(oracle.cdf_integral(fam, x),
                                  sm.cdf_integral(P, x).error_bound, SLACK))
        rows["m"].append(_allowed(oracle.mrl(fam, x), m_scalar.error_bound, m_slack))
        rows["m_scalar"].append(m_scalar.value)
        z = _library_start("m", x)[0]
        den, den_bound = sm.cdf_with_bound(P, z)
        if x < 1.0 / 3.0:
            den = 1.0 - den
        r = den_bound / den if den > 0.0 else 0.0
        rows["m_second"].append(m_scalar.value * r * r / (1.0 - r) if r < 1.0 else np.inf)
    return {k: np.array(v).reshape(len(xs), -1) for k, v in rows.items()}


def _library_start(q, x):
    """The double the library's descent starts from for quantity q at x, and
    the exact point it stands for: m reflects x >= 1/3 to 1 - x, snapped
    onto the plateau as the library does."""
    if q != "m" or x < 1.0 / 3.0:
        return x, Fraction(x)
    z = 1.0 - x
    if x <= 2.0 / 3.0:
        z = min(max(z, 1.0 / 3.0), 2.0 / 3.0)
    return z, 1 - Fraction(x)


def quotient_slack(P, x) -> float | None:
    """How far mrl_many may stray beyond scalar mrl's bound at x through the
    mrl_many_quotient defect: J(1-x)'s error bound at the default tolerance
    over F(1-x).  None where mrl_many does not take the vector quotient: below
    1/3 (the direct form, as scalar mrl), at 1, or where F(1-x)'s bound is
    loose (den_bound > 0.1 den) and mrl_many falls back to scalar mrl."""
    if not 1.0 / 3.0 <= x < 1.0:
        return None
    z = _library_start("m", x)[0]
    den, den_bound = sm.cdf_with_bound(P, z)
    if den <= 0.0 or den_bound > 0.1 * den:
        return None
    return sm.cdf_integral(P, z).error_bound / den


def miss_cause(P, q, x, value, excess, bounds, i):
    """The seed defect behind a value outside its allowed interval, or None."""
    if oracle.float_path_diverges(*_library_start(q, x)):
        return "rounded_descent"
    if excess <= ROUNDING_BUDGET:
        return "accumulator_rounding"
    if q != "m":
        return None
    lo, hi = bounds["m"][i]
    scalar, second = bounds["m_scalar"][i, 0], bounds["m_second"][i, 0]
    if value == scalar:
        return "first_order_bound" if excess <= second + ROUNDING_BUDGET else None
    if max(lo - scalar, scalar - hi) > second + ROUNDING_BUDGET:
        return None
    slack = quotient_slack(P, x)
    if slack is not None and excess <= slack + second + ROUNDING_BUDGET:
        return "mrl_many_quotient"
    return None


def score(P, check, q, values, bounds, xs, memo):
    """Count each value in its allowed interval as passed and each other as
    a miss, filed under its cause."""
    lo, hi = bounds[q][:, 0], bounds[q][:, 1]
    excess = np.maximum(lo - values, values - hi)
    for i in np.flatnonzero(excess > 0.0).tolist():
        x, v, e = float(xs[i]), float(values[i]), float(excess[i])
        if (q, x, v) not in memo:
            memo[(q, x, v)] = miss_cause(P, q, x, v, e, bounds, i)
        check.add(False, e, {"x": x, "value": v, "excess": e}, cause=memo[(q, x, v)])
    check.attempted += int(np.count_nonzero(excess <= 0.0))


def grid_eval(seed, seconds, calls) -> Result:
    res = Result()
    ends = inputs.gap_endpoints()
    fams = {p: oracle.Family(p) for p in inputs.P_SET}
    end_bounds = {p: oracle_bounds(sm.PSingularParams(p), fams[p], ends) for p in inputs.P_SET}
    kept = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for _ in inputs.P_SET:
            batch = inputs.grid_batch(seed, index, ends)
            P = sm.PSingularParams(batch["p"])
            xs = batch["xs"]
            n = xs.size

            def op():
                with calls.request(index):
                    return (calls.call("distribution", "cdf_many", sm.cdf_many, P, xs, items=n),
                            calls.call("integration", "cdf_integral_many", sm.cdf_integral_many,
                                       P, xs, items=n),
                            calls.call("mrl", "mrl_many", sm.mrl_many, P, xs, items=n,
                                       probes=lambda: _probe_mrl_many(P, xs)),
                            calls.call("pricing", "payoff_curve", sm.payoff_curve, P, xs, items=n,
                                       probes=lambda: _probe_payoff_curve(P, xs)))
            out = res.op(calls, op, items=n)
            if out is not None:
                # keep only the checked values, not whole batches
                kept.append((batch["p"], {
                    part: (xs[batch[part]], {q: v[batch[part]] for q, v in zip("FJm", out)})
                    for part in ("body", "tail", "endpoints")}))
            index += 1
        res.end_cycle()

    # one check per quantity and kind of point, so that losing every sampled
    # body or tail point of one quantity moves success_rate by a whole class
    causes = {p: {} for p in inputs.P_SET}
    for p, parts in kept:
        P = sm.PSingularParams(p)
        for part, (xs, values) in parts.items():
            bounds = end_bounds[p] if part == "endpoints" else oracle_bounds(P, fams[p], xs)
            for q in "FJm":
                score(P, res.check(f"oracle.{q}.{part}"), q, values[q], bounds, xs, causes[p])
    return res


# ---- solve-price

SCALAR_LAYER = {"cdf": "distribution", "survival": "distribution",
                "cdf_integral": "integration", "mrl": "mrl", "gmrl": "mrl",
                "expected_payoff": "pricing"}


def solve_price(seed, seconds, calls) -> Result:
    # one operation is a sweep of SOLVE_STRATA requests, one per log-p stratum:
    # a request costs about 7 ms for p < 1 and 11 ms for p > 1, so the median
    # of single requests would flip between the two
    res = Result(reference=calibration.small_call_reference)
    fns = {name: getattr(sm, name) for name in SCALAR_LAYER}
    hides = {"mrl", "gmrl", "expected_payoff"}
    kept = []
    start = time.perf_counter()
    block = 0
    while block == 0 or time.perf_counter() - start < seconds:
        reqs = [inputs.solve_request(seed, block * inputs.SOLVE_STRATA + k)
                for k in range(inputs.SOLVE_STRATA)]

        def op():
            priced = []
            for k, req in enumerate(reqs):
                P = sm.PSingularParams(req["p"])
                with calls.request(block * inputs.SOLVE_STRATA + k):
                    priced.append(calls.call(
                        "pricing", "optimal_price", sm.optimal_price, P, curve_points=200,
                        probes=lambda P=P: _probe_optimal_price(P)))
                    for name, x in req["calls"]:
                        calls.call(SCALAR_LAYER[name], name, fns[name], P, x,
                                   probes=(lambda P=P, x=x: _probe_scalar(P, x))
                                   if name in hides else None)
            return priced
        priced = res.op(calls, op, items=len(reqs))
        if priced is not None:
            kept += [(req["p"], r.optimal_price, r.fixed_point.sign_changes)
                     for req, r in zip(reqs, priced)]
        block += 1
        res.end_cycle()
    res.extra["requests"] = len(kept)

    closed = res.check("solve.closed_form")
    unique = res.check("solve.one_sign_change")
    for p, x_star, changes in kept:
        dev = abs(x_star - float(oracle.fixed_point(oracle.Family(p))))
        closed.add(dev <= SOLVE_TOLERANCE, dev, {"p": p, "x_star": x_star})
        cause = None if changes == 1 else sign_change_cause(sm.PSingularParams(p), changes)
        unique.add(changes == 1, float(changes), {"p": p, "sign_changes": changes}, cause=cause)
    return res


def _signs(g: np.ndarray) -> np.ndarray:
    # the uniqueness scan's rule: |m(x) - x| below twice the tolerance has no sign
    return np.where(np.abs(g) < 2e-10, 0.0, np.sign(g))


def _sign_changes(signs: np.ndarray) -> int:
    return int(np.count_nonzero(np.diff(signs[signs != 0.0]) != 0))


def sign_change_cause(P, changes: int) -> str | None:
    """mrl_many_quotient if mrl_many on the scan's points reproduces the
    reported count, a rescan with scalar mrl finds one sign change, and at
    every point where the two signs differ, mrl_many is off scalar mrl by
    no more than that defect allows; otherwise None."""
    xs = scan_points()
    many = sm.mrl_many(P, xs)
    scalar = [sm.mrl(P, x) for x in xs.tolist()]
    values = np.array([m.value for m in scalar])
    vector_signs, scalar_signs = _signs(many - xs), _signs(values - xs)
    if _sign_changes(vector_signs) != changes or _sign_changes(scalar_signs) != 1:
        return None
    for i in np.flatnonzero(vector_signs != scalar_signs).tolist():
        slack = quotient_slack(P, float(xs[i]))
        if slack is None or abs(many[i] - values[i]) > (
                slack + 2.0 * scalar[i].error_bound + ROUNDING_BUDGET):
            return None
    return "mrl_many_quotient"


# ---- mc-sample

def mc_sample(seed, seconds, calls) -> Result:
    # one operation draws MC_DRAWS at every p and builds one point cloud, at
    # the next p of the cycle: the draws cost 0.04-0.2 s per p and the cloud
    # about 0.23 s at any p, so every operation does the same mix of work
    res = Result()
    pools = {p: DrawPool() for p in inputs.P_SET}
    cloud_check = res.check("mc.point_cloud")
    params = [sm.PSingularParams(p) for p in inputs.P_SET]
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for cloud_p in params:
            seeds = inputs.sample_seeds(seed, index)

            def op():
                with calls.request(index):
                    draws = [calls.call("distribution", "sample", sm.sample, P, s, inputs.MC_DRAWS,
                                        items=inputs.MC_DRAWS) for P, s in zip(params, seeds)]
                    cloud = calls.call("distribution", "point_cloud", sm.point_cloud, cloud_p,
                                       *inputs.CLOUD_ARGS)
                    return draws, cloud
            out = res.op(calls, op, items=len(params) * inputs.MC_DRAWS)
            if out is not None:
                for p, draws in zip(inputs.P_SET, out[0]):
                    pools[p].add(draws)
                cloud_check.add(cloud_ok(out[1]), 1.0, {"p": cloud_p.p})
            index += 1
        res.end_cycle()
    for P in params:
        score_draws(res, *pools[P.p].stats(P))
    res.extra["draws_per_p"] = pools[1.0].n
    return res


def cloud_ok(cloud) -> bool:
    """A point cloud is part of a CDF's graph: more points than it started
    with, x sorted in [0, 1] and F nondecreasing in [0, 1]."""
    x, f = np.asarray(cloud.x), np.asarray(cloud.F)
    return bool(x.size == f.size and x.size > inputs.CLOUD_ARGS[0]
                and np.all(np.diff(x) >= 0.0) and np.all(np.diff(f) >= 0.0)
                and x[0] >= 0.0 and x[-1] <= 1.0 and f[0] >= 0.0 and f[-1] <= 1.0)


# ---- draws (scored by mc-sample and in each traced run)

class DrawPool:
    """Draws at one p pooled over a run: their moments, and the first
    DKW_DRAWS draws for the DKW band."""

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.squares = 0.0
        self.head = []
        self.head_n = 0

    def add(self, draws: np.ndarray) -> None:
        self.n += draws.size
        self.total += float(draws.sum())
        self.squares += float(np.dot(draws, draws))
        if self.head_n < DKW_DRAWS:
            self.head.append(draws[:DKW_DRAWS - self.head_n].copy())
            self.head_n += self.head[-1].size

    def stats(self, P):
        """(p, |mean - E[X]|, SE, DKW sup deviation, DKW band)."""
        mean = self.total / self.n
        variance = max(self.squares - self.n * mean * mean, 0.0) / (self.n - 1)
        dev = abs(mean - float(oracle.Family(P.p).mean))
        return (P.p, dev, math.sqrt(variance / self.n)) + _dkw(P, np.concatenate(self.head))


def _dkw(P, draws):
    xs = np.sort(draws)
    f = sm.cdf_many(P, xs)
    n = xs.size
    i = np.arange(1, n + 1)
    sup = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
    band = math.sqrt(math.log(2.0 / (1.0 - DKW_CONFIDENCE)) / (2.0 * n))
    return sup, band


def draw_stats(P, draws):
    """DrawPool.stats of one sample."""
    pool = DrawPool()
    pool.add(draws)
    return pool.stats(P)


def score_draws(res, p, dev, se, sup, band):
    res.check(f"mc.mean_4se.p{p:g}").add(dev <= 4.0 * se, dev - 4.0 * se,
                                         {"dev": dev, "four_se": 4.0 * se})
    check = res.check(f"mc.dkw.p{p:g}", counted=p != 100.0)
    check.add(sup <= band, sup - band, {"sup": sup, "band": band},
              cause={0.01: "sampler_levels", 100.0: "p100_representable"}.get(p))


# ---- cli

_NUMBER = r"([-+0-9.eE]+|nan|inf)"


def _cli_expected(name):
    """The in-process library result each command's output must agree with."""
    P1 = sm.PSingularParams(1.0)
    if name == "cdf":
        return sm.cdf_with_bound(P1, 0.25)[0]
    if name == "mrl":
        return sm.mrl(sm.PSingularParams(2.0), 0.5).value
    if name == "gmrl":
        return sm.gmrl(P1, 0.4)
    if name == "fixpoint":
        return sm.fixed_point_solve(P1).x_star
    if name == "price":
        r = sm.optimal_price(P1)
        return [r.p, r.optimal_price, r.expected_payoff]
    if name == "statics":
        return [[r.p, r.optimal_price, r.expected_payoff]
                for r in sm.comparative_statics([0.5, 1.0, 2.0])]
    return None


def _cli_output(name, child):
    """Parse a command's result from its output, as the library's floats."""
    out = child.stdout
    if name in ("cdf", "gmrl", "fixpoint"):
        return float(re.search(r"= " + _NUMBER, out).group(1))
    if name == "mrl":
        return json.loads(out)["value"]
    if name == "price":
        return [float(v) for v in out.strip().split("\n")[1].split(",")]
    if name == "statics":
        return [[float(v) for v in row]
                for row in re.findall(r"p = (\S+): price (\S+), payoff (\S+)", out)]
    return None


def _check_plot_files(stem, iterations, cwd):
    """The export's rows against point_cloud and mrl_many in process."""
    P1 = sm.PSingularParams(1.0)
    cloud = sm.point_cloud(P1, 1000, iterations)
    grid = plot_grid()
    m = sm.mrl_many(P1, grid)
    cdf_rows = np.loadtxt(os.path.join(cwd, f"{stem}.cdf.csv"), delimiter=",", skiprows=1)
    mrl_rows = np.loadtxt(os.path.join(cwd, f"{stem}.mrl.csv"), delimiter=",", skiprows=1)
    ok = (cdf_rows.shape == (len(cloud), 2) and np.array_equal(cdf_rows[:, 0], cloud.x)
          and np.array_equal(cdf_rows[:, 1], cloud.F) and mrl_rows.shape == (grid.size, 2)
          and np.array_equal(mrl_rows[:, 0], grid) and np.array_equal(mrl_rows[:, 1], m))
    return ok, len(cloud) + grid.size


def plot_grid() -> np.ndarray:
    """The MRL grid plot-data evaluates with its default --grid 1000."""
    return np.unique(np.concatenate((np.linspace(0.0, 1.0, 1000), inputs.gap_endpoints())))


def cli_round(env, scratch, res) -> dict:
    """Each command of inputs.CLI_COMMANDS as its own process, in sequence,
    in a fresh temporary directory.  Scores every exit code and output into
    `res` and returns {name: Child}."""
    cwd = tempfile.mkdtemp(prefix="cli-", dir=scratch)
    try:
        children = {name: procs.run(procs.python("-m", "singular_mrl.cli", *args), env, scratch, cwd)
                    for name, args in inputs.CLI_COMMANDS}
        exit_ok = res.check("cli.exit_code")
        readme_plot = res.check("cli.exit_code.plot_data_readme")
        agrees = res.check("cli.agrees_with_library")
        for name, child in children.items():
            target = readme_plot if name == "plot_data_readme" else exit_ok
            target.add(child.code == 0, float(child.code),
                       {"command": name, "code": child.code, "stderr": child.stderr[-300:]},
                       cause="plot_cap" if target is readme_plot and child.code == 5 else None)
            if child.code != 0:
                continue
            if name == "verify":
                summary = re.search(r"(\d+)/(\d+) checks passed", child.stdout)
                ok = summary is not None and summary.group(1) == summary.group(2)
            elif name.startswith("plot_data"):
                ok, rows = _check_plot_files("fig9" if name == "plot_data" else "fig",
                                             9 if name == "plot_data" else 17, cwd)
                res.extra[f"{name}.rows"] = rows
            else:
                try:
                    ok = _cli_output(name, child) == _cli_expected(name)
                except (AttributeError, ValueError, IndexError, KeyError):
                    ok = False
            agrees.add(ok, 1.0, {"command": name, "stdout": child.stdout[:200]})
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    return children


WORKLOADS = {"grid-eval": grid_eval, "solve-price": solve_price, "mc-sample": mc_sample}
