"""Per-layer measurements: each layer timed from outside through calls into
its public functions, on seeded inputs of the kind its workload sends.

The layers are the modules of `singular_mrl`.  README.md in this directory
names the end-to-end figure each metric should move.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import singular_mrl as sm
from singular_mrl import verify
from singular_mrl.distribution import EvalConfig

import calibration
import inputs
import procs
import workloads

SUITE_SEED_OFFSET = 1_000_003
SCALAR_REPEATS = 1000
SAMPLE_DRAWS = 200_000
REPEATS = 5
VERIFY_CHECKS = ("check_mc_mean", "check_dkw", "check_pricing_mc", "check_uniqueness",
                 "check_lemma_sandwich", "check_gap_slope")


def _median_time(fn, *args, repeats=REPEATS, **kwargs):
    return statistics.median(calibration.timed(fn, *args, **kwargs) for _ in range(repeats))


def _p_tag(p: float) -> str:
    return f"p{p:g}"


def library_layers(seed: int, res: workloads.Result) -> dict:
    """Vectorized kernels on grid-eval batches, scalar calls on solve-price
    points, the generators and the solvers, at every p of the workloads.
    The draws are scored into `res` with the draw checks."""
    m = {}
    ends = inputs.gap_endpoints()
    totals = {"cdf_many": 0.0, "cdf_integral_many": 0.0, "payoff_curve": 0.0}
    points = 0
    for i, p in enumerate(inputs.P_SET):
        batch = inputs.grid_batch(seed + SUITE_SEED_OFFSET, i, ends)
        P = sm.PSingularParams(p)
        xs = batch["xs"]
        tail_mask = xs >= 1.0 - inputs.TAIL_WIDTH
        body, tail = xs[~tail_mask], xs[tail_mask]
        totals["cdf_many"] += calibration.timed(sm.cdf_many, P, xs)
        totals["cdf_integral_many"] += calibration.timed(sm.cdf_integral_many, P, xs)
        totals["payoff_curve"] += calibration.timed(sm.payoff_curve, P, xs)
        points += xs.size
        m[f"mrl_many.body_ns_per_point.{_p_tag(p)}"] = (
            1e9 * calibration.timed(sm.mrl_many, P, body) / body.size, "ns")
        m[f"mrl_many.tail_ns_per_point.{_p_tag(p)}"] = (
            1e9 * calibration.timed(sm.mrl_many, P, tail) / tail.size, "ns")
        start = time.perf_counter()
        draws = sm.sample(P, seed, SAMPLE_DRAWS)
        m[f"sample.ns_per_draw.{_p_tag(p)}"] = (1e9 * (time.perf_counter() - start) / SAMPLE_DRAWS,
                                                "ns")
        workloads.score_draws(res, *workloads.draw_stats(P, draws))
    for name, total in totals.items():
        m[f"{name}.ns_per_point"] = (1e9 * total / points, "ns")

    cloud_time = cloud_points = 0
    for p in inputs.P_SET:
        P = sm.PSingularParams(p)
        start = time.perf_counter()
        cloud = sm.point_cloud(P, *inputs.CLOUD_ARGS)
        cloud_time += time.perf_counter() - start
        cloud_points += len(cloud)
    m["point_cloud.ns_per_point"] = (1e9 * cloud_time / cloud_points, "ns")
    m["gap_intervals.ms_per_call"] = (1e3 * _median_time(sm.gap_intervals, 8, repeats=20), "ms")

    # scalar calls at solve-price's (p, x) pairs
    scalar = {name: 0.0 for name in ("cdf", "survival", "cdf_integral", "mrl", "expected_payoff")}
    for i in range(SCALAR_REPEATS):
        req = inputs.solve_request(seed + SUITE_SEED_OFFSET, i)
        P = sm.PSingularParams(req["p"])
        x = req["calls"][0][1]
        for name in scalar:
            scalar[name] += calibration.timed(getattr(sm, name), P, x)
    for name, total in scalar.items():
        m[f"{name}.us_per_call"] = (1e6 * total / SCALAR_REPEATS, "us")

    scan = workloads.scan_points()
    solver = {"mrl_many.scan_ms_per_call": [], "fixed_point_solve.ms_per_call": [],
              "fixed_point_solve.noscan_ms_per_call": [], "verify_uniqueness.ms_per_call": [],
              "optimal_price.ms_per_call": []}
    for p in inputs.P_SET:
        P = sm.PSingularParams(p)
        solver["mrl_many.scan_ms_per_call"].append(_median_time(sm.mrl_many, P, scan))
        solver["fixed_point_solve.ms_per_call"].append(_median_time(sm.fixed_point_solve, P))
        solver["fixed_point_solve.noscan_ms_per_call"].append(
            _median_time(sm.fixed_point_solve, P, scan_grid_n=0))
        solver["verify_uniqueness.ms_per_call"].append(_median_time(sm.verify_uniqueness, P, 1000))
        solver["optimal_price.ms_per_call"].append(
            _median_time(sm.optimal_price, P, curve_points=200))
    for name, times in solver.items():
        m[name] = (1e3 * statistics.fmean(times), "ms")
    return m


def verify_checks() -> dict:
    """The costly checks of `verify.run_all`, each called directly with the
    arguments run_all gives it, timed in total over its p values."""
    p_values, tolerance, seed, grid_n = (0.5, 1.0, 2.0), 1e-10, 12345, 1000
    config = EvalConfig(tolerance=tolerance)
    rng = np.random.default_rng(seed)
    one = sm.PSingularParams(1.0)
    per_p = {
        "check_mc_mean": lambda P: verify.check_mc_mean(P, config, seed),
        "check_gap_slope": lambda P: verify.check_gap_slope(P, config),
        "check_uniqueness": lambda P: verify.check_uniqueness(P, config, grid_n),
        "check_lemma_sandwich": lambda P: verify.check_lemma_sandwich(P, config, rng),
    }
    seconds = {name: 0.0 for name in VERIFY_CHECKS}
    for p in p_values:
        P = sm.PSingularParams(p)
        for name, check in per_p.items():
            seconds[name] += calibration.timed(check, P)
    seconds["check_dkw"] = calibration.timed(verify.check_dkw, one, config, seed)
    seconds["check_pricing_mc"] = calibration.timed(verify.check_pricing_mc, one, config, seed)
    return {f"verify.{name}.s": (seconds[name], "s") for name in VERIFY_CHECKS}


def cli_layer(env, scratch, res: workloads.Result) -> dict:
    """Import cost, and each subcommand as its own process, with the CLI
    checks scored into `res`."""
    m = {}
    bare = statistics.median(procs.run(procs.python("-c", "pass"), env, scratch).wall_s
                             for _ in range(REPEATS))
    imported = statistics.median(
        procs.run(procs.python("-c", "import singular_mrl.cli"), env, scratch).wall_s
        for _ in range(REPEATS))
    m["cli.import_ms"] = (1e3 * (imported - bare), "ms")

    children = workloads.cli_round(env, scratch, res)
    for name, child in children.items():
        m[f"cli.{name}.wall_ms"] = (1e3 * child.wall_s, "ms")
        m[f"cli.{name}.peak_rss_mb"] = (child.peak_rss_mb, "MB")

    P1 = sm.PSingularParams(1.0)
    grid = workloads.plot_grid()
    start = time.perf_counter()
    sm.point_cloud(P1, 1000, 9)
    sm.mrl_many(P1, grid)
    compute = time.perf_counter() - start
    m["cli.plot_data.compute_share"] = (compute / children["plot_data"].wall_s, "ratio")
    return m


def suite(seed: int, env, scratch, res: workloads.Result) -> dict:
    m = library_layers(seed, res)
    m.update(verify_checks())
    m.update(cli_layer(env, scratch, res))
    return m
