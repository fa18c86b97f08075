"""One workload in one fresh process, started by run.py.

With --setup-only it imports the library, warms up the workload's calls,
times the reference loop and exits, so run.py can time set-up from outside.
That path loads nothing of the benchmark but the seeded inputs, so set-up
is what a library user pays.  Otherwise the worker runs the workload
(untimed warm-up first) and prints one JSON object on its last line of
stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time

import numpy as np
import singular_mrl as sm

import inputs


def warm_up(workload: str) -> None:
    """First calls of everything the workload uses, on small inputs."""
    for p in inputs.P_SET:
        P = sm.PSingularParams(p)
        xs = np.linspace(0.0, 1.0, 101)
        if workload == "grid-eval":
            sm.cdf_many(P, xs), sm.cdf_integral_many(P, xs), sm.mrl_many(P, xs), sm.payoff_curve(P, xs)
        elif workload == "solve-price":
            sm.optimal_price(P, curve_points=200)
            for name in set(inputs.SCALAR_CALLS):
                getattr(sm, name)(P, 0.5)
        elif workload == "mc-sample":
            sm.sample(P, 0, 1000)
            sm.point_cloud(P, 100, 3)


def _summary(res) -> dict:
    # loaded here, not at the top, to keep them out of the set-up path
    import calibration
    import workloads
    counted = [c for c in res.checks.values() if c.counted]
    unexplained = sum(c.unexplained for c in counted)
    misses = sum(c.failed for c in counted)
    # the operations and each check are one class each, weighted equally
    rates = [1.0 - c.failed / c.attempted for c in counted if c.attempted]
    if res.op_attempted:
        rates.append(1.0 - res.op_failed / res.op_attempted)
    return {
        "latencies": res.latencies,
        "references": res.references,
        "scaled_latencies": [calibration.NOMINAL_S[res.reference] * t / r
                             for t, r in zip(res.latencies, res.references)],
        "items": res.items,
        "attempted": res.op_attempted + sum(c.attempted for c in counted),
        # a miss traced to a documented seed defect is reported (checks,
        # known_defect_misses, success_rate) but is not a failure of the run:
        # only failed operations and unexplained misses are
        "failed": res.op_failed + unexplained,
        "known_defect_misses": misses - unexplained,
        "success_rate": statistics.fmean(rates) if rates else 1.0,
        "correct": res.op_failed == 0 and unexplained == 0,
        "checks": [dataclasses.asdict(c) for c in res.checks.values()],
        "causes": workloads.CAUSES,
        "op_errors": res.op_errors,
        "cycle_rss_mb": res.cycle_rss_mb,
        "extra": res.extra,
    }


def _p50_ratio(res) -> float:
    # operation time over the neighbouring reference loop
    return statistics.median(t / r for t, r in zip(res.latencies, res.references))


def _setup_only() -> int:
    # everything from here on is subtracted from the set-up sample
    done = time.perf_counter()
    import calibration
    reference = calibration.small_call_reference
    times = [calibration.timed(reference) for _ in range(5)]
    print(json.dumps({"post_setup_s": time.perf_counter() - done,
                      "scale": calibration.NOMINAL_S[reference] / statistics.median(times)}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    warm_up(args.workload)
    if args.setup_only:
        return _setup_only()

    import layers
    import procs
    import tracing
    import workloads
    run = workloads.WORKLOADS[args.workload]
    if not args.trace:
        out = _summary(run(args.seed, args.seconds, tracing.Calls()))
    else:
        # untraced and traced halves on the same inputs; their gap is the
        # tracing overhead, and end-to-end figures never come from here
        half = args.seconds / 2.0
        plain = run(args.seed, half, tracing.Calls())
        tracer = tracing.Tracer()
        traced = run(args.seed, half, tracer)
        # the layer suite's checks (the draws, the CLI round) count too
        checked = workloads.Result()
        suite = layers.suite(args.seed, procs.child_env(args.root), args.scratch, checked)
        out = _summary(traced)
        for extra in (_summary(plain), _summary(checked)):
            out["attempted"] += extra["attempted"]
            out["failed"] += extra["failed"]
            out["known_defect_misses"] += extra["known_defect_misses"]
            out["correct"] = out["correct"] and extra["correct"]
            out["checks"] += extra["checks"]
        per_layer = {"trace.overhead_pct": (100.0 * (_p50_ratio(traced) / _p50_ratio(plain) - 1.0), "%"),
                     "trace.spans": (float(len(tracer.spans)), "count"),
                     "calibration.reference_ms": (1e3 * statistics.median(plain.references), "ms")}
        for layer, row in tracer.layer_summary(len(traced.latencies)).items():
            per_layer[f"{layer}.self_ms_per_op"] = (row["self_ms_per_op"], "ms")
            per_layer[f"{layer}.probe_ms_per_op"] = (row["probe_ms_per_op"], "ms")
            per_layer[f"{layer}.calls"] = (float(row["calls"]), "count")
            per_layer[f"{layer}.items"] = (float(row["items"]), "count")
            per_layer[f"{layer}.errors"] = (float(row["errors"]), "count")
        per_layer.update(suite)
        out["per_layer"] = per_layer
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
