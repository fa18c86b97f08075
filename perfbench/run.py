"""Benchmark for singular-mrl: one workload per invocation.

    python3 perfbench/run.py --workload grid-eval --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the library is imported from
./src; nothing needs installing).  Workloads: grid-eval, solve-price and
mc-sample (see README.md here).  Each runs in a fresh worker
process with one thread, as a closed loop with one caller.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload
untraced and traced on the same inputs and prints the per-layer metrics
with the tracing overhead.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment and every check.  Details and spans are also
written to .perfbench_out/.  Exits 2 without a result when the checkout
holds no library source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import procs  # noqa: E402

SETUP_REPEATS = 9
WORKLOADS = ("grid-eval", "solve-price", "mc-sample")
ITEMS = {"grid-eval": "points", "solve-price": "requests", "mc-sample": "draws"}
END_TO_END_UNITS = {"setup_s": "s", "success_rate": "ratio", "peak_rss_mb": "MB",
                    "latency_ms_p50": "ms", "latency_ms_tail": "ms", "throughput_per_s": "1/s"}


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum when there are fewer
    than eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def timings(setup: list[tuple[float, float]], out: dict) -> dict:
    """Scaled and raw times.  The worker scales each operation's wall time
    by the reference loop timed next to it, and each set-up sample carries
    the scale of the reference loop timed in the same process (see
    calibration.NOMINAL_S).  On a shared machine whose speed drifts within
    and between runs this takes out most of the drift; the raw figures
    stay alongside."""
    lat, scaled = out["latencies"], out["scaled_latencies"]
    value, percentile, n = tail(scaled)
    return {
        "setup_s": statistics.median(t * k for t, k in setup),
        "latency_ms_p50": 1e3 * statistics.median(scaled),
        "latency_ms_tail": 1e3 * value,
        "throughput_per_s": out["items"] / sum(scaled),
        "tail_percentile": percentile,
        "ops": n,
        "raw_setup_s": statistics.median(t for t, _ in setup),
        "raw_latency_ms_p50": 1e3 * statistics.median(lat),
        "raw_latency_ms_tail": 1e3 * tail(lat)[0],
        "raw_throughput_per_s": out["items"] / sum(lat),
        "reference_ms_p50": 1e3 * statistics.median(out["references"]),
    }


def end_to_end(setup: list[tuple[float, float]], out: dict) -> dict:
    t = timings(setup, out)
    t["success_rate"] = out["success_rate"]
    t["peak_rss_mb"] = out["cycle_rss_mb"]
    return {k: {"value": t[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}


def environment(root: str, seed: int) -> dict:
    import numpy
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, check=False)
        sha = found.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "thread_env": {k: os.environ.get(k) for k in procs.SINGLE_THREAD_ENV},
        "worker_thread_env": procs.SINGLE_THREAD_ENV,
        "machine": platform.machine(),
    }


def _worker_output(child):
    if child.code != 0:
        print(f"perfbench: worker failed ({child.code}):\n{child.stderr}", file=sys.stderr)
        return None
    return json.loads(child.stdout.strip().split("\n")[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "singular_mrl", "__init__.py")):
        print("perfbench: no library source at ./src/singular_mrl; run from the root "
              "of a singular-mrl checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(root, ".perfbench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench_tmp"))
    try:
        env = procs.child_env(root)
        worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                  "--root", root, "--scratch", scratch]
        tag = f"{args.workload}-s{args.seed}-t{args.trace}"

        setup = []
        for _ in range(SETUP_REPEATS):
            child = procs.run(worker + ["--setup-only"], env, scratch)
            probe = _worker_output(child)
            if probe is None:
                return 1
            setup.append((child.wall_s - probe["post_setup_s"], probe["scale"]))

        child = procs.run(worker + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace),
                                    "--spans", os.path.join(out_dir, f"spans-{tag}.jsonl")],
                          env, scratch)
        out = _worker_output(child)
        if out is None:
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["per_layer"].items()}
    else:
        metrics = end_to_end(setup, out)
    detail = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(root, args.seed), "items": ITEMS[args.workload],
        "timings": timings(setup, out), "setup_samples_s_and_scale": setup,
        "worker_peak_rss_mb": child.peak_rss_mb, "cycle_rss_mb": out["cycle_rss_mb"],
        "known_defect_misses": out["known_defect_misses"],
        "checks": out["checks"], "causes": out["causes"],
        "op_errors": out["op_errors"], "extra": out["extra"],
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
