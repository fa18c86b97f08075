"""Seeded inputs for every workload.

Each generator is a pure function of the workload seed and an operation
index, so equal seeds give identical inputs and the library only ever
receives the generated p values and arrays.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

P_SET = (0.01, 1.0, 100.0)
BATCH_POINTS = 100_000
TAIL_SHARE = 0.01
TAIL_WIDTH = 1e-6
CHECK_BODY = 48
CHECK_TAIL = 16
SOLVE_STRATA = 32
SCALAR_CALLS = ("cdf", "survival", "cdf_integral", "mrl", "gmrl",
                "expected_payoff", "cdf", "mrl")
MC_DRAWS = 100_000
CLOUD_ARGS = (1000, 10)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def gap_endpoints(max_level: int = 8) -> np.ndarray:
    """Rounded endpoints of every open middle-third gap of level <= max_level,
    sorted: the points fixed-point scans and plot-data send to the kernel."""
    level = [(Fraction(1, 3), Fraction(2, 3))]
    gaps = list(level)
    for _ in range(max_level - 1):
        level = [g for a, b in level for g in ((a / 3, b / 3), ((2 + a) / 3, (2 + b) / 3))]
        gaps.extend(level)
    return np.array(sorted(float(e) for gap in gaps for e in gap))


def grid_batch(seed: int, index: int, endpoints: np.ndarray) -> dict:
    """One grid-eval batch: uniform doubles, a tail slice within TAIL_WIDTH
    of 1, and every rounded gap endpoint, shuffled together.  `body` and
    `tail` hold the positions of a seeded subsample of the uniform and the
    tail points, `endpoints` those of the gap endpoints."""
    rng = _rng(seed, index)
    n_tail = int(BATCH_POINTS * TAIL_SHARE)
    n_uniform = BATCH_POINTS - n_tail - endpoints.size
    tail = 1.0 - rng.random(n_tail) * TAIL_WIDTH
    xs = np.concatenate((rng.random(n_uniform), tail, endpoints))
    order = rng.permutation(xs.size)
    xs = xs[order]
    where = np.empty(xs.size, dtype=np.intp)
    where[order] = np.arange(xs.size)
    body = where[:n_uniform]
    tail_pos = where[n_uniform:n_uniform + n_tail]
    return {"p": P_SET[index % len(P_SET)], "xs": xs,
            "body": rng.choice(body, CHECK_BODY, replace=False),
            "tail": rng.choice(tail_pos, CHECK_TAIL, replace=False),
            "endpoints": where[n_uniform + n_tail:]}


def solve_request(seed: int, index: int) -> dict:
    """One solve-price request: p log-uniform on [0.01, 100], stratified so
    that every SOLVE_STRATA consecutive requests cover the range once, and
    the points of its scalar calls (in (0, 1], so gmrl is defined)."""
    rng = _rng(seed, index)
    stratum = (index % SOLVE_STRATA + rng.random()) / SOLVE_STRATA
    p = float(10.0 ** (-2.0 + 4.0 * stratum))
    xs = (1.0 - rng.random(len(SCALAR_CALLS))).tolist()
    return {"p": p, "calls": list(zip(SCALAR_CALLS, xs))}


def sample_seeds(seed: int, index: int) -> list[int]:
    """The generator seeds of one mc-sample round, one per p of P_SET."""
    return _rng(seed, index).integers(0, 2 ** 63, size=len(P_SET)).tolist()


# The README examples, verbatim, then one export that fits under the
# point-cloud cap.  Each runs as its own process.
CLI_COMMANDS = (
    ("cdf", ("cdf", "--p", "1", "--x", "0.25")),
    ("mrl", ("mrl", "--p", "2", "--x", "0.5", "--format", "json")),
    ("gmrl", ("gmrl", "--x", "0.4")),
    ("fixpoint", ("fixpoint", "--p", "1")),
    ("price", ("price", "--p", "1", "--format", "csv")),
    ("statics", ("statics", "--p-list", "0.5,1,2")),
    ("verify", ("verify",)),
    ("plot_data_readme", ("plot-data", "--p", "1", "--out", "fig.csv")),
    ("plot_data", ("plot-data", "--p", "1", "--iterations", "9", "--out", "fig9.csv")),
)
