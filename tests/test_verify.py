import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest

from singular_mrl import (EvalConfig, ParameterError, PSingularParams, cdf, expected_payoff,
                          gap_intervals, mrl, sample)
from singular_mrl import verify

CONFIG = EvalConfig()


def gap_slope_reference(params, config, level=6, samples=5):
    # one scalar `mrl` call per point, gap by gap
    worst = 0.0
    for a, b in gap_intervals(level):
        lo, hi = np.nextafter(a, 1.0), np.nextafter(b, 0.0)
        xs = np.concatenate(([lo], np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), samples), [hi]))
        m0 = mrl(params, xs[0], config).value
        for x in xs[1:]:
            worst = max(worst, abs(mrl(params, x, config).value - (m0 - (x - xs[0]))))
    return worst <= 2.0 * config.tolerance, f"max deviation {worst:.3e}"


def sandwich_reference(params, config, rng, n=300):
    # n draws each of y, delta, u_hi and u_lo, then three scalar `mrl` calls
    # per trial, and two scalar `cdf` calls for whether it holds mass
    ys, deltas, u_his, u_los = (rng.random(n) for _ in range(4))
    worst = across = math.inf
    for y, delta, u_hi, u_lo in zip(ys, deltas * 0.5 + 1e-9, u_his, u_los):
        gy = mrl(params, y, config).value - y
        x_hi = min(y + u_hi * delta * 0.999, 1.0)
        margin = mrl(params, x_hi, config).value - x_hi - (gy - 2.0 * delta)
        x_lo = max(y - u_lo * delta * 0.999, 0.0)
        margin = min(margin, (gy + 2.0 * delta) - (mrl(params, x_lo, config).value - x_lo))
        worst = min(worst, margin)
        if cdf(params, x_lo, config) < cdf(params, x_hi, config):
            across = min(across, margin)
    return (worst >= -4.0 * config.tolerance,
            f"min margin {worst:.3e}, {across:.3e} across the Cantor set")


def pricing_mc_reference(params, config, seed, prices, n):
    # one sample from seed + 1, one 4-SE test per price
    draws = sample(params, seed + 1, n)
    worst = -math.inf
    for price in prices:
        payoff = price * np.maximum(draws - price, 0.0)
        se = float(payoff.std(ddof=1)) / math.sqrt(n)
        dev = abs(float(payoff.mean()) - expected_payoff(params, price, config))
        worst = max(worst, dev - 4.0 * se)
    return worst <= 0.0, f"max (dev - 4 SE) {worst:.3e}"


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_vector_checks_match_scalar_loops(p):
    params = PSingularParams(p)
    slope = verify.check_gap_slope(params, CONFIG)
    assert (slope.passed, slope.detail) == gap_slope_reference(params, CONFIG)
    rng, ref_rng = np.random.default_rng(12345), np.random.default_rng(12345)
    sandwich = verify.check_lemma_sandwich(params, CONFIG, rng)
    assert (sandwich.passed, sandwich.detail) == sandwich_reference(params, CONFIG, ref_rng)
    # the shared generator is left where the scalar draws leave it
    assert rng.random() == ref_rng.random()
    prices = [0.15, 0.41, 0.7, 0.93]
    priced = verify.check_pricing_mc(params, CONFIG, 554, n=10 ** 5, prices=prices)
    assert (priced.passed, priced.detail) == pricing_mc_reference(params, CONFIG, 554, prices, 10 ** 5)


def test_fixed_point_bounds_checks_the_solver(monkeypatch):
    assert verify.check_fixed_point_bounds(CONFIG).passed
    monkeypatch.setattr(verify, "fixed_point_solve",
                        lambda params, config: SimpleNamespace(x_star=0.6))
    assert not verify.check_fixed_point_bounds(CONFIG).passed


def test_run_all_rejects_negative_seed():
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        verify.run_all(p_values=(1.0,), seed=-1)


@pytest.mark.parametrize("name, args", [
    ("check_mc_mean", ("P", "config", 12345)),
    ("check_gap_slope", ("P", "config")),
    ("check_uniqueness", ("P", "config", 1000)),
    ("check_lemma_sandwich", ("P", "config", "rng")),
    ("check_dkw", ("one", "config", 12345)),
    ("check_pricing_mc", ("one", "config", 12345)),
])
def test_benchmark_call_signatures(name, args):
    # perfbench/layers.py::verify_checks calls these checks positionally
    inspect.signature(getattr(verify, name)).bind(*args)
