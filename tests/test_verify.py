import numpy as np
import pytest

from singular_mrl import EvalConfig, PSingularParams, gap_intervals, mrl
from singular_mrl.verify import check_gap_slope, check_lemma_sandwich

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
    # four scalar draws and three scalar `mrl` calls per trial
    worst = 0.0
    for _ in range(n):
        y = rng.random()
        delta = rng.random() * 0.5 + 1e-9
        gy = mrl(params, y, config).value - y
        x_hi = min(y + rng.random() * delta * 0.999, 1.0)
        worst = min(worst, mrl(params, x_hi, config).value - x_hi - (gy - 2.0 * delta))
        x_lo = max(y - rng.random() * delta * 0.999, 0.0)
        worst = min(worst, (gy + 2.0 * delta) - (mrl(params, x_lo, config).value - x_lo))
    return worst >= -4.0 * config.tolerance, f"min margin {worst:.3e}"


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_vector_checks_match_scalar_loops(p):
    params = PSingularParams(p)
    slope = check_gap_slope(params, CONFIG)
    assert (slope.passed, slope.detail) == gap_slope_reference(params, CONFIG)
    rng, ref_rng = np.random.default_rng(12345), np.random.default_rng(12345)
    sandwich = check_lemma_sandwich(params, CONFIG, rng)
    assert (sandwich.passed, sandwich.detail) == sandwich_reference(params, CONFIG, ref_rng)
    # the shared generator is left where the scalar draws leave it
    assert rng.random() == ref_rng.random()
