"""The invariant checks behind `singular-mrl verify` and the acceptance gate.

Each check returns a CheckResult.  `run_all` collects them for `verify`;
the acceptance gate and the unit tests call the same checks with their own
p values, seeds, sample sizes and grids.  The checks cross-validate the
deterministic evaluators against closed forms, functional-equation
residuals, Monte Carlo sampling, and grid dominance of the pricing
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distribution as dist
from . import integration as integ
from .distribution import (DEFAULT_CONFIG, EvalConfig, PSingularParams, gap_grid,
                           gap_intervals, seeded_rng)
from .fixedpoint import fixed_point_solve, verify_uniqueness
from .mrl import mrl, mrl_at_one_third, mrl_many
from .pricing import expected_payoff, payoff_curve


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_cdf_monotone(params, config, rng, n=2000):
    xs = np.sort(rng.random(n))
    f = dist.cdf_many(params, xs, config)
    worst = float(np.max(np.diff(f) * -1)) if n > 1 else 0.0
    ok = worst <= 2.0 * config.tolerance
    return _result(f"cdf monotone (p={params.p})", ok, f"max decrease {worst:.3e}")


def check_functional_equation_i(params, config, rng, n=2000):
    xs = rng.random(n)
    lhs = dist.cdf_many(params, xs / 3.0, config)
    rhs = dist.cdf_many(params, xs, config) / (params.p + 1.0)
    worst = float(np.max(np.abs(lhs - rhs)))
    ok = worst <= 2.0 * config.tolerance
    return _result(f"functional equation (i) (p={params.p})", ok, f"max residual {worst:.3e}")


def check_functional_equation_ii(params, config, rng, n=2000):
    # the reflection condition pins F on [1/3, 1] from [0, 2/3];
    # for p != 1 it only holds with x restricted to [0, 2/3]
    hi = 1.0 if params.p == 1.0 else 2.0 / 3.0
    xs = rng.random(n) * hi
    inner = EvalConfig(tolerance=config.tolerance / (1.0 + params.p), max_depth=config.max_depth)
    lhs = dist.cdf_many(params, 1.0 - xs, inner)
    rhs = 1.0 - params.p * dist.cdf_many(params, xs, inner)
    worst = float(np.max(np.abs(lhs - rhs)))
    ok = worst <= 2.0 * config.tolerance
    return _result(f"functional equation (ii) (p={params.p})", ok, f"max residual {worst:.3e}")


def check_plateau(params, config):
    xs = np.linspace(1.0 / 3.0, 2.0 / 3.0, 101)
    f = dist.cdf_many(params, xs, config)
    ok = bool(np.all(f == 1.0 / (params.p + 1.0)))
    return _result(f"plateau exact (p={params.p})", ok, "F = 1/(p+1) on [1/3, 2/3]")


def check_dkw(params, config, seed, n=1_000_000, confidence=0.999):
    xs = np.sort(dist.sample(params, seed, n))
    f = dist.cdf_many(params, xs, config)
    i = np.arange(1, n + 1)
    sup = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
    band = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))
    ok = sup <= band
    return _result(f"DKW band (p={params.p})", ok, f"sup dev {sup:.3e} <= band {band:.3e}")


def check_integral_lipschitz(params, config, n=2001):
    xs = np.linspace(0.0, 1.0, n)
    j = integ.cdf_integral_many(params, xs, config)
    dj = np.diff(j)
    dx = np.diff(xs)
    slack = 2.0 * config.tolerance
    ok = bool(np.all(dj >= -slack) and np.all(dj <= dx + slack))
    return _result(f"J nondecreasing, 1-Lipschitz (p={params.p})", ok,
                   f"dJ in [{dj.min():.3e}, {dj.max():.3e}]")


def check_mean_identity(config):
    worst = 0.0
    for p in np.logspace(-3, 3, 13):
        params = PSingularParams(p)
        dev = abs(integ.cdf_integral(params, 1.0, config).value - (1.0 - integ.mean(params)))
        worst = max(worst, dev)
    ok = worst <= config.tolerance
    return _result("mean = 1 - J(1) on log grid", ok, f"max deviation {worst:.3e}")


def check_mc_mean(params, config, seed, n=1_000_000):
    draws = dist.sample(params, seed, n)
    se = float(draws.std(ddof=1)) / math.sqrt(n)
    dev = abs(float(draws.mean()) - integ.mean(params))
    ok = dev <= 4.0 * se
    return _result(f"Monte Carlo mean (p={params.p})", ok, f"|dev| {dev:.3e} <= 4 SE {4 * se:.3e}")


def check_mrl_anchor(config):
    worst = 0.0
    for p in np.logspace(-2, 2, 9):
        params = PSingularParams(p)
        dev = abs(mrl(params, 1.0 / 3.0, config).value - mrl_at_one_third(params))
        worst = max(worst, dev)
    ok = worst <= config.tolerance
    return _result("m(1/3) closed form on log grid", ok, f"max deviation {worst:.3e}")


def check_gap_slope(params, config, level=6, samples=5):
    # reference and sample points are taken strictly inside each gap:
    # the float nearest a gap edge can fall just outside the real gap,
    # where F (hence m) genuinely moves by far more than the tolerance
    a, b = np.array(gap_intervals(level)).T
    xs = np.column_stack((np.nextafter(a, 1.0),
                          np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), samples, axis=1),
                          np.nextafter(b, 0.0)))
    m = mrl_many(params, xs, config)
    worst = float(np.max(np.abs(m[:, 1:] - (m[:, :1] - (xs[:, 1:] - xs[:, :1])))))
    ok = worst <= 2.0 * config.tolerance
    return _result(f"slope -1 on gap intervals (p={params.p})", ok, f"max deviation {worst:.3e}")


def check_mrl_range(params, config, rng, n=500):
    xs = np.sort(rng.random(n))
    m = mrl_many(params, xs, config)
    slack = 2.0 * config.tolerance
    ok = bool(np.all(m >= -slack) and np.all(m <= 1.0 - xs + slack))
    return _result(f"0 <= m(x) <= 1 - x (p={params.p})", ok,
                   f"m in [{m.min():.3e}, {m.max():.3e}]")


def check_boundary(params, config):
    v = mrl(params, 1.0 - 1e-6, config)
    ok = v.value < 1e-5 or v.value <= v.error_bound
    return _result(f"m(1 - 1e-6) -> 0 (p={params.p})", ok, f"value {v.value:.3e}")


def check_fixed_point_bounds(config):
    ps = np.logspace(-3, 3, 25)
    stars = np.array([fixed_point_solve(PSingularParams(p), config).x_star for p in ps])
    ok = bool(np.all(stars > 0.375) and np.all(stars < 0.5) and np.all(np.diff(stars) < 0))
    return _result("x*(p) in (3/8, 1/2), decreasing", ok,
                   f"range [{stars.min():.6f}, {stars.max():.6f}]")


def check_solver_agreement(config):
    worst = 0.0
    for p in np.logspace(-2, 2, 9):
        params = PSingularParams(p)
        fp = fixed_point_solve(params, config)
        worst = max(worst, abs(fp.x_star - fp.closed_form))
    ok = worst <= 1e-8
    return _result("solver vs closed form on log grid", ok, f"max |x* - formula| {worst:.3e}")


def check_uniqueness(params, config, grid_n=1000):
    changes = verify_uniqueness(params, grid_n, config)
    ok = changes == 1
    return _result(f"uniqueness scan (p={params.p})", ok, f"{changes} sign change(s)")


def check_lemma_sandwich(params, config, rng, n=300):
    slack = 4.0 * config.tolerance
    y, delta, u_hi, u_lo = rng.random((4, n))
    delta = delta * 0.5 + 1e-9
    x_hi = np.minimum(y + u_hi * delta * 0.999, 1.0)
    x_lo = np.maximum(y - u_lo * delta * 0.999, 0.0)
    xs = np.stack((y, x_hi, x_lo))
    gy, g_hi, g_lo = mrl_many(params, xs, config) - xs
    # (i): g(x) > g(y) - 2 delta for y <= x < y + delta
    # (ii): g(x) < g(y) + 2 delta for y - delta < x <= y
    margin = np.minimum(g_hi - (gy - 2.0 * delta), (gy + 2.0 * delta) - g_lo)
    worst = float(np.min(margin))
    # inside one gap g has slope -2 and the margin is 2 delta (1 - 0.999 u)
    # whatever p is; the lemma has content where [x_lo, x_hi] holds mass
    f_lo, f_hi = dist.cdf_many(params, np.stack((x_lo, x_hi)), config)
    across = float(np.min(margin[f_lo < f_hi], initial=math.inf))
    ok = worst >= -slack
    return _result(f"MRL sandwich inequalities (p={params.p})", ok,
                   f"min margin {worst:.3e}, {across:.3e} across the Cantor set")


def check_pricing(params, config, grid_n=1000):
    fp = fixed_point_solve(params, config)
    foc = abs(fp.residual)
    grid = gap_grid(grid_n)
    best = expected_payoff(params, fp.x_star, config)
    curve = payoff_curve(params, grid, config)
    dominance = float(np.max(curve) - best)
    ok = foc <= config.tolerance and dominance <= 2.0 * config.tolerance
    return _result(f"pricing optimum (p={params.p})", ok,
                   f"|FOC| {foc:.3e}, max dominance gap {dominance:.3e}")


def check_pricing_mc(params, config, seed, n=1_000_000, prices=None):
    if prices is None:
        prices = seeded_rng(seed).random(10)
    draws = dist.sample(params, seed + 1, n)
    worst = -math.inf
    for price in prices:
        payoff = price * np.maximum(draws - price, 0.0)
        se = float(payoff.std(ddof=1)) / math.sqrt(n)
        dev = abs(float(payoff.mean()) - expected_payoff(params, price, config))
        worst = max(worst, dev - 4.0 * se)
    ok = worst <= 0.0
    return _result(f"pricing Monte Carlo (p={params.p})", ok,
                   f"max (dev - 4 SE) {worst:.3e}")


def run_all(p_values=(0.5, 1.0, 2.0), tolerance=DEFAULT_CONFIG.tolerance, seed=12345,
            grid_n=1000) -> list[CheckResult]:
    """Run the full invariant suite; returns one CheckResult per property."""
    config = EvalConfig(tolerance=tolerance)
    rng = seeded_rng(seed)
    results = [
        check_mean_identity(config),
        check_mrl_anchor(config),
        check_fixed_point_bounds(config),
        check_solver_agreement(config),
    ]
    for p in p_values:
        params = PSingularParams(p)
        results += [
            check_cdf_monotone(params, config, rng),
            check_functional_equation_i(params, config, rng),
            check_functional_equation_ii(params, config, rng),
            check_plateau(params, config),
            check_integral_lipschitz(params, config),
            check_mc_mean(params, config, seed),
            check_gap_slope(params, config),
            check_mrl_range(params, config, rng),
            check_boundary(params, config),
            check_uniqueness(params, config, grid_n),
            check_lemma_sandwich(params, config, rng),
            check_pricing(params, config, grid_n),
        ]
    one = PSingularParams(1.0)
    results.append(check_dkw(one, config, seed))
    results.append(check_pricing_mc(one, config, seed))
    return results
