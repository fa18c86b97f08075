"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline;
plain `pytest` captures them but still enforces every assertion.
"""

import time

import numpy as np

from singular_mrl import (EvalConfig, PSingularParams, ResourceLimitError,
                          cdf_many, fixed_point_closed_form, fixed_point_solve,
                          gap_intervals, mrl, mrl_at_one_third, mrl_many,
                          point_cloud)
from singular_mrl.integration import cdf_integral, mean
from singular_mrl.verify import (check_functional_equation_i,
                                 check_functional_equation_ii, check_gap_slope,
                                 check_lemma_sandwich, check_mc_mean,
                                 check_pricing, check_pricing_mc,
                                 check_uniqueness)

P_FAMILY = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0)
CONFIG = EvalConfig(tolerance=1e-10)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _checked(results) -> tuple[bool, str]:
    """Whether every `verify` check passed, and their details on one line."""
    return (all(r.passed for r in results),
            "; ".join(f"{r.name}: {r.detail}" for r in results))


def test_criterion_01_fixed_point_p1():
    start = time.perf_counter()
    fp = fixed_point_solve(PSingularParams(1.0))
    elapsed = time.perf_counter() - start
    dev = abs(fp.x_star - 5.0 / 12.0)
    ok = dev <= 1e-9 and elapsed < 1.0
    _report(1, "p=1 solver hits 5/12 within 1e-9 in under 1 s", ok,
            f"|dev| {dev:.3e}, {elapsed:.3f} s")


def test_criterion_02_closed_form_family():
    family = [PSingularParams(p) for p in P_FAMILY]
    solved = [fixed_point_solve(params).x_star for params in family]
    worst = float(np.max([abs(x - fixed_point_closed_form(params))
                          for x, params in zip(solved, family)]))
    decreasing = all(a > b for a, b in zip(solved, solved[1:]))
    in_range = all(0.375 < s < 0.5 for s in solved)
    ok = worst <= 1e-8 and decreasing and in_range
    _report(2, "solved x* matches 1/6 + (5p+4)/(12(2p+1)) across 8 p values, "
               "strictly decreasing, inside (3/8, 1/2)", ok,
            f"max |dev| {worst:.3e}")


def test_criterion_03_proof_step_anchors():
    one = PSingularParams(1.0)
    d0 = abs(mrl(one, 0.0).value - 0.5)
    d1 = abs(mrl(one, 20.0 / 81.0).value - 29.0 / 66.0)
    family = [PSingularParams(p) for p in P_FAMILY]
    # at 1 - fl(2/3), the least double on the plateau: fl(1/3) lies
    # below 1/3, off the plateau, where F is steep
    worst = float(np.max([abs(mrl(params, 1.0 - 2.0 / 3.0).value - mrl_at_one_third(params))
                          for params in family]))
    ok = d0 <= 1e-9 and d1 <= 1e-9 and worst <= 1e-9
    _report(3, "m1(0)=1/2, m1(20/81)=29/66, m_p(1/3)=(5p+4)/(6(2p+1)) "
               "each within 1e-9", ok,
            f"devs {d0:.3e}, {d1:.3e}, max anchor {worst:.3e}")


def test_criterion_04_mean_identities():
    family = [PSingularParams(p) for p in P_FAMILY]
    # J(1) is stored as 1 - mean, so J is read at 1 - 2^-53, where the walk
    # descends; J(1) - J(x) lies in [0, 2^-53], far inside the bound 1e-10
    x = np.nextafter(1.0, 0.0)
    worst = float(np.max([abs(mean(params) - (1.0 - cdf_integral(params, x).value))
                          for params in family]))
    mc_ok, mc_detail = _checked([check_mc_mean(PSingularParams(p), CONFIG, 20240 + int(10 * p))
                                 for p in (0.5, 1.0, 2.0)])
    ok = worst <= 1e-10 and mc_ok
    _report(4, "mean = 3p/(2(2p+1)) = 1 - J(1) within 1e-10; "
               "Monte Carlo mean of 1e6 draws within 4 SE", ok,
            f"max identity dev {worst:.3e}; " + mc_detail)


def test_criterion_05_functional_equation_residuals():
    rng = np.random.default_rng(42)
    results = []
    for p in (0.5, 1.0, 3.0):
        params = PSingularParams(p)
        results += [check_functional_equation_i(params, CONFIG, rng, n=10 ** 4),
                    check_functional_equation_ii(params, CONFIG, rng, n=10 ** 4)]
    ok, detail = _checked(results)
    _report(5, "defining equations (i) and (ii) hold within 2e-10 at 1e4 "
               "random points for p in {0.5, 1, 3}", ok, detail)


def test_criterion_06_sandwich_and_gap_slope():
    one = PSingularParams(1.0)
    ok, detail = _checked([check_lemma_sandwich(one, CONFIG, np.random.default_rng(7), n=10 ** 3),
                           check_gap_slope(one, CONFIG)])
    _report(6, "sandwich inequalities hold at 1e3 random triples; "
               "slope -1 exact on all level-<=6 gaps within 2e-10", ok, detail)


def test_criterion_07_uniqueness_scan():
    scan_ok, scan_detail = _checked([check_uniqueness(PSingularParams(p), CONFIG, 5000)
                                     for p in (0.01, 0.1, 1.0, 10.0, 100.0)])
    # explicit left-side positivity, including the plateau edge x = 1/3
    params = PSingularParams(0.01)
    xs = np.linspace(0.0, 1.0 / 3.0, 2000)
    g = mrl_many(params, xs) - xs
    left_ok = bool(np.all(g > 0.0)) and mrl(params, 1.0 / 3.0).value > 1.0 / 3.0
    ok = scan_ok and left_ok
    _report(7, "exactly one sign change of m(x) - x on grid 5000 + gap "
               "endpoints for 5 p values; m(x) - x > 0 on [0, 1/3]", ok,
            f"{scan_detail}; min left margin {float(g.min()):.3e}")


def test_criterion_08_pricing():
    # the check samples with seed + 1, so the draws come from seed 987654
    one = PSingularParams(1.0)
    ok, detail = _checked([check_pricing_mc(one, CONFIG, 987653, n=10 ** 7, prices=[5.0 / 12.0])]
                          + [check_pricing(PSingularParams(p), CONFIG) for p in (0.5, 1.0, 2.0)])
    _report(8, "payoff at 5/12 matches 1e7-sample Monte Carlo within 4 SE; "
               "|m(x*) - x*| within the tolerance and payoff at x* dominates "
               "1000-point grid + gap endpoints", ok, detail)


def test_criterion_09_point_cloud():
    one = PSingularParams(1.0)
    # at the stated parameters the cloud roughly doubles per iteration
    # (about 2000 * 2^k points), so 17 iterations would need ~2.6e8
    # points; the resource cap of 5e6 must therefore trip, which is the
    # "runtime and memory bounded" half of the criterion
    try:
        point_cloud(one, n_initial=1000, iterations=17, max_points=5_000_000)
        capped = False
    except ResourceLimitError:
        capped = True
    # substantive accuracy checks at the largest cloud under the cap
    cloud = point_cloud(one, n_initial=1000, iterations=11, max_points=5_000_000)
    dev = float(np.max(np.abs(cdf_many(one, cloud.x) - cloud.F)))
    monotone = bool(np.all(np.diff(cloud.x) > 0) and np.all(np.diff(cloud.F) >= 0))
    endpoints = (cloud.x[0], cloud.F[0], cloud.x[-1], cloud.F[-1]) == (0.0, 0.0, 1.0, 1.0)
    ok = capped and dev <= 1e-10 and monotone and endpoints
    _report(9, "cap of 5e6 points enforced at the stated 17 iterations; "
               "at 11 iterations every point satisfies |cdf(x) - F| <= 1e-10 "
               "and the cloud is monotone", ok,
            f"{len(cloud)} points, max |cdf - F| {dev:.3e}")


def test_criterion_10_dmrl_violation():
    one = PSingularParams(1.0)
    # x and y straddle the level-2 Cantor points 2/9 and 7/27: x sits in
    # the gap (1/9, 2/9), y in the gap (7/27, 8/27)
    x = 2.0 / 9.0 - 1e-3
    y = 7.0 / 27.0 + 1e-3
    mx = mrl(one, x).value
    my = mrl(one, y).value
    violation = x < y and mx < my - 1e-6
    decreasing = True
    for a, b in gap_intervals(4):
        xs = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), 6)
        ms = mrl_many(one, xs)
        decreasing &= bool(np.all(np.diff(ms) < 0.0))
    ok = violation and decreasing
    _report(10, "m jumps upward across Cantor dust (not DMRL) while "
                "strictly decreasing inside every sampled gap", ok,
            f"m({x:.4f})={mx:.6f} < m({y:.4f})={my:.6f} - 1e-6")
