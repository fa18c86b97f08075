"""F, J and m against the exact oracle (`perfbench/oracle.py`, through the
`oracle` fixture): each lies within its reported bound, plus the rounding
of its last few float operations, of the exact value at the double that
was passed.

The rounding allowance is 4 ulps of 1 for F and J, and for m the same over
m's denominator: 1 - F(x) below 1/3 and F(1 - x) above, as the quotient
divides the rounding of its terms by it.  A walk that takes a branch the
double does not take misses by far more: at fl(1/9) the old float walk was
6.9e-3 off at p = 0.01 and 1.3e-11 at p = 1, with bound 0.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (PSingularParams, cdf_integral, cdf_integral_many, cdf_many,
                          cdf_with_bound, expected_payoff, gap_intervals, mrl, mrl_many,
                          payoff_curve, survival)
from singular_mrl.distribution import DEFAULT_CONFIG, GAP_LEVEL, gap_grid

SLACK = Fraction(4 * 2.0 ** -52)
# the rounded endpoints of every gap of level <= GAP_LEVEL: 510 doubles
ENDPOINTS = np.ravel(gap_intervals(GAP_LEVEL))
P_EXACT = [0.01, 1.0, 100.0]


def misses(value, interval, bound, slack=SLACK):
    """How far value lies outside the exact interval widened by bound and
    slack, as a float; 0 inside it."""
    lo, hi = interval
    v, width = Fraction(value), Fraction(bound) + slack
    return float(max(lo - width - v, v - hi - width, 0))


def m_slack(oracle, fam, x):
    """4 ulps of 1 over m's denominator at x."""
    if Fraction(x) < Fraction(1, 3):
        den = 1 - oracle.cdf(fam, x)[1]
    else:
        den = oracle.cdf(fam, 1 - Fraction(x))[0]
    return SLACK / den if den > 0 else SLACK


def scalar_misses(oracle, fam, params, x):
    """(F, J, m) misses of the scalar evaluators at x."""
    f, f_bound = cdf_with_bound(params, x)
    j = cdf_integral(params, x)
    m = mrl(params, x)
    return (misses(f, oracle.cdf(fam, x), f_bound),
            misses(j.value, oracle.cdf_integral(fam, x), j.error_bound),
            misses(m.value, oracle.mrl(fam, x), m.error_bound, m_slack(oracle, fam, x)))


@pytest.mark.parametrize("p", P_EXACT)
def test_gap_endpoints_within_bounds(oracle, p):
    # every rounded gap endpoint of level <= 8, where a rounded walk takes
    # the branch of the real endpoint instead of the double's; the vector
    # evaluators give the scalars' values there
    params, fam = PSingularParams(p), oracle.Family(p)
    f, j, m = cdf_many(params, ENDPOINTS), cdf_integral_many(params, ENDPOINTS), \
        mrl_many(params, ENDPOINTS)
    for i, x in enumerate(ENDPOINTS.tolist()):
        assert scalar_misses(oracle, fam, params, x) == (0.0, 0.0, 0.0), x
        assert (f[i], j[i], m[i]) == (cdf_with_bound(params, x)[0],
                                      cdf_integral(params, x).value, mrl(params, x).value), x


@given(x=st.floats(min_value=0.0, max_value=1.0), p=st.sampled_from(P_EXACT))
@settings(max_examples=300, deadline=None)
def test_any_double_within_bounds(oracle, x, p):
    assert scalar_misses(oracle, oracle.Family(p), PSingularParams(p), x) == (0.0, 0.0, 0.0)


def test_tiny_p_mrl_within_bounds(oracle):
    # at p = 1e-12 F is so steep beside every plateau that a rounded walk
    # was far off below 1/3: mrl(P, fl(1/9)) gave 0.5555 with bound 3.5e-4
    # against an exact 0.3704, and plot-data wrote it
    params, fam = PSingularParams(1e-12), oracle.Family(1e-12)
    xs = gap_grid(100)[gap_grid(100) < 1 / 3]
    values = mrl_many(params, xs)
    for x, value in zip(xs.tolist(), values.tolist()):
        m = mrl(params, x)
        assert value == m.value
        assert misses(value, oracle.mrl(fam, x), m.error_bound, m_slack(oracle, fam, x)) == 0.0, x


@pytest.mark.parametrize("p", [1e-12, 0.01, 1.0, 100.0])
def test_tail_quantities_below_one_third(oracle, p):
    # survival and the payoff below 1/3, p S' and x p K' from the tail
    # walk's sums: survival within the tolerance of 1 - F(x), the payoff
    # within p x times it (K' is resolved to the tolerance), each plus the
    # leading run's rounding, (k + 2) 2^-51 of the value for a run of
    # k < log_3(1/x) steps.  At p = 1e-12 the complements 1 - F(x) and
    # (1 - x) - (J(1) - J(x)) were off by 25% and 30% of the value
    params, fam, tol = PSingularParams(p), oracle.Family(p), Fraction(1e-10)
    xs = np.concatenate(([0.0, 1 / 3], ENDPOINTS[ENDPOINTS < 1 / 3],
                         np.random.default_rng(31).random(40) / 3))
    for x, pay in zip(xs.tolist(), payoff_curve(params, xs).tolist()):
        s, run = survival(params, x), (2.0 - math.log(x, 3.0) if x else 2.0) * 2.0 ** -51
        f_lo, f_hi = oracle.cdf(fam, x)
        assert misses(s, (1 - f_hi, 1 - f_lo), tol, Fraction(run * s)) == 0.0, x
        j_lo, j_hi = oracle.cdf_integral(fam, x)
        base, X = 1 - Fraction(x) - fam.j1, Fraction(x)
        assert pay == expected_payoff(params, x)
        assert misses(pay, (X * (base + j_lo), X * (base + j_hi)), X * fam.p * tol,
                      Fraction(run * pay)) == 0.0, x


CANCELS = pytest.mark.xfail(strict=True, reason="ROADMAP item 2: F's and J's alternating "
                            "right steps cancel to O(1/p) near y = 3/4, and m's bound is 0")


@pytest.mark.parametrize("p,x", [
    (1e6, 0.77),
    pytest.param(1e7, 0.77, marks=CANCELS),
    pytest.param(1e8, 0.7715716408662807, marks=CANCELS),
    pytest.param(1e10, 0.77, marks=CANCELS)])
def test_mrl_above_one_third_at_large_p(oracle, p, x):
    # the rows of ROADMAP item 2's table: m above 1/3 within its bound plus
    # (1 + m) tol of the oracle, which it misses by 4.5e-10, 2.9e-9 and
    # 1.7e-8 from p = 1e7, each with a reported bound of 0
    m = mrl(PSingularParams(p), x)
    tol = Fraction(DEFAULT_CONFIG.tolerance)
    assert misses(m.value, oracle.mrl(oracle.Family(p), x), m.error_bound,
                  (1 + Fraction(m.value)) * tol) == 0.0
