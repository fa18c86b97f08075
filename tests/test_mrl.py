import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (DomainError, EvalConfig, PSingularParams, gap_intervals, gmrl,
                          mean, mrl, mrl_at_one_third, mrl_many, sample, survival)
from singular_mrl.distribution import _CHUNK

P1 = PSingularParams(1.0)
P2 = PSingularParams(2.0)


class TestAnchors:
    def test_at_zero_equals_mean(self):
        # m(0) = E[X]
        assert mrl(P1, 0.0).value == pytest.approx(0.5, abs=1e-10)
        assert mrl(P2, 0.0).value == pytest.approx(0.6, abs=1e-10)

    @pytest.mark.parametrize("p", [1e-300, 1e-20, 0.01, 1.0, 100.0, 1e300])
    def test_at_zero_is_the_mean(self, p):
        # the tail walk ends x = 0 on entry with S' = 1 and K' = E[X],
        # unscaled, so m(0) is `mean` itself, in both loops, and its bound
        # is that closed form's rounding; survival(0) is 1
        params = PSingularParams(p)
        m = mrl(params, 0.0)
        assert m.value == mrl_many(params, [0.0])[0] == mean(params)
        assert m.error_bound == 2.0 ** -50 * mean(params)
        assert survival(params, 0.0) == 1.0

    def test_at_one_is_exact_zero(self):
        v = mrl(P1, 1.0)
        assert v.value == 0.0 and v.error_bound == 0.0

    def test_closed_form_at_one_third(self):
        assert mrl_at_one_third(P1) == pytest.approx(0.5, abs=0)
        assert mrl_at_one_third(P2) == pytest.approx(7 / 15, abs=1e-16)
        # fl(1/3) lies below 1/3, off the plateau, where F is steep; the
        # least double on the plateau, 1 - fl(2/3), is within an ulp of 1/3
        for p in (0.01, 0.1, 0.5, 5.0, 100.0):
            params = PSingularParams(p)
            assert mrl(params, 1 - 2 / 3).value == pytest.approx(
                mrl_at_one_third(params), abs=1e-10)

    def test_known_interior_value(self):
        # for p = 1, m(20/81) = 29/66
        assert mrl(P1, 20 / 81).value == pytest.approx(29 / 66, abs=1e-10)

    def test_plateau_midpoint(self):
        # on [1/3, 2/3] m is linear with slope -1: m(1/2) = m(1/3) - 1/6
        assert mrl(P1, 0.5).value == pytest.approx(1 / 3, abs=1e-10)


class TestShape:
    def test_linear_on_plateau(self):
        xs = np.linspace(1 / 3, 2 / 3, 41)
        m = mrl_many(P2, xs)
        expected = mrl_at_one_third(P2) - (xs - 1 / 3)
        assert m == pytest.approx(expected, abs=1e-10)

    def test_slope_minus_one_inside_gaps(self):
        for a, b in gap_intervals(3):
            lo = np.nextafter(a, 1.0)
            xs = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), 7)
            m0 = mrl(P2, lo).value
            for x in xs:
                assert mrl(P2, x).value == pytest.approx(m0 - (x - lo), abs=1e-9)

    def test_vanishes_at_right_endpoint(self):
        for p in (0.5, 1.0, 2.0, 100.0):
            v = mrl(PSingularParams(p), 1.0 - 1e-6)
            assert 0.0 <= v.value < 1e-5

    @given(x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_range(self, x):
        m = mrl(P2, x).value
        assert -2e-10 <= m <= (1.0 - x) + 2e-10

    def test_not_monotone(self):
        # the MRL of this family jumps upward across Cantor dust:
        # it is decreasing within gaps but not globally decreasing
        below = mrl(P1, 2 / 9 - 1e-3).value
        above = mrl(P1, 7 / 27 + 1e-3).value
        assert below < above - 1e-3


class TestEvaluator:
    def test_vectorized_matches_scalar(self, twin_params, twin_points):
        for params in twin_params:
            vec = mrl_many(params, twin_points)
            np.testing.assert_array_equal(vec, [mrl(params, x).value for x in twin_points])

    def test_bound_within_twice_tolerance(self, twin_params, twin_points):
        # the quotient's bound stays <= 2 tolerance on [0, 1) through the
        # relative stop test, where S' does not underflow at these points,
        # with the leading run's rounding below 1/3
        for params in twin_params:
            for x in twin_points[twin_points < 1.0]:
                assert mrl(params, x).error_bound <= 2e-10

    def test_bound_below_one_third_at_small_p(self):
        # 1 - F(x) can fall to p/(p+1) below 1/3; stopping F's walk there
        # on an unscaled absolute tolerance gave a bound of 1.04e-9 at the
        # first point
        params = PSingularParams(0.01)
        xs = np.random.default_rng(2000).random(2000) / 3.0
        for x in [0.23159337822711346, *xs.tolist()]:
            assert mrl(params, x).error_bound <= 2e-10

    @pytest.mark.parametrize("p,exact", [
        (1e-12, 0.33334223429503645), (1e-10, 0.33334223443528604),
        (1e-8, 0.33334224846024396), (1e-6, 0.3333436509544694)])
    def test_bound_holds_the_exact_value_at_tiny_p(self, p, exact):
        # 1 - F(x) and the numerator cancel to about p/(p+1) just below 1/3,
        # where the complements were 6.4e-5 off at p = 1e-12; the tail
        # walk's sums do not cancel, and the bound counts their rounding.
        # `exact` is m at the double x and the double p from an exact
        # Fraction descent, rounded to a double
        v = mrl(PSingularParams(p), 87379 / 262144)
        assert abs(v.value - exact) <= v.error_bound

    def test_extreme_p_near_one(self):
        # survival probability ~1e-4 at 0.9998 for p = 100; the relative
        # stop test must keep the quotient accurate
        params = PSingularParams(100.0)
        for x in (0.9998, 0.9752309144024423):
            v = mrl(params, x)
            assert 0.0 < v.value < 1.0 - x
            assert v.error_bound <= 2e-10
            assert mrl_many(params, np.array([x]))[0] == v.value

    def test_error_bound_honored(self):
        x = 0.789
        loose = mrl(P2, x, EvalConfig(tolerance=1e-6))
        tight = mrl(P2, x, EvalConfig(tolerance=1e-14))
        assert abs(loose.value - tight.value) <= loose.error_bound + 1e-12

    def test_conditional_expectation_identity(self):
        # m(x) = E(X - x | X > x), checked by Monte Carlo
        draws = sample(P1, 314, 10 ** 6)
        for x in (0.2, 0.45, 0.8):
            tail = draws[draws > x]
            est = float(np.mean(tail - x))
            se = float(np.std(tail - x, ddof=1)) / np.sqrt(tail.size)
            assert abs(mrl(P1, x).value - est) <= 4.0 * se

    @pytest.mark.parametrize("p", [1e-20, 1e-300])
    def test_tiny_p_within_bounds(self, oracle, p):
        # p/(p+1) < 2^-53, where 1 - F(x) rounds to 0 below 1/3: m = K'/S'
        # from the tail walk, scalar and vector alike, lies within its
        # bound of the exact m on both sides of 1/3 (fl(1/3) lies below it,
        # 1 - fl(2/3) above), plus 4 ulps of m, the quotient's rounding
        params, fam = PSingularParams(p), oracle.Family(p)
        xs = np.concatenate(([0.0, 0.0002, 0.1, 1 / 3, 1 - 2 / 3, 0.5, 0.9, 1.0],
                             np.ravel(gap_intervals(3)), np.random.default_rng(8).random(12)))
        for x, value in zip(xs.tolist(), mrl_many(params, xs).tolist()):
            m = mrl(params, x)
            lo, hi = oracle.mrl(fam, x)
            width = Fraction(m.error_bound) + Fraction(2.0 ** -50 * value)
            assert value == m.value and lo - width <= Fraction(value) <= hi + width, x
        # longer than a slice, through the jump table, with points below
        # 3^-8 that the scalar loop walks
        xs = np.linspace(0.0, 1.0, _CHUNK + 4000) ** 4
        np.testing.assert_array_equal(mrl_many(params, xs)[::97],
                                      [mrl(params, x).value for x in xs[::97].tolist()])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            mrl(P1, -0.01)
        with pytest.raises(DomainError):
            mrl_many(P1, [0.5, 1.2])


class TestGmrl:
    def test_value(self):
        assert gmrl(P1, 0.5) == pytest.approx(2 / 3, abs=1e-9)
        assert gmrl(P1, 1 / 3) == pytest.approx(1.5, abs=1e-9)

    def test_undefined_at_zero(self):
        with pytest.raises(DomainError):
            gmrl(P1, 0.0)

    @pytest.mark.parametrize("x", [1e-309, 1e-310, 5e-324])
    def test_overflow_is_a_domain_error(self, x):
        # m(x) = 0.5 - 2^-53 at p = 1, so m/x overflows below about 2.8e-309
        with pytest.raises(DomainError, match="overflows"):
            gmrl(P1, x)

    def test_largest_finite_quotients(self):
        # the least normal double and the last finite quotients stay values
        for x in (2.2250738585072014e-308, 2.9e-309):
            e = gmrl(P1, x)
            assert math.isfinite(e) and e == mrl(P1, x).value / x

    def test_crosses_one_at_fixed_point(self):
        from singular_mrl import fixed_point_closed_form
        x_star = fixed_point_closed_form(P2)
        assert gmrl(P2, x_star) == pytest.approx(1.0, abs=1e-8)
