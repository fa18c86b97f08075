import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (DomainError, EvalConfig, PSingularParams,
                          gap_intervals, gmrl, mrl, mrl_at_one_third,
                          mrl_many, sample)

P1 = PSingularParams(1.0)
P2 = PSingularParams(2.0)


class TestAnchors:
    def test_at_zero_equals_mean(self):
        # m(0) = E[X]
        assert mrl(P1, 0.0).value == pytest.approx(0.5, abs=1e-10)
        assert mrl(P2, 0.0).value == pytest.approx(0.6, abs=1e-10)

    def test_at_one_is_exact_zero(self):
        v = mrl(P1, 1.0)
        assert v.value == 0.0 and v.error_bound == 0.0

    def test_closed_form_at_one_third(self):
        assert mrl_at_one_third(P1) == pytest.approx(0.5, abs=0)
        assert mrl_at_one_third(P2) == pytest.approx(7 / 15, abs=1e-16)
        for p in (0.01, 0.1, 0.5, 5.0, 100.0):
            params = PSingularParams(p)
            assert mrl(params, 1 / 3).value == pytest.approx(
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
        # the quotient's bound stays <= 2 tolerance on [0, 1): on [1/3, 1)
        # through the relative stop test, where F(1-x) does not underflow at
        # these points, and below 1/3 through tolerances scaled by p/(p+1)
        for params in twin_params:
            for x in twin_points[twin_points < 1.0]:
                assert mrl(params, x).error_bound <= 2e-10

    def test_bound_below_one_third_at_small_p(self):
        # 1 - F(x) can fall to p/(p+1) below 1/3; unscaled absolute
        # tolerances gave a bound of 1.04e-9 at the first point
        params = PSingularParams(0.01)
        xs = np.random.default_rng(2000).random(2000) / 3.0
        for x in [0.23159337822711346, *xs.tolist()]:
            assert mrl(params, x).error_bound <= 2e-10

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

    def test_crosses_one_at_fixed_point(self):
        from singular_mrl import fixed_point_closed_form
        x_star = fixed_point_closed_form(P2)
        assert gmrl(P2, x_star) == pytest.approx(1.0, abs=1e-8)
