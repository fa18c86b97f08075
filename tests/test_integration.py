import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (DomainError, EvalConfig, PSingularParams,
                          cdf_integral, cdf_integral_many, cdf_many,
                          i1_closed_form, mean, point_cloud)

P1 = PSingularParams(1.0)
P2 = PSingularParams(2.0)


def riemann_oracle(params, x, n=400_000):
    # independent left-Riemann sum over the vectorized CDF; F is
    # nondecreasing so the error is at most (F(x) - F(0)) / n <= 1/n
    grid = np.linspace(0.0, x, n + 1)
    f = cdf_many(params, grid)
    return float(np.sum(f[:-1]) * (x / n)), 1.0 / n


class TestClosedForms:
    def test_i1_values(self):
        assert i1_closed_form(P1) == pytest.approx(1 / 12, abs=0)
        assert i1_closed_form(P2) == pytest.approx(4 / 90, abs=1e-16)

    def test_mean_values(self):
        assert mean(P1) == 0.5
        assert mean(P2) == pytest.approx(0.6, abs=0)
        assert mean(PSingularParams(0.5)) == pytest.approx(0.375, abs=0)

    def test_mean_limits(self):
        assert mean(PSingularParams(1e-12)) < 1e-11
        assert mean(PSingularParams(1e12)) == pytest.approx(0.75, abs=1e-11)


class TestCdfIntegral:
    def test_endpoints(self):
        assert cdf_integral(P1, 0.0).value == 0.0
        assert cdf_integral(P1, 1.0).value == pytest.approx(0.5, abs=1e-12)
        assert cdf_integral(P2, 1.0).value == pytest.approx(0.4, abs=1e-12)

    def test_one_third_matches_i1(self):
        for params in (P1, P2, PSingularParams(0.3)):
            assert cdf_integral(params, 1 / 3).value == pytest.approx(
                i1_closed_form(params), abs=1e-12)

    def test_half_point(self):
        # plateau formula: J(1/2) = I1 + (1/6)/(p+1); for p = 1 this is 1/6
        assert cdf_integral(P1, 0.5).value == pytest.approx(1 / 6, abs=1e-12)

    def test_two_ninths_p2(self):
        # J(2/9) = J(2/3) / (3 (p+1)) = (I1 + 1/(3(p+1))) / (3(p+1))
        expected = (i1_closed_form(P2) + 1 / 9) / 9
        assert cdf_integral(P2, 2 / 9).value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p,x", [(1.0, 0.5), (1.0, 0.9), (2.0, 1 / 3),
                                     (2.0, 0.77), (0.4, 0.25)])
    def test_against_riemann_oracle(self, p, x):
        params = PSingularParams(p)
        ref, err = riemann_oracle(params, x)
        assert cdf_integral(params, x).value == pytest.approx(ref, abs=err + 1e-10)

    def test_error_bound_honored(self):
        x = 0.123456789
        loose = cdf_integral(P2, x, EvalConfig(tolerance=1e-6))
        tight = cdf_integral(P2, x, EvalConfig(tolerance=1e-14))
        assert abs(loose.value - tight.value) <= loose.error_bound + 1e-13
        assert loose.error_bound <= 1e-6

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cdf_integral(P1, 1.5)

    def test_vectorized_matches_scalar(self, twin_params, twin_points):
        for params in twin_params:
            vec = cdf_integral_many(params, twin_points)
            np.testing.assert_array_equal(
                vec, [cdf_integral(params, x).value for x in twin_points])

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           h=st.floats(min_value=0.0, max_value=0.2))
    @settings(max_examples=150, deadline=None)
    def test_nondecreasing_and_lipschitz(self, x, h):
        hi = min(x + h, 1.0)
        d = cdf_integral(P2, hi).value - cdf_integral(P2, x).value
        assert -2e-10 <= d <= (hi - x) + 2e-10

    def test_consistent_with_point_cloud_trapezoid(self):
        cloud = point_cloud(P1, n_initial=200, iterations=9)
        ref = float(np.trapezoid(cloud.F, cloud.x))
        assert cdf_integral(P1, 1.0).value == pytest.approx(ref, abs=1e-4)
