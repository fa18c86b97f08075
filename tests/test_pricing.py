import numpy as np
import pytest

from singular_mrl import (DomainError, EvalConfig, ParameterError,
                          PSingularParams, comparative_statics,
                          expected_payoff, fixed_point_closed_form,
                          optimal_price, payoff_curve)
from singular_mrl import distribution
from singular_mrl.distribution import _CHUNK
from singular_mrl.verify import check_pricing_mc

P1 = PSingularParams(1.0)


class TestExpectedPayoff:
    def test_endpoints_zero(self):
        assert expected_payoff(P1, 0.0) == 0.0
        assert expected_payoff(P1, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_value_at_candidate_price(self):
        # Pi(5/12) = (5/12) * (5/24) = 25/288 for p = 1
        assert expected_payoff(P1, 5 / 12) == pytest.approx(25 / 288, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            expected_payoff(P1, -0.2)

    @pytest.mark.parametrize("price", [0.15, 0.41, 0.7, 0.93])
    def test_against_monte_carlo(self, price):
        # a 1e6-sample from seed 555 (the check samples with seed + 1)
        assert check_pricing_mc(P1, EvalConfig(), 554, prices=[price]).passed

    def test_curve_matches_scalar(self, twin_params, twin_points):
        prices = np.concatenate((np.linspace(0.0, 1.0, 101), twin_points))
        for params in twin_params:
            curve = payoff_curve(params, prices)
            np.testing.assert_array_equal(curve, [expected_payoff(params, x) for x in prices])


class TestOptimalPrice:
    def test_equals_fixed_point(self):
        result = optimal_price(P1)
        assert result.optimal_price == pytest.approx(5 / 12, abs=1e-9)
        assert result.expected_payoff == pytest.approx(25 / 288, abs=1e-9)
        assert result.fixed_point is not None

    def test_curve_attachment(self):
        result = optimal_price(P1, curve_points=11)
        curve = result.payoff_curve
        assert curve.shape == (11, 2) and curve.dtype == np.float64
        assert not curve.flags.writeable
        with pytest.raises(ValueError):
            curve[0, 1] = 1.0
        assert curve[0].tolist() == [0.0, 0.0]
        prices = np.linspace(0.0, 1.0, 11)
        assert [(x, v) for x, v in curve] == list(zip(prices, payoff_curve(P1, prices)))
        assert optimal_price(P1, curve_points=0).payoff_curve.shape == (0, 2)
        with pytest.raises(ParameterError):
            optimal_price(P1, curve_points=-3)
        with pytest.raises(ParameterError, match="curve_points must be an integer"):
            optimal_price(P1, curve_points=2.5)
        assert len(optimal_price(P1, curve_points=np.int64(3)).payoff_curve) == 3

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 200, _CHUNK, _CHUNK + 1])
    def test_curve_is_payoff_curve_bit_for_bit(self, n):
        # a cached grid's plan (n <= _CHUNK) and the uncached path beyond
        # it; each p is called again after another, so that state left in
        # the cache by one p (the short walk writes its live numerators
        # back) would show at the next
        ps = [1e-6, 0.01, 1.0, 100.0, 1e6]
        grid = np.linspace(0.0, 1.0, n)
        for p1, p2 in zip(ps, ps[1:] + ps[:1]):
            for p in (p1, p2, p1):
                params = PSingularParams(p)
                curve = optimal_price(params, curve_points=n).payoff_curve
                assert curve[:, 0].tobytes() == grid.tobytes()
                assert curve[:, 1].tobytes() == payoff_curve(params, grid).tobytes()

    def test_curve_cache_is_read_only_and_built_once_per_size(self, monkeypatch):
        # the plan is built at the first call of each size, whatever p, and
        # every call still returns a curve of its own
        built = []

        def counted(x, ones, tail):
            built.append(x.copy())
            return plan(x, ones, tail)

        plan = distribution._plan
        monkeypatch.setattr(distribution, "_plan", counted)
        distribution._curve_plan.cache_clear()
        curves = {n: [optimal_price(PSingularParams(p), curve_points=n).payoff_curve
                      for p in (0.01, 1.0, 100.0, 1.0)] for n in (50, 200)}
        for n, ours in curves.items():
            grid = np.linspace(0.0, 1.0, n)
            assert sum(x.tobytes() == grid.tobytes() for x in built) == 1
            cached = distribution._curve_plan(n)
            assert cached.x.tobytes() == grid.tobytes()
            assert not any(arr.flags.writeable for arr in cached)
            for i, curve in enumerate(ours):
                assert not any(np.shares_memory(curve, arr) for arr in cached)
                assert not any(np.shares_memory(curve, other) for other in ours[:i])
        assert distribution._curve_plan.cache_info().currsize == 2


class TestComparativeStatics:
    def test_prices_decrease_in_p(self):
        results = comparative_statics([0.2, 0.5, 1.0, 2.0, 5.0])
        prices = [r.optimal_price for r in results]
        assert all(a > b for a, b in zip(prices, prices[1:]))
        for r in results:
            assert r.optimal_price == pytest.approx(
                fixed_point_closed_form(PSingularParams(r.p)), abs=1e-8)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            comparative_statics([])
        with pytest.raises(ParameterError):
            comparative_statics(np.array([]))

    def test_any_iterable_of_p(self):
        prices = [r.optimal_price for r in comparative_statics([0.5, 1.0, 2.0])]
        for p_values in (np.array([0.5, 1.0, 2.0]), (p for p in (0.5, 1.0, 2.0)),
                         np.array([0.5, 1, 2], dtype=object), np.array([1, 2])):
            got = [r.optimal_price for r in comparative_statics(p_values)]
            assert got == prices[-len(got):]
