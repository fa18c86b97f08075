import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (ConvergenceError, EvalConfig, ParameterError,
                          PSingularParams, fixed_point_closed_form,
                          fixed_point_solve, mrl, mrl_many, optimal_price,
                          verify_uniqueness)
from singular_mrl import fixedpoint, verify
from singular_mrl.distribution import DEFAULT_CONFIG


class TestClosedForm:
    def test_known_values(self):
        assert fixed_point_closed_form(PSingularParams(1.0)) == pytest.approx(5 / 12, abs=1e-15)
        assert fixed_point_closed_form(PSingularParams(2.0)) == pytest.approx(0.4, abs=1e-16)

    def test_limits(self):
        # x* -> 3/8 as p -> inf, x* -> 1/2 as p -> 0
        assert abs(fixed_point_closed_form(PSingularParams(1e9)) - 0.375) < 1e-9
        assert abs(fixed_point_closed_form(PSingularParams(1e-9)) - 0.5) < 1e-9

    def test_bounds_and_monotonicity(self):
        ps = np.logspace(-4, 4, 33)
        stars = [fixed_point_closed_form(PSingularParams(p)) for p in ps]
        assert all(0.375 < s < 0.5 for s in stars)
        assert all(a > b for a, b in zip(stars, stars[1:]))


class TestSolver:
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0])
    def test_agrees_with_closed_form(self, p):
        params = PSingularParams(p)
        fp = fixed_point_solve(params)
        assert abs(fp.x_star - fixed_point_closed_form(params)) <= 1e-8

    def test_residual_within_tolerance(self):
        cfg = EvalConfig(tolerance=1e-12)
        fp = fixed_point_solve(PSingularParams(3.0), cfg)
        assert abs(fp.residual) <= 1e-12
        assert abs(mrl(PSingularParams(3.0), fp.x_star, cfg).value - fp.x_star) <= 2e-12

    def test_bracket_contains_root(self):
        fp = fixed_point_solve(PSingularParams(1.0))
        lo, hi = fp.bracket
        assert lo <= fp.x_star <= hi
        assert lo >= 1 / 3 and hi <= 2 / 3

    @pytest.mark.parametrize("p,x_star,residual", [
        (0.01, 0.49754901960784315, -1.1102230246251565e-16),
        (1.0, 0.41666666666666663, 1.1102230246251565e-16),
        (100.0, 0.3756218905472637, 0.0)])
    def test_unchanged_by_the_cached_scan_grid(self, p, x_star, residual):
        # the values the solver gave while it scanned gap_grid(1000) on every
        # call, kept bit for bit by the certificate, on a first and a second call
        for _ in range(2):
            fp = fixed_point_solve(PSingularParams(p))
            assert (fp.x_star, fp.residual, fp.bracket, fp.sign_changes) == (
                x_star, residual, (x_star, x_star), 1)

    @pytest.mark.parametrize("scan_grid_n", [50, 1, -1])
    def test_rejects_small_scan_grid(self, scan_grid_n):
        # a nonzero scan_grid_n runs `verify_uniqueness`, which needs >= 100
        # points
        with pytest.raises(ParameterError):
            fixed_point_solve(PSingularParams(1.0), scan_grid_n=scan_grid_n)

    def test_rejects_non_integer_scan_grid(self):
        with pytest.raises(ParameterError, match="scan_grid_n must be an integer"):
            fixed_point_solve(PSingularParams(1.0), scan_grid_n=1000.0)

    def test_scan_populates_sign_changes(self):
        fp = fixed_point_solve(PSingularParams(1.0), scan_grid_n=1000)
        assert fp.sign_changes == 1
        # without the scan the certificate alone gives the count; there is
        # no "not scanned" value
        fp = fixed_point_solve(PSingularParams(1.0), scan_grid_n=0)
        assert fp.sign_changes == 1

    @pytest.mark.parametrize("p", [1e-20, 1e-300])
    def test_unresolved_survival(self, p):
        # 1 - F(x) rounds to 0 below 1/3; the certificate's scalar mrl meets it
        with pytest.raises(ParameterError, match="cannot resolve the survival"):
            fixed_point_solve(PSingularParams(p))
        with pytest.raises(ParameterError, match="cannot resolve the survival"):
            optimal_price(PSingularParams(p))

    def test_default_path_makes_no_vector_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mrl_many called")

        monkeypatch.setattr(fixedpoint, "mrl_many", refuse)
        assert fixed_point_solve(PSingularParams(1.0)).sign_changes == 1
        assert optimal_price(PSingularParams(1.0), curve_points=200).fixed_point.sign_changes == 1
        with pytest.raises(AssertionError, match="mrl_many called"):
            fixed_point_solve(PSingularParams(1.0), scan_grid_n=1000)


class TestUniqueness:
    @pytest.mark.parametrize("p", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_single_sign_change(self, p):
        # the scan, the certificate and a solve that runs both agree
        params = PSingularParams(p)
        assert verify_uniqueness(params, 1000) == 1
        assert fixed_point_solve(params).sign_changes == 1
        assert fixed_point_solve(params, scan_grid_n=1000).sign_changes == 1

    def test_rejects_small_grid(self):
        with pytest.raises(ParameterError):
            verify_uniqueness(PSingularParams(1.0), 50)

    def test_rejects_non_integer_grid(self):
        with pytest.raises(ParameterError, match="grid_n must be an integer"):
            verify_uniqueness(PSingularParams(1.0), 150.5)

    def test_rejects_zero_grid(self):
        # 0 means no scan to the solver, but a scan needs >= 100 points
        with pytest.raises(ParameterError):
            verify_uniqueness(PSingularParams(1.0), 0)

    @pytest.mark.parametrize("x_bad", [0.2, 0.9])
    def test_scan_counts_a_faulty_vector_mrl(self, monkeypatch, x_bad):
        # a faulty evaluator that flips the sign of m(x) - x at the grid
        # point nearest x_bad, once on [0, 1/3] and once on (2/3, 1): each
        # adds two sign changes, which the scan, its check and a solve that
        # asks for the scan all see; the certificate does not read it
        def faulty(params, xs, config):
            m = mrl_many(params, xs, config)
            i = np.argmin(np.abs(xs - x_bad))
            m[i] = 2.0 * xs[i] - m[i]
            return m

        monkeypatch.setattr(fixedpoint, "mrl_many", faulty)
        assert verify_uniqueness(PSingularParams(1.0), 1000) == 3
        check = verify.check_uniqueness(PSingularParams(1.0), DEFAULT_CONFIG)
        assert (check.passed, check.detail) == (False, "3 sign change(s)")
        with pytest.raises(ConvergenceError, match="found 3 sign changes"):
            fixed_point_solve(PSingularParams(1.0), scan_grid_n=1000)
        assert fixed_point_solve(PSingularParams(1.0)).sign_changes == 1

    def test_scan_drops_exact_zeros(self, monkeypatch):
        # m(x) = x exactly at a grid point below 1/3 has no sign, so it
        # neither adds a sign change nor splits one in two
        def touching(params, xs, config):
            m = mrl_many(params, xs, config)
            m[100] = xs[100]
            return m

        monkeypatch.setattr(fixedpoint, "mrl_many", touching)
        assert verify_uniqueness(PSingularParams(1.0), 1000) == 1

    @pytest.mark.parametrize("p", [0.01, 1.0, 100.0])
    def test_certificate_names_the_failing_cell(self, monkeypatch, p):
        # m lowered by a constant below 1/3 keeps m(x) + x non-decreasing,
        # so the certificate's argument still applies; lowered by 0.01 more
        # than the least m(x) - x on a grid of [0, 1/3), m dips below x, and
        # the solver and the pricer stop on a cell of width 2^-53 in the dip
        params = PSingularParams(p)
        xs = np.linspace(0.0, 1 / 3, 10_001)[:-1]
        shift = float(np.min(mrl_many(params, xs) - xs)) + 0.01

        def lowered(params, x, config):
            m = mrl(params, x, config)
            return dataclasses.replace(m, value=m.value - shift) if x < 1 / 3 else m

        monkeypatch.setattr(fixedpoint, "mrl", lowered)
        for solve in (fixed_point_solve, optimal_price):
            with pytest.raises(ConvergenceError, match="not certified on the cell") as err:
                solve(params)
            a, b = map(Fraction, re.search(r"cell \[(\S+), (\S+)\]", str(err.value)).groups())
            assert b - a == Fraction(1, 2 ** fixedpoint.CELL_LEVEL)
            assert lowered(params, float(a), DEFAULT_CONFIG).value - float(a) < 1e-9

    def test_last_cell_reaches_the_real_one_third(self, monkeypatch):
        # m(1/4) and its bound set so that m(a) + a - bound(a) is the dyadic
        # just below 2/3: at p=1 the last cell [1/4, 1/3] fails against the
        # real 1/3 by 6e-19, though it would pass against 2 fl(1/3) or in
        # float arithmetic, so the certificate must halve it and read m(5/16)
        target = Fraction(math.floor(Fraction(2, 3) * 2 ** 60), 2 ** 60) - Fraction(1, 4)
        value = float(target)
        if Fraction(value) < target:
            value = math.nextafter(value, 1.0)
        bound = float(Fraction(value) - target)
        assert Fraction(bound) == Fraction(value) - target
        seen = []

        def fudged(params, x, config):
            seen.append(x)
            m = mrl(params, x, config)
            return dataclasses.replace(m, value=value, error_bound=bound) if x == 0.25 else m

        monkeypatch.setattr(fixedpoint, "mrl", fudged)
        fixedpoint._certify(PSingularParams(1.0), DEFAULT_CONFIG)
        assert sorted(seen) == [0.0, 0.125, 0.25, 0.3125]

    @given(log_p=st.floats(min_value=-4.0, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_certificate_holds(self, log_p):
        fixedpoint._certify(PSingularParams(10.0 ** log_p), DEFAULT_CONFIG)

    def test_positive_before_one_third(self):
        # g(x) = m(x) - x stays positive up to and including 1/3
        params = PSingularParams(0.01)
        xs = np.linspace(0.0, 1 / 3, 200)
        for x in xs:
            assert mrl(params, x).value - x > 0.0
