import numpy as np
import pytest

from singular_mrl import (ConvergenceError, EvalConfig, ParameterError,
                          PSingularParams, fixed_point_closed_form,
                          fixed_point_solve, mrl, mrl_many, optimal_price,
                          verify_uniqueness)
from singular_mrl import fixedpoint


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
        fp = fixed_point_solve(params, scan_grid_n=0)
        assert abs(fp.x_star - fixed_point_closed_form(params)) <= 1e-8

    def test_residual_within_tolerance(self):
        cfg = EvalConfig(tolerance=1e-12)
        fp = fixed_point_solve(PSingularParams(3.0), cfg, scan_grid_n=0)
        assert abs(fp.residual) <= 1e-12
        assert abs(mrl(PSingularParams(3.0), fp.x_star, cfg).value - fp.x_star) <= 2e-12

    def test_bracket_contains_root(self):
        fp = fixed_point_solve(PSingularParams(1.0), scan_grid_n=0)
        lo, hi = fp.bracket
        assert lo <= fp.x_star <= hi
        assert lo >= 1 / 3 and hi <= 2 / 3

    @pytest.mark.parametrize("p,x_star,residual", [
        (0.01, 0.49754901960784315, -1.1102230246251565e-16),
        (1.0, 0.41666666666666663, 1.1102230246251565e-16),
        (100.0, 0.3756218905472637, 0.0)])
    def test_unchanged_by_the_cached_scan_grid(self, p, x_star, residual):
        # the values the solver gave while the scan rebuilt its grid on every
        # call; the second call reads the cached grid
        for _ in range(2):
            fp = fixed_point_solve(PSingularParams(p))
            assert (fp.x_star, fp.residual, fp.bracket, fp.sign_changes) == (
                x_star, residual, (x_star, x_star), 1)

    @pytest.mark.parametrize("scan_grid_n", [50, 1, -1])
    def test_rejects_small_scan_grid(self, scan_grid_n):
        # the scan needs the same >= 100 points as `verify_uniqueness`; only
        # 0 skips it
        with pytest.raises(ParameterError):
            fixed_point_solve(PSingularParams(1.0), scan_grid_n=scan_grid_n)

    def test_rejects_non_integer_scan_grid(self):
        with pytest.raises(ParameterError, match="scan_grid_n must be an integer"):
            fixed_point_solve(PSingularParams(1.0), scan_grid_n=1000.0)

    def test_scan_populates_sign_changes(self):
        fp = fixed_point_solve(PSingularParams(1.0), scan_grid_n=1000)
        assert fp.sign_changes == 1
        fp = fixed_point_solve(PSingularParams(1.0), scan_grid_n=0)
        assert fp.sign_changes == -1


class TestUniqueness:
    @pytest.mark.parametrize("p", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_single_sign_change(self, p):
        assert verify_uniqueness(PSingularParams(p), 1000) == 1

    def test_rejects_small_grid(self):
        with pytest.raises(ParameterError):
            verify_uniqueness(PSingularParams(1.0), 50)

    def test_rejects_non_integer_grid(self):
        with pytest.raises(ParameterError, match="grid_n must be an integer"):
            verify_uniqueness(PSingularParams(1.0), 150.5)

    def test_rejects_zero_grid(self):
        # 0 skips the solver's scan, but a uniqueness check needs one
        with pytest.raises(ParameterError):
            verify_uniqueness(PSingularParams(1.0), 0)

    @pytest.mark.parametrize("x_bad", [0.2, 0.9])
    def test_solver_applies_the_side_checks(self, monkeypatch, x_bad):
        # a faulty evaluator that flips the sign of m(x) - x at the grid
        # point nearest x_bad, once on [0, 1/3] and once on (2/3, 1): both
        # add sign changes, and the solver's scan rejects both
        def faulty(params, xs, config):
            m = mrl_many(params, xs, config)
            i = np.argmin(np.abs(xs - x_bad))
            m[i] = 2.0 * xs[i] - m[i]
            return m

        monkeypatch.setattr(fixedpoint, "mrl_many", faulty)
        with pytest.raises(ConvergenceError, match="somewhere on"):
            fixed_point_solve(PSingularParams(1.0))
        with pytest.raises(ConvergenceError, match="somewhere on"):
            optimal_price(PSingularParams(1.0))
        with pytest.raises(ConvergenceError, match="somewhere on"):
            verify_uniqueness(PSingularParams(1.0), 1000)

    def test_positive_before_one_third(self):
        # g(x) = m(x) - x stays positive up to and including 1/3
        params = PSingularParams(0.01)
        xs = np.linspace(0.0, 1 / 3, 200)
        for x in xs:
            assert mrl(params, x).value - x > 0.0
