import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (ConvergenceError, EvalConfig, ParameterError,
                          PSingularParams, cdf_integral, fixed_point_closed_form,
                          fixed_point_solve, i1_closed_form, mean, mrl,
                          mrl_at_one_third, mrl_many, optimal_price,
                          verify_uniqueness)
from singular_mrl import fixedpoint, verify
from singular_mrl.distribution import DEFAULT_CONFIG
from singular_mrl.mrl import MrlValue

# the least p whose uniqueness certificate holds, the double after 2^-53:
# at p <= 2^-53, 1 + p rounds to 1, q = 1/(p+1) is 1.0 and the chain of
# cells stops just below 1/3
LEAST_CERTIFIED_P = 1.1102230246251568e-16
LARGEST = 1.7976931348623157e308


class TestClosedForm:
    def test_known_values(self):
        assert fixed_point_closed_form(PSingularParams(1.0)) == pytest.approx(5 / 12, abs=1e-15)
        assert fixed_point_closed_form(PSingularParams(2.0)) == pytest.approx(0.4, abs=1e-16)

    def test_limits(self):
        # x* -> 3/8 as p -> inf, x* -> 1/2 as p -> 0
        assert abs(fixed_point_closed_form(PSingularParams(1e9)) - 0.375) < 1e-9
        assert abs(fixed_point_closed_form(PSingularParams(1e-9)) - 0.5) < 1e-9

    @pytest.mark.parametrize("p", [1e154, 1e200, 1e300, 1e308])
    def test_closed_forms_at_huge_p(self, p):
        # 6 (p+1)(2p+1) overflows from p = 3.87e153 and 2p+1 from 8.98e307:
        # each closed form, and what reads them, still holds there
        params, exact = PSingularParams(p), Fraction(p)
        i1 = (exact + 2) / (6 * (exact + 1) * (2 * exact + 1))
        m_third = (5 * exact + 4) / (6 * (2 * exact + 1))
        closed = [(i1_closed_form, i1), (mean, 3 * exact / (2 * (2 * exact + 1))),
                  (mrl_at_one_third, m_third), (fixed_point_closed_form, m_third / 2 + Fraction(1, 6))]
        for form, value in closed:
            assert abs(Fraction(form(params)) - value) <= value * 1e-15 + Fraction(2.0 ** -1074)
        # J(0.9) = J(2/3) + (0.9 - 2/3) - p (I1 - J(0.1)) with J(2/3) = I1 + q/3,
        # less p J(0.1) <= 0.1 p F(1/9) = 0.1 p q^2 < q; m(0.5) = J(0.5) / F(0.5)
        # = I1 (p+1) + 1/6
        q = 1 / (exact + 1)
        j = i1 + q / 3 + Fraction(0.9) - Fraction(2, 3) - exact * i1
        assert abs(Fraction(cdf_integral(params, 0.9).value) - j) <= 1e-15
        assert abs(Fraction(mrl(params, 0.5).value) - (i1 / q + Fraction(1, 6))) <= 1e-15
        fp = fixed_point_solve(params)
        assert abs(fp.x_star - fp.closed_form) <= 1e-15

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

    @staticmethod
    def check_bracket(p, ulps=3):
        # exactly the least interval of doubles that holds both x* and the
        # exact root (3p+2)/(4(2p+1)) for the double p, at most `ulps` wide
        fp = fixed_point_solve(PSingularParams(p))
        lo, hi = fp.bracket
        P, x = Fraction(p), Fraction(fp.x_star)
        least, most = sorted((x, (3 * P + 2) / (4 * (2 * P + 1))))
        assert Fraction(lo) <= least < Fraction(math.nextafter(lo, 1.0))
        assert Fraction(math.nextafter(hi, 0.0)) < most <= Fraction(hi)
        assert hi - lo <= ulps * math.ulp(fp.x_star)

    @given(log_p=st.floats(min_value=math.log(LEAST_CERTIFIED_P), max_value=math.log(LARGEST)))
    @settings(max_examples=200, deadline=None)
    def test_bracket_holds_the_exact_root(self, log_p):
        # p log-uniform over every certified double; exp rounds the ends inward
        # or outward by an ulp, so clamp them
        p = min(max(math.exp(log_p), LEAST_CERTIFIED_P), LARGEST)
        self.check_bracket(p, ulps=3 if p <= 4.49e307 else 7)

    @pytest.mark.parametrize("p", [LEAST_CERTIFIED_P, 1e300])
    def test_bracket_holds_the_exact_root_at_the_ends(self, p):
        self.check_bracket(p)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the bracket is 4 ulps wide at this p < 1, where "
                       "m(1/3)'s rounding puts x* 3+ ulps below the root (ROADMAP item 5)")
    def test_bracket_is_3_ulps_wide_at_the_known_4_ulp_p(self):
        self.check_bracket(0.05445798595981195)

    @pytest.mark.parametrize("p", [4.6e307, LARGEST])
    def test_bracket_holds_the_exact_root_where_q_is_subnormal(self, p):
        # m's plateau formula divides by a subnormal q = 1/(p+1): x* is 6 ulps
        # below the root at the largest double, and the bracket reaches from
        # x* to the root
        self.check_bracket(p, ulps=7)

    @pytest.mark.parametrize("low,high,ulps", [(LEAST_CERTIFIED_P, 1.0, 3), (1.0, 2.0 ** 1022, 2),
                                               (2.0 ** 1022, LARGEST, 6)])
    def test_x_star_accuracy_by_range_of_p(self, low, high, ulps):
        # the ranges of fixed_point_solve's docstring: at 1,000 log-uniform p
        # of each, x* lies within `ulps` of the correctly rounded root
        # (3p+2)/(4(2p+1)), and the bracket holds the exact root
        rng = np.random.default_rng(25)
        for p in np.exp(rng.uniform(math.log(low), math.log(high), 1000)).clip(low, high).tolist():
            fp = fixed_point_solve(PSingularParams(p))
            n, d = p.as_integer_ratio()
            root = (3 * n + 2 * d) / (4 * (2 * n + d))
            assert abs(fp.x_star - root) <= ulps * math.ulp(min(fp.x_star, root)), p
            exact = Fraction(3 * n + 2 * d, 4 * (2 * n + d))
            assert Fraction(fp.bracket[0]) <= exact <= Fraction(fp.bracket[1]), p

    @pytest.mark.parametrize("p,x_star,residual,bracket", [
        (0.01, 0.49754901960784315, -1.1102230246251565e-16,
         (0.4975490196078431, 0.49754901960784315)),
        (1.0, 0.41666666666666663, 1.1102230246251565e-16,
         (0.41666666666666663, 0.4166666666666667)),
        (100.0, 0.3756218905472637, 0.0, (0.37562189054726364, 0.3756218905472637))])
    def test_solution_bits_are_pinned(self, p, x_star, residual, bracket):
        # the values the solver gave while it scanned gap_grid(1000) on every
        # call, kept bit for bit by the certificate, on a first and a second
        # call; the bracket is the least interval of doubles that holds x* and
        # the exact root
        for _ in range(2):
            fp = fixed_point_solve(PSingularParams(p))
            assert (fp.x_star, fp.residual, fp.bracket, fp.sign_changes) == (
                x_star, residual, bracket, 1)

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

    @pytest.mark.parametrize("p", [1e-14, 3e-16])
    def test_certifies_tiny_p(self, oracle, p):
        # below 1/3 m(x) - x is O(p) next to 1/3, and the tail walk's sums
        # resolve it: x* is the closed form, within an ulp of the exact one
        params = PSingularParams(p)
        fp = fixed_point_solve(params)
        assert fp.sign_changes == 1 and fp.x_star == fp.closed_form
        exact = oracle.fixed_point(oracle.Family(p))
        assert abs(Fraction(fp.x_star) - exact) <= Fraction(math.ulp(fp.x_star))
        assert optimal_price(params).optimal_price == fp.x_star

    def test_least_certified_p(self):
        assert LEAST_CERTIFIED_P == math.nextafter(2.0 ** -53, 1.0)
        assert PSingularParams(LEAST_CERTIFIED_P).left_mass < 1.0
        assert PSingularParams(2.0 ** -53).left_mass == 1.0
        assert fixed_point_solve(PSingularParams(LEAST_CERTIFIED_P)).sign_changes == 1

    @pytest.mark.parametrize("p", [math.nextafter(LEAST_CERTIFIED_P, 0.0), 1e-16, 1e-20, 1e-300])
    def test_fails_on_the_last_cell_below_the_least_p(self, p):
        # with q = 1.0 the chain's cells shrink towards 1/3 until the next
        # one would not start past a: the certificate names that a, within
        # 1e-15 of 1/3, instead of trusting a cell
        for solve in (fixed_point_solve, optimal_price):
            with pytest.raises(ConvergenceError) as err:
                solve(PSingularParams(p))
            a = float(re.fullmatch(r"uniqueness is not certified past x = (\S+), where "
                                   r"m\(x\) - x - bound\(x\) = \S+", str(err.value))[1])
            assert 1 / 3 - 1e-15 < a < 1 / 3

    @pytest.mark.parametrize("p,calls", [
        (1e4, 3), (100.0, 3), (1.0, 4), (0.01, 6), (1e-4, 6), (1e-6, 6)])
    def test_mrl_calls_per_solve(self, monkeypatch, p, calls):
        # m(1/3), m(x*) and the certificate's chain of cells: one cell at
        # large p, two at p = 1, four below
        seen = []

        def counted(params, x, config):
            seen.append(x)
            return mrl(params, x, config)

        monkeypatch.setattr(fixedpoint, "mrl", counted)
        fixed_point_solve(PSingularParams(p))
        assert len(seen) == calls

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
        # the solver and the pricer stop at an a where m(a) - a is within
        # its bound of 0, in the dip
        params = PSingularParams(p)
        xs = np.linspace(0.0, 1 / 3, 10_001)[:-1]
        shift = float(np.min(mrl_many(params, xs) - xs)) + 0.01

        def lowered(params, x, config):
            m = mrl(params, x, config)
            return dataclasses.replace(m, value=m.value - shift) if x < 1 / 3 else m

        monkeypatch.setattr(fixedpoint, "mrl", lowered)
        for solve in (fixed_point_solve, optimal_price):
            with pytest.raises(ConvergenceError, match="not certified past x = ") as err:
                solve(params)
            a = float(re.search(r"past x = (\S+),", str(err.value))[1])
            assert 0.0 <= a < 1 / 3
            assert lowered(params, a, DEFAULT_CONFIG).value - a < 1e-9

    def test_last_cell_reaches_the_real_one_third(self, monkeypatch):
        # at p = 1 the chain has two cells, the second from a just below
        # 1/4; m(a) and its bound set so that m(a) + a - bound(a) is the
        # dyadic just below 2/3: the last cell [a, 1/3] fails against the
        # real 1/3 by 6e-19, though it would pass against 2 fl(1/3) and in
        # float arithmetic, so the chain must take one more cell
        seen = []

        def recorded(params, x, config):
            seen.append(x)
            return mrl(params, x, config)

        monkeypatch.setattr(fixedpoint, "mrl", recorded)
        fixedpoint._certify(PSingularParams(1.0), DEFAULT_CONFIG)
        assert len(seen) == 2
        a = seen[1]
        target = Fraction(math.floor(Fraction(2, 3) * 2 ** 60), 2 ** 60)
        value = float(target - Fraction(a))
        if Fraction(value) < target - Fraction(a):
            value = math.nextafter(value, 1.0)
        bound = float(Fraction(value) + Fraction(a) - target)
        assert Fraction(value) + Fraction(a) - Fraction(bound) == target
        assert 2 * Fraction(1 / 3) < target < Fraction(2, 3)
        assert (value + a) - bound > 2 * (1 / 3)

        def fudged(params, x, config):
            m = recorded(params, x, config)
            return dataclasses.replace(m, value=value, error_bound=bound) if x == a else m

        seen.clear()
        monkeypatch.setattr(fixedpoint, "mrl", fudged)
        fixedpoint._certify(PSingularParams(1.0), DEFAULT_CONFIG)
        assert seen[:2] == [0.0, a] and len(seen) == 3 and a < seen[2] < 1 / 3

    def test_margin_sign_is_exact(self, monkeypatch):
        # the chain's decisions against exact margins as Fractions: m(0) =
        # 2 a+ (a+ the double after a) steps it to a, where m(a) lies within
        # a few ulps of 2/3 - a + bound(a), with bounds down to the least
        # subnormal.  It stops there iff m(a) + a - bound(a) > 2/3, the
        # real 1/3; else its next cell [a, b] has m(a) + a - bound(a) > 2b,
        # or it raises, and m = 1 past a certifies the rest
        rng = np.random.default_rng(18)
        bounds = [0.0, 5e-324, 1e-310, 2.0 ** -60, 1e-10]
        third = Fraction(1, 3)
        for _ in range(20_000):
            if rng.random() < 0.3:  # a 1 to 8 ulps below fl(1/3)
                a = 1 / 3 - int(rng.integers(1, 9)) * math.ulp(1 / 3)
            else:
                a = math.ldexp(float(rng.random()) / 3, -int(rng.integers(0, 60)))
            bound = bounds[rng.integers(len(bounds))]
            value = float(2 * third - Fraction(a) + Fraction(bound))
            for _ in range(abs(ulps := int(rng.integers(-3, 4)))):
                value = math.nextafter(value, math.copysign(math.inf, ulps))
            seen = []

            def crafted(params, x, config, a=a, value=value, bound=bound, seen=seen):
                seen.append(x)
                if x == 0.0:
                    return MrlValue(2.0 * math.nextafter(a, 1.0), x, 1.0, 0.0)
                return MrlValue(value, x, 1.0, bound) if x == a else MrlValue(1.0, x, 1.0, 0.0)

            monkeypatch.setattr(fixedpoint, "mrl", crafted)
            total = Fraction(value) + Fraction(a) - Fraction(bound)
            try:
                fixedpoint._certify(PSingularParams(1.0), DEFAULT_CONFIG)
            except ConvergenceError:
                assert total <= 2 * third and seen == [0.0, a]
                continue
            assert (seen == [0.0, a]) == (total > 2 * third)
            if seen != [0.0, a]:
                assert len(seen) == 3 and a < seen[2] and total > 2 * Fraction(seen[2])

    @pytest.mark.parametrize("p", [LEAST_CERTIFIED_P, 1.2e-16, 3e-16, 1e-12, 1e-8, 1e-4,
                                   0.01, 0.1, 1.0, 2.0, 100.0])
    def test_chain_holds_against_the_exact_mrl(self, monkeypatch, oracle, deadline, p):
        # the proof itself, against the exact oracle: on each cell [a, b] of
        # the chain, the last one ending at the real 1/3, the lower end of
        # the exact m(a) gives m(a) + a - 2b > 0
        seen = []

        def recorded(params, x, config):
            seen.append(x)
            return mrl(params, x, config)

        monkeypatch.setattr(fixedpoint, "mrl", recorded)
        with deadline(10):
            fixedpoint._certify(PSingularParams(p), DEFAULT_CONFIG)
        family = oracle.Family(p)
        for a, b in zip(seen, [Fraction(x) for x in seen[1:]] + [Fraction(1, 3)]):
            low, _ = oracle.mrl(family, a)
            assert low + Fraction(a) - 2 * b > 0, (p, a)

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
