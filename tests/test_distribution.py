import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (DomainError, EvalConfig, ParameterError,
                          PSingularParams, ResourceLimitError, cdf, cdf_many,
                          cdf_integral_many, cdf_with_bound, expected_payoff,
                          gap_intervals, mrl, mrl_many, payoff_curve,
                          point_cloud, sample, survival)
from singular_mrl.distribution import _CHUNK, _descend, _descend_many, gap_grid
from singular_mrl.verify import check_dkw

P1 = PSingularParams(1.0)
P2 = PSingularParams(2.0)

# stop requests (tol_f, tol_j, relative), inf where a bracket is not asked
# for: F alone and J alone at 1e-10, both at 1e-10, F at 1e-6 with J at
# 1e-12, and the relative test at 1e-10
STOP_MODES = [(1e-10, math.inf, False), (math.inf, 1e-10, False), (1e-10, 1e-10, False),
              (1e-6, 1e-12, False), (1e-10, 1e-10, True)]


def descents(tol_f, tol_j, relative):
    """The (tol, on_j, relative) stop tests that meet a request: the kernel
    checks one bracket per descent, so a request runs one per finite
    tolerance."""
    return [(tol, on_j, relative) for tol, on_j in ((tol_f, False), (tol_j, True))
            if tol < math.inf]


def twins(params, xs, max_depth, tol_f, tol_j, relative):
    """F, J and both bounds from the vector and from the scalar loop, each
    as one array per request."""
    vec, scalar = [], []
    for tol, on_j, rel in descents(tol_f, tol_j, relative):
        chunks = _descend_many(params, xs, tol, max_depth, on_j, rel)
        vec.append(np.concatenate([np.stack(c[1:]) for c in chunks], axis=1))
        scalar.append(np.array([_descend(params, x, tol, max_depth, on_j, rel)
                                for x in xs.tolist()]).T)
    return np.stack(vec), np.stack(scalar)


def bits(values):
    """The IEEE bit patterns of float values, so that equality is bit for bit."""
    return np.asarray(values, dtype=float).view(np.uint64)


def cdf_oracle(p, x, depth=60):
    # independent brute-force iteration of the defining equations
    if depth == 0:
        return 0.5
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if 1.0 / 3.0 <= x <= 2.0 / 3.0:
        return 1.0 / (p + 1.0)
    if x < 1.0 / 3.0:
        return cdf_oracle(p, 3.0 * x, depth - 1) / (p + 1.0)
    return 1.0 - p * cdf_oracle(p, 3.0 * (1.0 - x), depth - 1) / (p + 1.0)


class TestParams:
    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_nonpositive_p(self, bad):
        with pytest.raises(ParameterError):
            PSingularParams(bad)

    def test_masses(self):
        assert P2.left_mass == pytest.approx(1 / 3)
        assert P2.right_mass == pytest.approx(2 / 3)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            EvalConfig(tolerance=0.0)
        with pytest.raises(ParameterError):
            EvalConfig(max_depth=0)

    def test_max_depth_caps_the_descent(self):
        # one left step from 1/4 leaves the bracket [0, 1/2] for F(1/4) = 1/3
        assert cdf_with_bound(P1, 0.25, EvalConfig(max_depth=1)) == (0.25, 0.25)


class TestCdf:
    def test_plateau_value(self):
        assert cdf(P1, 1 / 3) == 0.5
        assert cdf(P1, 2 / 3) == 0.5
        assert cdf(P2, 0.5) == pytest.approx(1 / 3, abs=0)

    def test_endpoints_exact(self):
        for params in (P1, P2, PSingularParams(0.07)):
            assert cdf(params, 0.0) == 0.0
            assert cdf(params, 1.0) == 1.0

    def test_quarter_is_one_third(self):
        # 1/4 = 0.020202..._3; oracle value computed independently
        assert cdf_oracle(1.0, 0.25) == pytest.approx(1 / 3, abs=1e-15)
        assert cdf(P1, 0.25) == pytest.approx(1 / 3, abs=1e-10)

    def test_one_ninth_p2(self):
        # two left branches: 1/(p+1)^2
        assert cdf(P2, 1 / 9) == pytest.approx(1 / 9, abs=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            cdf(P1, x)

    def test_reported_bound_honored(self):
        # hard point: irrational inside the Cantor set forces truncation
        x = 0.5 * (math.sqrt(5) - 1) % (1 / 3)
        value, bound = cdf_with_bound(P2, x, EvalConfig(tolerance=1e-8))
        tight, _ = cdf_with_bound(P2, x, EvalConfig(tolerance=1e-14))
        assert abs(value - tight) <= bound + 1e-13
        assert bound <= 1e-8

    def test_vectorized_matches_scalar(self, twin_params, twin_points):
        for params in twin_params:
            vec = cdf_many(params, twin_points)
            np.testing.assert_array_equal(vec, [cdf(params, x) for x in twin_points])

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           y=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = min(x, y), max(x, y)
        assert cdf(P2, lo) <= cdf(P2, hi) + 2e-10

    @given(x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_functional_equation_scaling(self, x):
        assert cdf(P2, x / 3.0) == pytest.approx(cdf(P2, x) / 3.0, abs=2e-10)

    @given(x=st.floats(min_value=0.0, max_value=2 / 3))
    @settings(max_examples=200, deadline=None)
    def test_functional_equation_reflection(self, x):
        cfg = EvalConfig(tolerance=1e-10 / 3.0)
        assert cdf(P2, 1.0 - x, cfg) == pytest.approx(1.0 - 2.0 * cdf(P2, x, cfg), abs=2e-10)


class TestDescent:
    @pytest.mark.parametrize("tol_f,tol_j,relative", STOP_MODES)
    def test_twins_agree_bit_for_bit(self, twin_params, twin_points, tol_f, tol_j, relative):
        # F, J and both error bounds, from the scalar and the vector loop
        for params in twin_params:
            vec, scalar = twins(params, twin_points, 100_000, tol_f, tol_j, relative)
            np.testing.assert_array_equal(vec, scalar)

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           p=st.sampled_from([0.01, 0.5, 1.0, 2.0, 100.0]), relative=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_twins_agree_on_any_double(self, x, p, relative):
        params = PSingularParams(p)
        [(_, *vec)] = _descend_many(params, [x], 1e-10, 100_000, relative=relative)
        assert [v[0] for v in vec] == list(_descend(params, x, 1e-10, 100_000, relative=relative))

    @pytest.mark.parametrize("max_depth", [1, 7])
    @pytest.mark.parametrize("tol_f,tol_j,relative", STOP_MODES)
    def test_twins_agree_under_depth_cap(self, twin_params, twin_points, tol_f, tol_j,
                                         relative, max_depth):
        # the loop runs out before the points end, so the vector loop's
        # exhausted-depth branch writes the brackets
        for params in twin_params:
            vec, scalar = twins(params, twin_points, max_depth, tol_f, tol_j, relative)
            np.testing.assert_array_equal(bits(vec), bits(scalar))

    @given(data=st.data(), xs=st.lists(st.floats(min_value=0.0, max_value=1.0),
                                       min_size=1, max_size=64),
           p=st.sampled_from([0.01, 0.5, 1.0, 7.0, 100.0]), on_j=st.booleans(),
           max_depth=st.sampled_from([1, 7, 100_000]))
    @settings(max_examples=200, deadline=None)
    def test_twins_agree_with_per_point_relative(self, data, xs, p, on_j, max_depth):
        # a tolerance and a relative flag per point, as `_branch_many` sets them
        params = PSingularParams(p)
        tol = data.draw(st.lists(st.sampled_from([1e-6, 1e-10, 1e-12, 1e-10 * 100 / 101, 1e-13]),
                                 min_size=len(xs), max_size=len(xs)))
        relative = data.draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
        [(_, *vec)] = _descend_many(params, xs, np.array(tol), max_depth, on_j, np.array(relative))
        scalar = [_descend(params, x, t, max_depth, on_j, rel)
                  for x, t, rel in zip(xs, tol, relative)]
        np.testing.assert_array_equal(bits(np.stack(vec)), bits(np.array(scalar).T))

    @given(x=st.floats(min_value=0.0, max_value=1.0), p=st.sampled_from([0.01, 1.0, 7.0, 100.0]),
           max_depth=st.sampled_from([1, 7, 100_000]), on_j=st.booleans(), relative=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_j_bound_within_f_bound(self, x, p, max_depth, on_j, relative):
        # every step scales J's bracket by at most F's factor, and y <= 1,
        # so a test on F's bracket alone bounds J as well
        _, f_bound, _, j_bound = _descend(PSingularParams(p), x, 1e-10, max_depth, on_j, relative)
        assert j_bound <= f_bound

    @pytest.mark.parametrize("p,x,values", [
        (0.01, 0.3, (0.01951266862944645, 0.3690294520875967, 8.3918660180446e-12,
                     0.0021602248287300617)),
        (0.01, 0.4, (0.009900990099009901, 0.5950980392156862, 0.0, 0.002356823917685886)),
        (0.01, 1 - 1e-9, (0.008277399150406683, 9.87347154111631e-10, 0.0,
                          8.172666486427405e-12)),
        (1.0, 0.3, (0.6000000000349246, 0.44761904761470506, 2.1712381451427677e-11,
                    0.08057142858265089)),
        (1.0, 1 - 1e-9, (1.9073486328125e-06, 5.698041730992018e-10, 0.0,
                         6.249999816987929e-11)),
        (100.0, 0.3, (0.9901951267315589, 0.45120053821420647, 2.0833895139318987e-11,
                      0.13403297223588756)),
        (100.0, 0.4, (0.9900990099009901, 0.35124378109452736, 0.0, 0.13910644795822866)),
        (100.0, 1 - 1e-9, (4.710226176271034e-11, 3.579166901973728e-10, 0.0,
                           4.950494904544894e-10))])
    def test_reflected_quantities_pinned(self, p, x, values):
        # survival, m with its bound and the payoff, as they were while each
        # scalar branched at 1/3 on its own and the kernel took two tolerances
        params = PSingularParams(p)
        m = mrl(params, x)
        assert (survival(params, x), m.value, m.error_bound, expected_payoff(params, x)) == values

    @pytest.mark.parametrize("p", [0.01, 100.0])
    def test_branch_quantities_across_chunks(self, p):
        # one descent over both branches of mrl_many and payoff_curve, over
        # three slices, equals the scalars; a 2-D input keeps its shape
        params = PSingularParams(p)
        xs = np.random.default_rng(11).random(2 * _CHUNK + 1000)
        m, pay = mrl_many(params, xs), payoff_curve(params, xs)
        np.testing.assert_array_equal(bits(m), bits([mrl(params, x).value for x in xs.tolist()]))
        np.testing.assert_array_equal(bits(pay), bits([expected_payoff(params, x)
                                                       for x in xs.tolist()]))
        square = xs[:1200].reshape(40, 30)
        np.testing.assert_array_equal(bits(mrl_many(params, square)), bits(m[:1200].reshape(40, 30)))
        np.testing.assert_array_equal(bits(payoff_curve(params, square)),
                                      bits(pay[:1200].reshape(40, 30)))

    def test_twins_agree_across_chunks(self):
        xs = np.random.default_rng(5).random(2 * _CHUNK + 1000)
        chunks = list(_descend_many(P2, xs, 1e-10, 100_000))
        assert [c[0] for c in chunks] == [slice(0, _CHUNK), slice(_CHUNK, 2 * _CHUNK),
                                          slice(2 * _CHUNK, xs.size)]
        f = np.concatenate([c[1] for c in chunks])
        np.testing.assert_array_equal(f[::997], [cdf(P2, x) for x in xs[::997]])

    @pytest.mark.parametrize("fn", [cdf_many, cdf_integral_many, mrl_many, payoff_curve])
    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
    def test_array_domain_error(self, fn, bad):
        with pytest.raises(DomainError):
            fn(PSingularParams(0.01), [0.2, 0.5, bad])


class TestSurvival:
    def test_plateau(self):
        assert survival(P1, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert survival(P2, 1 / 3) == pytest.approx(2 / 3, abs=1e-12)

    def test_right_endpoint(self):
        assert survival(P1, 1.0) == 0.0
        assert survival(P2, 1.0) == 0.0

    def test_complement(self):
        for x in (0.1, 0.3, 0.7, 0.9):
            assert survival(P2, x) == pytest.approx(1.0 - cdf(P2, x), abs=1e-9)


class TestSample:
    def test_deterministic_given_seed(self):
        a = sample(P2, 42, 1000)
        b = sample(P2, 42, 1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(P2, 43, 1000))

    def test_support(self):
        draws = sample(P2, 1, 5000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_draws_avoid_construction_gaps(self):
        # draws concentrate on the Cantor set, so none may land strictly
        # inside a removed middle-third gap (digit-by-digit extraction is
        # too float-fragile for this; interval membership is robust)
        draws = sample(PSingularParams(0.3), 5, 2000)
        for a, b in gap_intervals(8):
            inside = (draws > a + 1e-12) & (draws < b - 1e-12)
            assert not np.any(inside)

    @pytest.mark.parametrize("p,expected", [(1.0, 0.5), (2.0, 0.6)])
    def test_mean(self, p, expected):
        n = 10 ** 6
        draws = sample(PSingularParams(p), 2024, n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - expected) <= 3.0 * se

    def test_dkw_band_against_cdf(self):
        assert check_dkw(P1, EvalConfig(), 99).passed

    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_dkw_band_off_the_classical_case(self, p):
        # at these p the largest jump of F between adjacent doubles is
        # below the band, so a double sampler can meet it
        assert check_dkw(PSingularParams(p), EvalConfig(), 99).passed

    def test_leading_run_of_left_steps(self):
        # at p=0.01 most of the mass sits in long runs of left steps:
        # F(3^-k) = q^k is 0.370 at k=100 and 0.050 at k=300.  F is flat on
        # the gap (3^-k, 2 3^-k), so the share of draws below its midpoint
        # estimates q^k whichever way a draw near 3^-k rounds
        n, params = 10 ** 6, PSingularParams(0.01)
        draws = sample(params, 7, n)
        for k in (1, 50, 100, 300):
            qk = params.left_mass ** k
            share = np.count_nonzero(draws < 1.5 * 3.0 ** -k) / n
            assert abs(share - qk) <= 4.0 * math.sqrt(qk * (1.0 - qk) / n), k

    @pytest.mark.parametrize("p", [1e-300, 5e-324, 1e300])
    def test_extreme_p(self, p):
        # r so small that numpy caps the geometric run and 3^-K is 0, or q so
        # small that every step goes right
        draws = sample(PSingularParams(p), 3, 1000)
        assert np.all(np.isfinite(draws)) and draws.min() >= 0.0 and draws.max() <= 1.0

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            sample(P1, 0, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            sample(P1, -1, 10)


class TestPointCloud:
    def test_initialization_only(self):
        cloud = point_cloud(P1, n_initial=2, iterations=0)
        assert cloud.points == [(0.0, 0.0), (1 / 3, 0.5), (2 / 3, 0.5), (1.0, 1.0)]

    def test_endpoints_and_monotone(self):
        cloud = point_cloud(P2, n_initial=50, iterations=6)
        assert (cloud.x[0], cloud.F[0]) == (0.0, 0.0)
        assert (cloud.x[-1], cloud.F[-1]) == (1.0, 1.0)
        assert np.all(np.diff(cloud.x) > 0)
        assert np.all(np.diff(cloud.F) >= 0)

    def test_matches_recursive_evaluator(self):
        cloud = point_cloud(P1, n_initial=40, iterations=7)
        dev = np.abs(cdf_many(P1, cloud.x) - cloud.F)
        assert dev.max() <= 1e-10

    def test_matches_recursive_evaluator_low_p(self):
        # for p < 1 the left-branch Hoelder exponent is small, so a
        # one-ulp drift of a cloud x genuinely moves F by ~|ulp|^alpha;
        # the agreement bound must respect that float resolution limit
        params = PSingularParams(0.4)
        cloud = point_cloud(params, n_initial=40, iterations=7)
        dev = np.abs(cdf_many(params, cloud.x) - cloud.F)
        assert dev.max() <= 1e-4

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            point_cloud(P1, n_initial=1000, iterations=17, max_points=100_000)

    def test_resource_cap_on_initial_cloud(self):
        # the 1,002 initial points already exceed a cap of 5
        with pytest.raises(ResourceLimitError, match="1002 after iteration 0 of 0"):
            point_cloud(P1, n_initial=1000, iterations=0, max_points=5)
        assert len(point_cloud(P1, n_initial=1000, iterations=0, max_points=1002)) == 1002

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            point_cloud(P1, n_initial=1, iterations=1)
        with pytest.raises(ParameterError):
            point_cloud(P1, n_initial=10, iterations=-1)


class TestGapIntervals:
    def test_levels_one_two(self):
        gaps = gap_intervals(2)
        assert gaps == pytest.approx([(1 / 9, 2 / 9), (1 / 3, 2 / 3), (7 / 9, 8 / 9)])

    def test_count(self):
        assert len(gap_intervals(8)) == 2 ** 8 - 1

    def test_gap_grid_is_cached_and_read_only(self):
        xs = gap_grid(1000)
        assert gap_grid(1000) is xs
        assert not xs.flags.writeable
        with pytest.raises(ValueError):
            xs[0] = 0.5
        ends = [e for gap in gap_intervals(8) for e in gap]
        np.testing.assert_array_equal(
            xs, np.unique(np.concatenate((np.linspace(0.0, 1.0, 1000), ends, [1 / 3, 2 / 3]))))
        np.testing.assert_array_equal(gap_grid(0), np.unique(ends))
        with pytest.raises(ParameterError):
            gap_grid(-1)

    def test_cdf_constant_on_gaps(self):
        for a, b in gap_intervals(4):
            lo, hi = np.nextafter(a, 1.0), np.nextafter(b, 0.0)
            assert cdf(P2, lo) == pytest.approx(cdf(P2, hi), abs=1e-12)
