import math
import tracemalloc
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (DomainError, EvalConfig, ParameterError,
                          PSingularParams, ResourceLimitError, cdf, cdf_many,
                          cdf_integral_many, cdf_with_bound, expected_payoff,
                          gap_intervals, mrl, mrl_many, payoff_curve,
                          point_cloud, sample, survival)
from singular_mrl import distribution
from singular_mrl.distribution import (_CHUNK, _HEAD, _SAMPLE_BLOCK, ONE_THIRD, TWO_THIRDS,
                                      _alias_table, _branch, _descend, _descend_many, _drop,
                                      _fold_runs, gap_grid)
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


def gather(groups, n):
    """The rows F, F bound, J and J bound of a vector descent's groups, put
    back in input order; a quantity the walk did not carry stays NaN.
    Every position must come in exactly one group."""
    out, seen = np.full((4, n), np.nan), np.zeros(n, dtype=int)
    for at, *rows in groups:
        np.add.at(seen, at, 1)
        for row, values in zip(out, rows):
            if values is not None:
                row[at] = values
    assert (seen == 1).all()
    return out


def twins(params, xs, max_depth, tol_f, tol_j, relative):
    """F, J and both bounds from the vector and from the scalar loop, each
    as one array per request."""
    vec, scalar = [], []
    for tol, on_j, rel in descents(tol_f, tol_j, relative):
        vec.append(gather(_descend_many(params, xs, tol, max_depth, on_j, rel), xs.size))
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


def cloud_oracle(params, n_initial, iterations):
    # the shrink-flip iteration as a sort: np.unique keeps, for each distinct
    # x, the height of its first copy in the concatenation
    p, v = params.p, params.left_mass
    x = np.concatenate(([0.0], np.linspace(ONE_THIRD, TWO_THIRDS, n_initial), [1.0]))
    F = np.concatenate(([0.0], np.full(n_initial, v), [1.0]))
    for _ in range(iterations):
        x, first = np.unique(np.concatenate((x / 3.0, x, 1.0 - x / 3.0)), return_index=True)
        F = np.concatenate((F * v, F, 1.0 - F * (p * v)))[first]
    return x, F


CLOUD_SIZES = [(2, 0), (2, 1), (2, 2), (2, 19), (3, 12), (5, 14), (17, 3), (1000, 10)]


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

    def test_config_max_depth_is_an_integer(self):
        # a float depth used to pass here and fail inside every evaluator
        with pytest.raises(ParameterError, match="max_depth must be an integer, got 2.5"):
            EvalConfig(max_depth=2.5)
        config = EvalConfig(max_depth=np.int64(1))
        assert type(config.max_depth) is int
        assert cdf_with_bound(P1, 0.25, config) == (0.25, 0.25)

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
           relative=st.booleans(), max_depth=st.sampled_from([1, 7, 8, 9, 100_000]),
           chunk=st.sampled_from([4, 16, _CHUNK]))
    @settings(max_examples=200, deadline=None)
    def test_twins_agree_with_per_point_relative(self, data, xs, p, on_j, relative, max_depth,
                                                 chunk):
        # each point's start, tolerance and relative flag those of its
        # branch, as `_branch_many` sets them, against the scalar `_branch`;
        # small slices send the points through the pooled tail
        params = PSingularParams(p)
        tol_above, tol_below = data.draw(st.lists(
            st.sampled_from([1e-6, 1e-10, 1e-12, 1e-10 * 100 / 101, 1e-13]), min_size=2, max_size=2))
        with mock.patch.object(distribution, "_CHUNK", chunk):
            vec = gather(_descend_many(params, xs, tol_above, max_depth, on_j, relative,
                                       tol_below=tol_below), len(xs))
        scalar = [_branch(params, x, tol_above, tol_below, max_depth, on_j, relative)[1:]
                  for x in xs]
        np.testing.assert_array_equal(bits(vec), bits(np.array(scalar).T))

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
        # three slices: one group per slice, then the pooled tail
        xs = np.random.default_rng(5).random(2 * _CHUNK + 1000)
        groups = list(_descend_many(P2, xs, 1e-10, 100_000))
        assert len(groups) == 4
        f = gather(groups, xs.size)[0]
        np.testing.assert_array_equal(f[::997], [cdf(P2, x) for x in xs[::997]])

    @pytest.mark.parametrize("max_depth", [1, _HEAD - 1, _HEAD, _HEAD + 1, 100_000])
    @pytest.mark.parametrize("tol_f,tol_j,relative", STOP_MODES)
    def test_pooled_twins_agree_bit_for_bit(self, monkeypatch, twin_params, twin_points,
                                            tol_f, tol_j, relative, max_depth):
        # slices of 32 points: every slice walks its head alone and the pool
        # is walked whenever it fills, so the pooled tail and the depth cap
        # on either side of the head are compared with the scalar loop (with
        # max_depth <= _HEAD the pool walks no level and ends its points)
        walks = []

        def logged(walk, idx, state, levels, cap=True):
            walks.append(levels)
            return descend_slice(walk, idx, state, levels, cap)

        descend_slice = distribution._descend_slice
        monkeypatch.setattr(distribution, "_CHUNK", 32)
        monkeypatch.setattr(distribution, "_descend_slice", logged)
        for params in twin_params:
            walks.clear()
            vec, scalar = twins(params, twin_points, max_depth, tol_f, tol_j, relative)
            np.testing.assert_array_equal(bits(vec), bits(scalar))
            slices = walks.count(min(_HEAD, max_depth))
            assert slices >= 3 * len(descents(tol_f, tol_j, relative))
            assert len(walks) - slices >= 2

    @pytest.mark.parametrize("chunk", [32, _CHUNK])
    @pytest.mark.parametrize("max_depth", [1, _HEAD, 100_000])
    @pytest.mark.parametrize("on_j,relative", [(False, False), (True, False), (False, True),
                                               (True, True)])
    def test_walks_carry_only_what_they_read(self, monkeypatch, twin_params, twin_points,
                                             on_j, relative, max_depth, chunk):
        # an F-only and a J-only walk give the rows of the walk that carries
        # both; a quantity neither read nor tested is not carried at all
        monkeypatch.setattr(distribution, "_CHUNK", chunk)
        for params in twin_params:
            both = gather(_descend_many(params, twin_points, 1e-10, max_depth, on_j, relative),
                          twin_points.size)
            for reads in ("F", "J"):
                groups = list(_descend_many(params, twin_points, 1e-10, max_depth, on_j,
                                            relative, reads))
                one = gather(groups, twin_points.size)
                carried = {reads, "J" if on_j else "F"} | ({"F"} if relative else set())
                for name, rows in (("F", slice(0, 2)), ("J", slice(2, 4))):
                    if name in carried:
                        np.testing.assert_array_equal(bits(one[rows]), bits(both[rows]))
                    else:
                        assert all(g[rows.start + 1] is None for g in groups)

    @pytest.mark.parametrize("fn,bound", [(cdf_many, 40), (mrl_many, 80)])
    def test_pool_memory_is_bounded(self, fn, bound):
        # 2e6 points are 122 slices; the pool is walked whenever it holds
        # _CHUNK points, so the working set beyond the result is a few
        # slices wide however long the input (a pool that kept every
        # survivor to the end peaks at 72 and 125 slice widths here)
        xs = np.random.default_rng(9).random(2_000_000)
        tracemalloc.start()
        try:
            out = fn(P1, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= bound * _CHUNK * xs.itemsize

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

    @pytest.mark.parametrize("p", [0.01, 1.0, 100.0, 1e-300, 1e300])
    def test_alias_table_probabilities(self, p):
        # word w comes from its own column with probability P_w and from
        # every column j aliased to it with 1 - P_j, each column 2^-k
        params = PSingularParams(p)
        threshold, alias, _, _ = _alias_table(params)
        k = int(threshold.size).bit_length() - 1
        implied = [Fraction(t) for t in threshold.tolist()]
        for j, (t, i) in enumerate(zip(threshold.tolist(), alias.tolist())):
            if i != j:
                implied[i] += 1 - Fraction(t)
        q, r = Fraction(params.left_mass), Fraction(params.right_mass)
        by_count = [q ** (k - c) * r ** c for c in range(k + 1)]
        exact = [by_count[bin(w).count("1")] for w in range(1 << k)]
        tv = math.fsum(abs(float(m / (1 << k) - e)) for m, e in zip(implied, exact)) / 2
        assert np.all((threshold >= 0.0) & (threshold <= 1.0))
        assert tv <= 1e-13

    @pytest.mark.parametrize("p", [0.01, 1.0, 100.0, 1e-300, 1e300])
    def test_alias_table_maps(self, p):
        # each word's (a_w, s_w) within an ulp of its exact composition:
        # bit j is level j + 1, a left step s -> s/3, a right one a -> a + s
        # and s -> -s/3
        _, _, a_w, s_w = _alias_table(PSingularParams(p))
        k = int(a_w.size).bit_length() - 1
        for w, (a_got, s_got) in enumerate(zip(a_w.tolist(), s_w.tolist())):
            a, s = Fraction(0), Fraction(1)
            for j in range(k):
                if w >> j & 1:
                    a, s = a + s, -s / 3
                else:
                    s = s / 3
            assert abs(Fraction(a_got) - a) <= math.ulp(float(a)), w
            assert abs(Fraction(s_got) - s) <= math.ulp(float(s)), w

    def test_alias_table_is_cached_and_read_only(self):
        table = _alias_table(P2)
        assert _alias_table(PSingularParams(2.0)) is table
        assert not any(arr.flags.writeable for arr in table)

    def test_draws_in_blocks(self):
        # the first block's draws do not depend on how many blocks follow,
        # and the working set is the result plus a fixed number of blocks
        # (about 7), not a multiple of n
        n = 16 * _SAMPLE_BLOCK
        head = sample(P1, 3, _SAMPLE_BLOCK)
        tracemalloc.start()
        try:
            draws = sample(P1, 3, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(draws[:_SAMPLE_BLOCK], head)
        assert peak <= draws.nbytes + 16 * 8 * _SAMPLE_BLOCK

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

    @pytest.mark.parametrize("n_initial,iterations", CLOUD_SIZES)
    @pytest.mark.parametrize("p", [0.01, 0.3, 1.0, 7.3, 100.0, 1e-6, 1e6, 1e-300, 1e300])
    def test_byte_identical_to_sorting_oracle(self, p, n_initial, iterations):
        # p = 7.3 needs the right-side rule: keeping the first of a run of
        # equal 1 - x/3, with no regard to the cloud's own copy, is 1 ulp off
        # at x ~ 7/9 from iteration 2; n_initial = 2 needs the plateau cut
        # strictly inside (fl(1/3), 1 - fl(1/3)), as fl(2/3) and 1 - fl(1/3)
        # are adjacent doubles
        params = PSingularParams(p)
        x, F = cloud_oracle(params, n_initial, iterations)
        cloud = point_cloud(params, n_initial, iterations)
        assert cloud.x.tobytes() == x.tobytes()
        assert cloud.F.tobytes() == F.tobytes()

    def test_oracle_grid_has_runs_on_both_sides(self):
        # the cloud's x does not depend on p, and in the last iteration of
        # some grid size both x/3 and 1 - x/3 hold runs of equal values, so
        # the byte-identity grid drops points on both sides
        def runs_on_both_sides(n_initial, iterations):
            x, _ = cloud_oracle(P1, n_initial, iterations - 1)
            return all(np.any(part[1:] == part[:-1]) for part in (x / 3.0, 1.0 - x / 3.0))

        assert any(runs_on_both_sides(*size) for size in CLOUD_SIZES if size[1])

    def test_fold_runs(self):
        # a run keeps its first point on the left and its last on the right,
        # marked if any point of it is marked
        flags = np.array([False, False, True, False, True, False, False])
        _fold_runs(flags, np.array([1, 2, 3]), -1)
        assert flags.tolist() == [True, True, True, False, True, False, False]
        flags = np.array([True, False, False, False, False, False, False])
        _fold_runs(flags, np.array([0, 1, 4, 5]), 1)
        assert flags.tolist() == [True, True, True, False, False, False, False]

    def test_drop_in_place(self):
        values = np.arange(20.0)
        marks = np.arange(20) % 3 == 0
        front, back = np.array([0, 2, 3, 7]), np.array([11, 15, 16, 19])
        kept = np.delete(np.arange(20), np.concatenate((front, back)))
        x, m = _drop(front, back, values, marks)
        assert x.base is values and m.base is marks
        np.testing.assert_array_equal(x, kept)
        np.testing.assert_array_equal(m, kept % 3 == 0)
        x, = _drop(np.array([], dtype=np.intp), np.array([], dtype=np.intp), np.arange(4.0))
        np.testing.assert_array_equal(x, np.arange(4.0))

    def test_memory(self):
        # the working set of the last iteration is the cloud before it, the
        # new buffers and byte masks; what stays is the result itself.  A
        # short cloud first makes the allocations of a first call, which
        # would otherwise count as held when this test runs alone
        point_cloud(P1, 1000, 2)
        tracemalloc.start()
        try:
            cloud = point_cloud(P1, 1000, 10)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = cloud.x.nbytes + cloud.F.nbytes
        assert peak <= 2 * result
        assert held <= 1.01 * result

    def test_cap_at_the_exact_size(self):
        # the last iteration drops equal neighbours, so its exact size N is
        # below the bound 2n + 999 (the plateau points); a cap of N is met,
        # N - 1 is not
        n = len(point_cloud(P1, 1000, 9))
        size = len(point_cloud(P1, 1000, 10))
        assert size < 2 * n + 999
        assert len(point_cloud(P1, 1000, 10, max_points=size)) == size
        with pytest.raises(ResourceLimitError,
                           match=rf"cap of {size - 1} points \({size} after iteration 10 of 10\)"):
            point_cloud(P1, 1000, 10, max_points=size - 1)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            point_cloud(P1, n_initial=1000, iterations=17, max_points=100_000)
        with pytest.raises(ResourceLimitError, match=r"\(8191009 after iteration 12 of 17\)"):
            point_cloud(P1, n_initial=1000, iterations=17)

    def test_resource_cap_on_initial_cloud(self):
        # the 1,002 initial points already exceed a cap of 5
        with pytest.raises(ResourceLimitError, match="1002 after iteration 0 of 0"):
            point_cloud(P1, n_initial=1000, iterations=0, max_points=5)
        assert len(point_cloud(P1, n_initial=1000, iterations=0, max_points=1002)) == 1002

    def test_resource_cap_before_the_initial_cloud(self):
        # refused on its size alone: 10^12 points would not fit in memory
        with pytest.raises(ResourceLimitError, match="1000000000002 after iteration 0 of 0"):
            point_cloud(P1, n_initial=10**12, iterations=0)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            point_cloud(P1, n_initial=1, iterations=1)
        with pytest.raises(ParameterError):
            point_cloud(P1, n_initial=10, iterations=-1)


@pytest.mark.parametrize("call,name", [
    (lambda: point_cloud(P1, 10.5, 2), "n_initial"),
    (lambda: point_cloud(P1, 10, 2.0), "iterations"),
    (lambda: sample(P1, 0, 2.5), "n"),
    (lambda: sample(P1, 1.5, 10), "seed"),
    (lambda: sample(P1, np.float64(1.0), 10), "seed"),
], ids=["n_initial", "iterations", "n", "seed", "numpy-float-seed"])
def test_generators_reject_non_integers(call, name):
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        call()


def test_generators_take_numpy_integers():
    assert point_cloud(P1, np.int64(10), np.int32(2)).x.tobytes() == \
        point_cloud(P1, 10, 2).x.tobytes()
    np.testing.assert_array_equal(sample(P1, np.uint8(3), np.int16(5)), sample(P1, 3, 5))


class TestGapIntervals:
    def test_levels_one_two(self):
        gaps = gap_intervals(2)
        assert gaps == pytest.approx([(1 / 9, 2 / 9), (1 / 3, 2 / 3), (7 / 9, 8 / 9)])

    def test_count(self):
        assert len(gap_intervals(8)) == 2 ** 8 - 1

    @pytest.mark.parametrize("fn", [gap_intervals, gap_grid])
    def test_rejects_non_integer_level_or_size(self, fn):
        with pytest.raises(ParameterError, match="must be an integer, got 2.5"):
            fn(2.5)
        assert len(fn(np.int64(2))) == len(fn(2))

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
