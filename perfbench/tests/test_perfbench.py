"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/tests

The last two tests run the benchmark for a second or so per workload.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import singular_mrl as sm  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


class TestOracleClosedForms:
    one = oracle.Family(1.0)

    def test_cdf_quarter(self):
        # 1/4 = 0.0202..._3 never terminates; the oracle solves its cycle
        assert oracle.cdf(self.one, 0.25) == (Fraction(1, 3), Fraction(1, 3))

    @pytest.mark.parametrize("p", [0.01, 0.5, 1.0, 2.0, 100.0])
    def test_i1_mean_and_mrl_anchor(self, p):
        fam = oracle.Family(p)
        q = Fraction(p)
        i1 = (q + 2) / (6 * (q + 1) * (2 * q + 1))
        assert oracle.cdf_integral(fam, Fraction(1, 3)) == (i1, i1)
        mean = 3 * q / (2 * (2 * q + 1))
        assert oracle.cdf_integral(fam, 1.0) == (1 - mean, 1 - mean)
        m_third = (5 * q + 4) / (6 * (2 * q + 1))
        assert oracle.mrl(fam, Fraction(1, 3)) == (m_third, m_third)

    def test_p1_values(self):
        assert oracle.cdf_integral(self.one, Fraction(1, 3))[0] == Fraction(1, 12)
        assert self.one.mean == Fraction(1, 2)
        assert oracle.mrl(self.one, Fraction(1, 3))[0] == Fraction(1, 2)
        assert oracle.fixed_point(self.one) == Fraction(5, 12)

    @pytest.mark.parametrize("p", [0.01, 1.0, 100.0])
    def test_fixed_point_solves_m_of_x_equals_x(self, p):
        fam = oracle.Family(p)
        x_star = oracle.fixed_point(fam)
        assert oracle.mrl(fam, x_star) == (x_star, x_star)

    def test_reflection_identity(self):
        # 1 - F(u) = p F(1 - u) on [1/3, 1], exactly
        fam = oracle.Family(2.0)
        for u in (Fraction(1, 2), Fraction(7, 9), Fraction(25, 27), Fraction(3, 4)):
            assert 1 - oracle.cdf(fam, u)[0] == fam.p * oracle.cdf(fam, 1 - u)[0]

    def test_rounded_gap_endpoint_is_not_the_true_one(self):
        # float(1/9) lies below 1/9, where F_p is steep for small p
        fam = oracle.Family(0.01)
        at_double = oracle.cdf(fam, 1 / 9)[0]
        at_true = oracle.cdf(fam, Fraction(1, 9))[0]
        assert at_double < at_true and float(at_true - at_double) > 1e-3


class TestInputs:
    ends = inputs.gap_endpoints()

    def test_gap_endpoints_match_the_library(self):
        from singular_mrl import gap_intervals
        assert np.array_equal(self.ends, np.sort(np.ravel(gap_intervals(8))))

    def test_equal_seeds_give_identical_inputs(self):
        for index in range(4):
            a, b = inputs.grid_batch(7, index, self.ends), inputs.grid_batch(7, index, self.ends)
            assert a["p"] == b["p"]
            for key in ("xs", "body", "tail", "endpoints"):
                assert np.array_equal(a[key], b[key])
            assert inputs.solve_request(7, index) == inputs.solve_request(7, index)
            assert inputs.sample_seeds(7, index) == inputs.sample_seeds(7, index)

    def test_other_seeds_give_other_inputs(self):
        a, b = inputs.grid_batch(7, 0, self.ends), inputs.grid_batch(8, 0, self.ends)
        assert not np.array_equal(a["xs"], b["xs"])
        assert inputs.solve_request(7, 0) != inputs.solve_request(8, 0)
        assert inputs.sample_seeds(7, 0) != inputs.sample_seeds(8, 0)

    def test_grid_batch_composition(self):
        batch = inputs.grid_batch(3, 0, self.ends)
        xs = batch["xs"]
        assert xs.size == inputs.BATCH_POINTS
        assert np.array_equal(xs[batch["endpoints"]], self.ends)
        assert np.count_nonzero(xs >= 1.0 - inputs.TAIL_WIDTH) >= inputs.BATCH_POINTS * inputs.TAIL_SHARE
        assert ((xs >= 0.0) & (xs <= 1.0)).all()
        assert (xs[batch["tail"]] >= 1.0 - inputs.TAIL_WIDTH).all()
        assert batch["body"].size == inputs.CHECK_BODY and batch["tail"].size == inputs.CHECK_TAIL

    def test_solve_requests_cover_log_p_range(self):
        ps = [inputs.solve_request(3, i)["p"] for i in range(inputs.SOLVE_STRATA)]
        strata = sorted(int((np.log10(p) + 2.0) / 4.0 * inputs.SOLVE_STRATA) for p in ps)
        assert strata == list(range(inputs.SOLVE_STRATA))


class TestVerdict:
    """A wrong value that no seed defect explains makes a run incorrect."""

    @pytest.mark.parametrize("p", inputs.P_SET)
    def test_corrupted_m_at_body_points_is_unexplained(self, p):
        P = sm.PSingularParams(p)
        batch = inputs.grid_batch(11, 0, inputs.gap_endpoints())
        xs = batch["xs"][batch["body"]]
        assert not any(oracle.float_path_diverges(*workloads._library_start("m", x))
                       for x in xs.tolist())
        # off by more than the mrl_many_quotient defect could make it at x
        slack = np.array([workloads.quotient_slack(P, x) or 0.0 for x in xs.tolist()])
        values = sm.mrl_many(P, xs) + 1e-6 + 2.0 * slack
        res = workloads.Result()
        check = res.check("oracle.m.body")
        workloads.score(P, check, "m", values, workloads.oracle_bounds(P, oracle.Family(p), xs),
                        xs, {})
        assert check.failed == xs.size and check.unexplained == xs.size
        summary = worker._summary(res)
        assert summary["correct"] is False and summary["failed"] == xs.size

    def test_true_m_at_body_points_passes_or_is_explained(self):
        P = sm.PSingularParams(100.0)
        batch = inputs.grid_batch(11, 2, inputs.gap_endpoints())
        xs = batch["xs"][batch["body"]]
        check = workloads.Check("m")
        workloads.score(P, check, "m", sm.mrl_many(P, xs),
                        workloads.oracle_bounds(P, oracle.Family(100.0), xs), xs, {})
        assert check.unexplained == 0

    def test_known_defect_misses_are_reported_not_failed(self):
        res = workloads.Result()
        check = res.check("oracle.F.endpoints")
        check.add(True)
        check.add(False, 1e-3, cause="rounded_descent")
        res.check("oracle.J.endpoints").add(True)
        summary = worker._summary(res)
        assert summary["correct"] is True
        assert summary["attempted"] == 3 and summary["failed"] == 0
        assert summary["known_defect_misses"] == 1
        assert summary["success_rate"] == 0.75

    def test_wrong_sign_change_count_is_unexplained(self):
        # mrl_many's scan finds one sign change at p = 1, so 3 is not its defect
        assert workloads.sign_change_cause(sm.PSingularParams(1.0), 3) is None


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    done = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_printed_with_its_unit():
    done = _run(["--workload", "solve-price", "--seed", "1", "--seconds", "1", "--trace", "1"],
                ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_library_source():
    # a directory holding only the benchmark, inside the checkout's scratch area
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = _run(["--workload", "grid-eval", "--seed", "1", "--seconds", "1"], bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
