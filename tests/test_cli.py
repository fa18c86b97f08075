import json

import numpy as np
import pytest

from singular_mrl import (EvalConfig, PSingularParams, cdf_with_bound,
                          comparative_statics, fixed_point_solve, gap_intervals,
                          mrl, mrl_many, optimal_price, point_cloud)
from singular_mrl.cli import PIECE_ROWS, main
from singular_mrl.distribution import gap_grid

P1 = PSingularParams(1.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_cdf_text(self, capsys):
        code, out, _ = run(capsys, "cdf", "--p", "1", "--x", "0.25")
        assert code == 0
        assert "F(0.25)" in out
        assert float(out.split("=")[1].split("(")[0]) == pytest.approx(1 / 3, abs=1e-10)

    def test_cdf_json(self, capsys):
        code, out, _ = run(capsys, "cdf", "--p", "3", "--x", "0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 3.0
        assert payload["value"] == pytest.approx(0.0625, abs=1e-10)
        assert payload["error_bound"] <= 1e-10

    def test_mrl_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "mrl", "--x", "0.5", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "x,value,error_bound"
        x, value, _ = (float(t) for t in row.split(","))
        assert x == 0.5
        assert value == pytest.approx(1 / 3, abs=1e-10)

    def test_gmrl(self, capsys):
        code, out, _ = run(capsys, "gmrl", "--x", "0.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2 / 3, abs=1e-9)

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "mrl", "--p", "2", "--x", "0.77", "--format", "csv")
        _, second, _ = run(capsys, "mrl", "--p", "2", "--x", "0.77", "--format", "csv")
        assert first == second


class TestExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cdf"])  # missing required --x
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "cdf", "--x", "1.5")
        assert code == 3
        assert "domain error" in err

    def test_parameter_error(self, capsys):
        code, _, err = run(capsys, "cdf", "--p", "-1", "--x", "0.5")
        assert code == 4
        assert "parameter error" in err

    @pytest.mark.parametrize("argv", [("plot-data", "--what", "mrl", "--grid", "-1"),
                                      ("price", "--curve-points", "-3")])
    def test_negative_count(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert "parameter error" in err

    @pytest.mark.parametrize("p", ["1e-20", "1e-300"])
    @pytest.mark.parametrize("argv", [("mrl", "--x", "0.0002"), ("gmrl", "--x", "0.1"),
                                      ("plot-data", "--what", "mrl", "--grid", "100"),
                                      ("fixpoint",), ("fixpoint", "--grid", "0"), ("price",)])
    def test_unresolved_survival(self, capsys, argv, p):
        # 1 - F(x) rounds to 0 below 1/3: one parameter error line, no rows.
        # fixpoint and price meet it in the uniqueness certificate's scalar mrl
        code, out, err = run(capsys, *argv, "--p", p)
        assert code == 4
        assert out == ""
        assert err.startswith("parameter error: ") and err.count("\n") == 1
        assert "cannot resolve the survival" in err

    def test_runtime_error(self, capsys):
        code, _, err = run(capsys, "plot-data", "--what", "cdf",
                           "--n-initial", "1000", "--iterations", "17",
                           "--max-points", "100000")
        assert code == 5
        assert "error" in err

    def test_cap_on_initial_cloud(self, capsys):
        code, out, err = run(capsys, "plot-data", "--what", "cdf", "--iterations", "0",
                             "--max-points", "5")
        assert code == 5
        assert out == "" and "exceeded cap of 5 points" in err

    def test_cap_before_the_initial_cloud(self, capsys, tmp_path):
        # 10^12 initial points are refused on their count, not by the allocator
        code, out, err = run(capsys, "plot-data", "--n-initial", "1000000000000",
                             "--iterations", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 5
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "1000000000002 after iteration 0 of 0" in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "-1")
        assert code == 4
        assert out == "" and err == "parameter error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [("cdf", "--x", "0.5"),
                                      ("plot-data", "--iterations", "2", "--grid", "50")],
                             ids=lambda argv: argv[0])
    def test_out_in_missing_directory(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "fig.csv"))
        assert code == 5
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [("plot-data", "--format", "json"),
                                      ("verify", "--format", "csv")], ids=lambda argv: argv[0])
    def test_format_the_command_cannot_write(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestTolerance:
    def test_env_var_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGULAR_MRL_TOLERANCE", "1e-4")
        code, out, _ = run(capsys, "cdf", "--x", "0.1234", "--format", "json")
        assert code == 0
        assert json.loads(out)["error_bound"] <= 1e-4

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGULAR_MRL_TOLERANCE", "1e-2")
        code, out, _ = run(capsys, "cdf", "--x", "0.1234",
                           "--tolerance", "1e-12", "--format", "json")
        assert code == 0
        assert json.loads(out)["error_bound"] <= 1e-12

    def test_default_is_the_library_default(self, capsys, monkeypatch):
        monkeypatch.delenv("SINGULAR_MRL_TOLERANCE", raising=False)
        with pytest.raises(SystemExit):
            main(["cdf", "--help"])
        assert f"(default {EvalConfig().tolerance:g}, or" in " ".join(capsys.readouterr().out.split())
        code, out, _ = run(capsys, "cdf", "--x", "0.1234", "--format", "json")
        assert json.loads(out)["value"] == cdf_with_bound(P1, 0.1234, EvalConfig())[0]

    def test_bad_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGULAR_MRL_TOLERANCE", "banana")
        code, _, err = run(capsys, "cdf", "--x", "0.5")
        assert code == 4


class TestFixpointAndPricing:
    def test_fixpoint_json(self, capsys):
        code, out, _ = run(capsys, "fixpoint", "--p", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["x_star"] == pytest.approx(5 / 12, abs=1e-9)
        assert payload["closed_form"] == pytest.approx(5 / 12, abs=1e-15)
        assert payload["sign_changes"] == 1

    # the bytes fixpoint wrote while every solve scanned gap_grid(1000) for
    # sign changes; the certificate keeps them, with or without the scan
    PINNED = {
        ("0.01", "csv"): "x_star,residual,bracket_lo,bracket_hi,closed_form,sign_changes\n"
                         "0.49754901960784315,-1.1102230246251565e-16,0.49754901960784315,"
                         "0.49754901960784315,0.49754901960784315,1\n",
        ("1", "csv"): "x_star,residual,bracket_lo,bracket_hi,closed_form,sign_changes\n"
                      "0.41666666666666663,1.1102230246251565e-16,0.41666666666666663,"
                      "0.41666666666666663,0.41666666666666663,1\n",
        ("100", "csv"): "x_star,residual,bracket_lo,bracket_hi,closed_form,sign_changes\n"
                        "0.37562189054726369,0,0.37562189054726369,0.37562189054726369,"
                        "0.37562189054726369,1\n",
        ("0.01", "json"): '{"p": 0.01, "x_star": 0.49754901960784315, '
                          '"residual": -1.1102230246251565e-16, '
                          '"bracket": [0.49754901960784315, 0.49754901960784315], '
                          '"closed_form": 0.49754901960784315, "sign_changes": 1}\n',
        ("1", "json"): '{"p": 1.0, "x_star": 0.41666666666666663, '
                       '"residual": 1.1102230246251565e-16, '
                       '"bracket": [0.41666666666666663, 0.41666666666666663], '
                       '"closed_form": 0.41666666666666663, "sign_changes": 1}\n',
        ("100", "json"): '{"p": 100.0, "x_star": 0.3756218905472637, "residual": 0.0, '
                         '"bracket": [0.3756218905472637, 0.3756218905472637], '
                         '"closed_form": 0.3756218905472637, "sign_changes": 1}\n',
    }

    @pytest.mark.parametrize("grid", ["1000", "0"])
    @pytest.mark.parametrize("p, fmt", sorted(PINNED))
    def test_fixpoint_bytes_are_pinned(self, capsys, p, fmt, grid):
        code, out, err = run(capsys, "fixpoint", "--p", p, "--format", fmt, "--grid", grid)
        assert (code, out, err) == (0, self.PINNED[p, fmt], "")

    def test_fixpoint_rejects_small_grid(self, capsys):
        code, out, err = run(capsys, "fixpoint", "--p", "1", "--grid", "50")
        assert code == 4
        assert out == "" and "parameter error" in err

    def test_price(self, capsys):
        code, out, _ = run(capsys, "price", "--p", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal_price"] == pytest.approx(5 / 12, abs=1e-9)
        assert payload["expected_payoff"] == pytest.approx(25 / 288, abs=1e-9)

    def test_statics_csv(self, capsys):
        code, out, _ = run(capsys, "statics", "--p-list", "0.5,1,2", "--format", "csv")
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "p,optimal_price,expected_payoff"
        prices = [float(r.split(",")[1]) for r in rows[1:]]
        assert prices[0] > prices[1] > prices[2]

    def test_statics_bad_list(self, capsys):
        code, _, _ = run(capsys, "statics", "--p-list", "0.5,oops")
        assert code == 4


class TestPlotData:
    def test_stdout_sections(self, capsys):
        code, out, _ = run(capsys, "plot-data", "--n-initial", "10",
                           "--iterations", "3", "--grid", "100")
        assert code == 0
        cdf_part, mrl_part = out.split("\n\n")
        assert cdf_part.startswith("x,F\n")
        assert mrl_part.startswith("x,m\n")

    def test_file_output_both(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        code, _, _ = run(capsys, "plot-data", "--n-initial", "10",
                         "--iterations", "3", "--grid", "100",
                         "--out", str(out_path))
        assert code == 0
        cdf_text = (tmp_path / "fig.cdf.csv").read_text()
        mrl_text = (tmp_path / "fig.mrl.csv").read_text()
        assert cdf_text.startswith("x,F\n")
        assert mrl_text.startswith("x,m\n")
        # byte-stable: a second run reproduces the files exactly
        run(capsys, "plot-data", "--n-initial", "10", "--iterations", "3",
            "--grid", "100", "--out", str(out_path))
        assert (tmp_path / "fig.cdf.csv").read_text() == cdf_text

    def test_mrl_section_is_the_grid_union_byte_for_byte(self, capsys):
        # the cached grid is the union plot-data has always evaluated on
        code, out, _ = run(capsys, "plot-data", "--what", "mrl", "--p", "0.5", "--grid", "200")
        assert code == 0
        grid = np.unique(np.concatenate((np.linspace(0.0, 1.0, 200), np.ravel(gap_intervals(8)))))
        m = mrl_many(PSingularParams(0.5), grid)
        assert out == "x,m\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(grid.tolist(), m.tolist()))

    def test_single_section_uses_out_directly(self, capsys, tmp_path):
        out_path = tmp_path / "cdf.csv"
        code, _, _ = run(capsys, "plot-data", "--what", "cdf",
                         "--n-initial", "10", "--iterations", "2",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "x,F"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--p-list", "1", "--grid", "200")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out


def csv_rows(rows):
    """An independent rendering of CSV rows, every number as .17g."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


class TestWriter:
    # 1,002 initial points doubling over 6 iterations: 127,008 CDF rows,
    # written in two pieces
    PLOT = ("plot-data", "--n-initial", "1000", "--iterations", "6", "--grid", "100")

    @pytest.fixture(scope="class")
    def sections(self):
        cloud = point_cloud(P1, 1000, 6)
        assert PIECE_ROWS < len(cloud) <= 2 * PIECE_ROWS
        grid = gap_grid(100)
        return ("x,F\n" + csv_rows(zip(cloud.x.tolist(), cloud.F.tolist())),
                "x,m\n" + csv_rows(zip(grid.tolist(), mrl_many(P1, grid).tolist())))

    def test_plot_data_in_pieces_to_stdout(self, capsys, sections):
        code, out, _ = run(capsys, *self.PLOT)
        assert code == 0
        assert out == sections[0] + "\n" + sections[1]

    def test_plot_data_in_pieces_to_files(self, capsys, tmp_path, sections):
        code, out, _ = run(capsys, *self.PLOT, "--out", str(tmp_path / "fig.csv"))
        assert code == 0 and out == ""
        assert sorted(f.name for f in tmp_path.iterdir()) == ["fig.cdf.csv", "fig.mrl.csv"]
        assert (tmp_path / "fig.cdf.csv").read_bytes() == sections[0].encode()
        assert (tmp_path / "fig.mrl.csv").read_bytes() == sections[1].encode()

    def test_empty_curve(self, capsys, tmp_path):
        code, out, _ = run(capsys, "price", "--curve-points", "0", "--format", "csv")
        assert (code, out) == (0, "price,payoff\n")
        code, _, _ = run(capsys, "price", "--curve-points", "0", "--format", "csv",
                         "--out", str(tmp_path / "curve.csv"))
        assert (tmp_path / "curve.csv").read_bytes() == b"price,payoff\n"

    @staticmethod
    def _expected(command):
        if command == "cdf":
            return "x,value,error_bound", [(0.25, *cdf_with_bound(P1, 0.25))]
        if command in ("mrl", "gmrl"):
            v = mrl(PSingularParams(2.0), 0.4)
            scale = 0.4 if command == "gmrl" else 1.0
            return "x,value,error_bound", [(0.4, v.value / scale, v.error_bound / scale)]
        if command == "fixpoint":
            fp = fixed_point_solve(PSingularParams(2.0))
            return ("x_star,residual,bracket_lo,bracket_hi,closed_form,sign_changes",
                    [(fp.x_star, fp.residual, *fp.bracket, fp.closed_form, fp.sign_changes)])
        results = ([optimal_price(PSingularParams(2.0))] if command == "price"
                   else comparative_statics([0.5, 1.0, 2.0]))
        return ("p,optimal_price,expected_payoff",
                [(r.p, r.optimal_price, r.expected_payoff) for r in results])

    @pytest.mark.parametrize("argv", [
        ("cdf", "--p", "1", "--x", "0.25"),
        ("mrl", "--p", "2", "--x", "0.4"),
        ("gmrl", "--p", "2", "--x", "0.4"),
        ("fixpoint", "--p", "2"),
        ("price", "--p", "2"),
        ("statics", "--p-list", "0.5,1,2"),
    ], ids=lambda argv: argv[0])
    def test_scalar_commands_csv(self, capsys, argv):
        header, expected = self._expected(argv[0])
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == header + "\n" + csv_rows(expected)
