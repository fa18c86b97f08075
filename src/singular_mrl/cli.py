"""Command-line front end.

Subcommands: cdf, mrl, gmrl, fixpoint, price, statics, plot-data, verify.
Output is deterministic (seeded randomness, 17-significant-digit floats,
'.' decimal separator, '\\n' newlines) so emitted CSV is byte-stable and
round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .distribution import (EvalConfig, PSingularParams, cdf_with_bound,
                           gap_intervals, point_cloud)
from .errors import DomainError, ParameterError, SingularMrlError
from .fixedpoint import fixed_point_solve
from .mrl import mrl, mrl_many
from .pricing import comparative_statics, optimal_price
from .verify import run_all

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_PARAMETER = 4
EXIT_RUNTIME = 5

ENV_TOLERANCE = "SINGULAR_MRL_TOLERANCE"


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _default_tolerance() -> float:
    raw = os.environ.get(ENV_TOLERANCE)
    if raw is None:
        return 1e-10
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(f"{ENV_TOLERANCE} must be a float, got {raw!r}")


def _parse_p_list(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"could not parse p list {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singular-mrl",
        description="Cantor-type singular distributions: CDF, mean residual life, "
                    "fixed points, and monopoly pricing.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=float, default=1.0, help="family parameter p > 0 (default 1)")
    common.add_argument("--tolerance", type=float, default=None,
                        help=f"absolute tolerance (default 1e-10, or ${ENV_TOLERANCE})")
    common.add_argument("--format", choices=("csv", "json", "text"), default="text")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    for name, help_text in (("cdf", "evaluate the CDF at x"),
                            ("mrl", "evaluate the mean residual life at x"),
                            ("gmrl", "evaluate the generalized MRL m(x)/x at x")):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("--x", type=float, required=True)

    sp = sub.add_parser("fixpoint", parents=[common], help="solve m(x) = x")
    sp.add_argument("--grid", type=int, default=1000, help="uniqueness-scan grid size")

    sp = sub.add_parser("price", parents=[common], help="optimal monopoly price")
    sp.add_argument("--curve-points", type=int, default=None,
                    help="attach a payoff curve over this many prices")

    sp = sub.add_parser("statics", parents=[common],
                        help="comparative statics of the optimal price over p values")
    sp.add_argument("--p-list", required=True, help="comma-separated p values")

    sp = sub.add_parser("plot-data", parents=[common],
                        help="emit CSV point cloud of the CDF and of the MRL grid")
    sp.add_argument("--n-initial", type=int, default=1000)
    sp.add_argument("--iterations", type=int, default=17)
    sp.add_argument("--grid", type=int, default=1000, help="MRL grid size")
    sp.add_argument("--max-points", type=int, default=5_000_000)
    sp.add_argument("--what", choices=("cdf", "mrl", "both"), default="both")

    sp = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    sp.add_argument("--grid", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=12345)
    sp.add_argument("--p-list", default="0.5,1,2")

    return parser


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


def _scalar_output(args, label: str, x: float, value: float, bound: float) -> str:
    if args.format == "json":
        return json.dumps({"p": args.p, "x": x, "value": value, "error_bound": bound},
                          indent=None) + "\n"
    if args.format == "csv":
        return f"x,value,error_bound\n{_fmt(x)},{_fmt(value)},{_fmt(bound)}\n"
    return f"{label}({_fmt(x)}) = {_fmt(value)} (error bound {_fmt(bound)})\n"


def _cmd_point(args, config) -> str:
    params = PSingularParams(args.p)
    if args.command == "cdf":
        value, bound = cdf_with_bound(params, args.x, config)
        return _scalar_output(args, "F", args.x, value, bound)
    v = mrl(params, args.x, config)
    if args.command == "mrl":
        return _scalar_output(args, "m", args.x, v.value, v.error_bound)
    # gmrl: e = m/x, with m's error accounting
    if args.x == 0:
        raise DomainError("gmrl is undefined at x = 0 (m(x)/x diverges)")
    return _scalar_output(args, "e", args.x, v.value / args.x, v.error_bound / args.x)


def _cmd_fixpoint(args, config) -> str:
    params = PSingularParams(args.p)
    fp = fixed_point_solve(params, config, scan_grid_n=args.grid)
    fields = {
        "p": args.p,
        "x_star": fp.x_star,
        "residual": fp.residual,
        "bracket": list(fp.bracket),
        "closed_form": fp.closed_form,
        "sign_changes": fp.sign_changes,
    }
    if args.format == "json":
        return json.dumps(fields) + "\n"
    if args.format == "csv":
        return ("x_star,residual,bracket_lo,bracket_hi,closed_form,sign_changes\n"
                f"{_fmt(fp.x_star)},{_fmt(fp.residual)},{_fmt(fp.bracket[0])},"
                f"{_fmt(fp.bracket[1])},{_fmt(fp.closed_form)},{fp.sign_changes}\n")
    return (f"x* = {_fmt(fp.x_star)} (residual {_fmt(fp.residual)}, "
            f"closed form {_fmt(fp.closed_form)}, "
            f"{fp.sign_changes} sign change(s) on [0, 1])\n")


def _cmd_price(args, config) -> str:
    params = PSingularParams(args.p)
    result = optimal_price(params, config, curve_points=args.curve_points)
    if args.format == "json":
        payload = {"p": result.p, "optimal_price": result.optimal_price,
                   "expected_payoff": result.expected_payoff}
        if result.payoff_curve is not None:
            payload["payoff_curve"] = result.payoff_curve
        return json.dumps(payload) + "\n"
    if args.format == "csv":
        if result.payoff_curve is not None:
            rows = "".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in result.payoff_curve)
            return "price,payoff\n" + rows
        return ("p,optimal_price,expected_payoff\n"
                f"{_fmt(result.p)},{_fmt(result.optimal_price)},{_fmt(result.expected_payoff)}\n")
    return (f"optimal price = {_fmt(result.optimal_price)}, "
            f"expected payoff = {_fmt(result.expected_payoff)}\n")


def _cmd_statics(args, config) -> str:
    results = comparative_statics(_parse_p_list(args.p_list), config)
    if args.format == "json":
        return json.dumps([{"p": r.p, "optimal_price": r.optimal_price,
                            "expected_payoff": r.expected_payoff} for r in results]) + "\n"
    rows = [(r.p, r.optimal_price, r.expected_payoff) for r in results]
    if args.format == "csv":
        return ("p,optimal_price,expected_payoff\n"
                + "".join(f"{_fmt(p)},{_fmt(x)},{_fmt(v)}\n" for p, x, v in rows))
    return "".join(f"p = {_fmt(p)}: price {_fmt(x)}, payoff {_fmt(v)}\n" for p, x, v in rows)


def _cmd_plot_data(args, config) -> int:
    params = PSingularParams(args.p)
    sections = []
    if args.what in ("cdf", "both"):
        cloud = point_cloud(params, args.n_initial, args.iterations, args.max_points)
        rows = "".join(f"{_fmt(x)},{_fmt(F)}\n" for x, F in zip(cloud.x, cloud.F))
        sections.append(("cdf", "x,F\n" + rows))
    if args.what in ("mrl", "both"):
        grid = np.unique(np.concatenate((np.linspace(0.0, 1.0, args.grid),
                                         np.ravel(gap_intervals(8)))))
        m = mrl_many(params, grid, config)
        rows = "".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(grid, m))
        sections.append(("mrl", "x,m\n" + rows))

    if args.out is None:
        sys.stdout.write("\n".join(text for _, text in sections))
    elif len(sections) == 1:
        with open(args.out, "w", newline="") as fh:
            fh.write(sections[0][1])
    else:
        root, ext = os.path.splitext(args.out)
        for name, text in sections:
            with open(f"{root}.{name}{ext or '.csv'}", "w", newline="") as fh:
                fh.write(text)
    return EXIT_OK


def _cmd_verify(args, config) -> int:
    results = run_all(p_values=tuple(_parse_p_list(args.p_list)),
                      tolerance=config.tolerance, seed=args.seed, grid_n=args.grid)
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    if args.format == "json":
        _emit(args, json.dumps([r.__dict__ for r in results]) + "\n")
    else:
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if failed == 0 else EXIT_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tolerance = args.tolerance if args.tolerance is not None else _default_tolerance()
        config = EvalConfig(tolerance=tolerance)
        if args.command in ("cdf", "mrl", "gmrl"):
            _emit(args, _cmd_point(args, config))
            return EXIT_OK
        if args.command == "fixpoint":
            _emit(args, _cmd_fixpoint(args, config))
            return EXIT_OK
        if args.command == "price":
            _emit(args, _cmd_price(args, config))
            return EXIT_OK
        if args.command == "statics":
            _emit(args, _cmd_statics(args, config))
            return EXIT_OK
        if args.command == "plot-data":
            return _cmd_plot_data(args, config)
        return _cmd_verify(args, config)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except SingularMrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
