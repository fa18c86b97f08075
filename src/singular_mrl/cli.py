"""Command-line front end.

Subcommands: cdf, mrl, gmrl, fixpoint, price, statics, plot-data, verify.
Output is deterministic (seeded randomness, 17-significant-digit floats,
'.' decimal separator, '\\n' newlines) so emitted CSV is byte-stable and
round-trips exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .distribution import (DEFAULT_CONFIG, EvalConfig, PSingularParams,
                           cdf_with_bound, gap_grid, point_cloud)
from .errors import DomainError, ParameterError, SingularMrlError
from .fixedpoint import fixed_point_solve
from .mrl import _generalized, mrl, mrl_many
from .pricing import comparative_statics, optimal_price
from .verify import run_all

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_PARAMETER = 4
EXIT_RUNTIME = 5

ENV_TOLERANCE = "SINGULAR_MRL_TOLERANCE"

# CSV rows formatted per write: the text held at once stays a few MB,
# so a large export's peak memory is that of its arrays
PIECE_ROWS = 65_536


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _default_tolerance() -> float:
    raw = os.environ.get(ENV_TOLERANCE, DEFAULT_CONFIG.tolerance)
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(f"{ENV_TOLERANCE} must be a float, got {raw!r}")


def _parse_p_list(raw: str) -> list[float]:
    try:
        p_values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"could not parse p list {raw!r}")
    if not p_values:
        raise ParameterError(f"p list {raw!r} holds no p value")
    return p_values


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
                        help=f"absolute tolerance (default {DEFAULT_CONFIG.tolerance:g}, or ${ENV_TOLERANCE})")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    def command(name, help_text, formats=("text", "csv", "json")):
        # the forms the command can write; the first is the default
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("--format", choices=formats, default=formats[0])
        return sp

    for name, help_text in (("cdf", "evaluate the CDF at x"),
                            ("mrl", "evaluate the mean residual life at x"),
                            ("gmrl", "evaluate the generalized MRL m(x)/x at x")):
        command(name, help_text).add_argument("--x", type=float, required=True)

    sp = command("fixpoint", "solve m(x) = x")
    sp.add_argument("--grid", type=int, default=1000,
                    help="grid size of a uniqueness scan beside the certificate (0: none)")

    sp = command("price", "optimal monopoly price")
    sp.add_argument("--curve-points", type=int, default=None,
                    help="attach a payoff curve over this many prices")

    sp = command("statics", "comparative statics of the optimal price over p values")
    sp.add_argument("--p-list", required=True, help="comma-separated p values")

    sp = command("plot-data", "emit CSV point cloud of the CDF and of the MRL grid", ("csv",))
    sp.add_argument("--n-initial", type=int, default=1000)
    sp.add_argument("--iterations", type=int, default=17)
    sp.add_argument("--grid", type=int, default=1000, help="MRL grid size")
    sp.add_argument("--max-points", type=int, default=5_000_000)
    sp.add_argument("--what", choices=("cdf", "mrl", "both"), default="both")

    sp = command("verify", "run the invariant suite", ("text", "json"))
    sp.add_argument("--grid", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=12345)
    sp.add_argument("--p-list", default="0.5,1,2")

    return parser


def _csv(header: str, columns) -> Iterator[str]:
    """The header line, then the rows of the equal-length `columns` in
    pieces of PIECE_ROWS rows, every number as %.17g (the bytes of `_fmt`)."""
    yield header + "\n"
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), PIECE_ROWS):
        piece = (np.asarray(c[start:start + PIECE_ROWS]).tolist() for c in columns)
        yield "".join(map(row.__mod__, zip(*piece)))


def _write(path, sections: Iterable[Iterable[str]]) -> None:
    """Send the sections' pieces to stdout, or to the file at `path`, with
    one blank line between sections."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="")) as fh:
        for i, pieces in enumerate(sections):
            if i:
                fh.write("\n")
            fh.writelines(pieces)


def _render(args, payload, text: str, header: str | None = None, columns=(),
            code: int = EXIT_OK):
    """One section in the chosen --format, and the exit code: `payload` as JSON, the CSV
    `header` and `columns`, or `text`."""
    if args.format == "json":
        pieces = [json.dumps(payload) + "\n"]
    elif args.format == "csv":
        pieces = _csv(header, columns)
    else:
        pieces = [text]
    return {args.command: pieces}, code


def _cmd_point(args, config):
    params = PSingularParams(args.p)
    if args.command == "cdf":
        label, (value, bound) = "F", cdf_with_bound(params, args.x, config)
    else:
        v = mrl(params, args.x, config)
        label, value, bound = "m", v.value, v.error_bound
        if args.command == "gmrl":  # e = m/x as `gmrl` computes it, from the same descent of m
            label, (value, bound) = "e", _generalized(v)
    return _render(args, {"p": args.p, "x": args.x, "value": value, "error_bound": bound},
                   f"{label}({_fmt(args.x)}) = {_fmt(value)} (error bound {_fmt(bound)})\n",
                   "x,value,error_bound", [[args.x], [value], [bound]])


def _cmd_fixpoint(args, config):
    fp = fixed_point_solve(PSingularParams(args.p), config, scan_grid_n=args.grid)
    payload = {"p": args.p, "x_star": fp.x_star, "residual": fp.residual,
               "bracket": list(fp.bracket), "closed_form": fp.closed_form,
               "sign_changes": fp.sign_changes}
    row = (fp.x_star, fp.residual, *fp.bracket, fp.closed_form, fp.sign_changes)
    return _render(args, payload,
                   f"x* = {_fmt(fp.x_star)} (residual {_fmt(fp.residual)}, "
                   f"closed form {_fmt(fp.closed_form)}, "
                   f"{fp.sign_changes} sign change(s) on [0, 1])\n",
                   "x_star,residual,bracket_lo,bracket_hi,closed_form,sign_changes",
                   [[v] for v in row])


def _cmd_price(args, config):
    r = optimal_price(PSingularParams(args.p), config, curve_points=args.curve_points)
    payload = {"p": r.p, "optimal_price": r.optimal_price, "expected_payoff": r.expected_payoff}
    header, columns = "p,optimal_price,expected_payoff", [[v] for v in payload.values()]
    if r.payoff_curve is not None:
        payload["payoff_curve"] = r.payoff_curve.tolist()
        header, columns = "price,payoff", r.payoff_curve.T
    return _render(args, payload,
                   f"optimal price = {_fmt(r.optimal_price)}, "
                   f"expected payoff = {_fmt(r.expected_payoff)}\n", header, columns)


def _cmd_statics(args, config):
    results = comparative_statics(_parse_p_list(args.p_list), config)
    rows = [(r.p, r.optimal_price, r.expected_payoff) for r in results]
    return _render(args, [{"p": p, "optimal_price": x, "expected_payoff": v} for p, x, v in rows],
                   "".join(f"p = {_fmt(p)}: price {_fmt(x)}, payoff {_fmt(v)}\n"
                           for p, x, v in rows),
                   "p,optimal_price,expected_payoff", list(zip(*rows)))


def _cmd_plot_data(args, config):
    # every array is computed before the first byte is written, so a
    # failure leaves no partial output; only the formatting streams
    params = PSingularParams(args.p)
    sections = {}
    if args.what in ("cdf", "both"):
        cloud = point_cloud(params, args.n_initial, args.iterations, args.max_points)
        sections["cdf"] = _csv("x,F", (cloud.x, cloud.F))
    if args.what in ("mrl", "both"):
        grid = gap_grid(args.grid)
        sections["mrl"] = _csv("x,m", (grid, mrl_many(params, grid, config)))
    return sections, EXIT_OK


def _cmd_verify(args, config):
    results = run_all(p_values=tuple(_parse_p_list(args.p_list)),
                      tolerance=config.tolerance, seed=args.seed, grid_n=args.grid)
    failed = sum(not r.passed for r in results)
    text = "".join(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}\n" for r in results)
    return _render(args, [r.__dict__ for r in results],
                   text + f"{len(results) - failed}/{len(results)} checks passed\n",
                   code=EXIT_OK if failed == 0 else EXIT_FAILED)


_COMMANDS = {"cdf": _cmd_point, "mrl": _cmd_point, "gmrl": _cmd_point,
             "fixpoint": _cmd_fixpoint, "price": _cmd_price, "statics": _cmd_statics,
             "plot-data": _cmd_plot_data, "verify": _cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = EvalConfig(tolerance=_default_tolerance() if args.tolerance is None else args.tolerance)
        sections, code = _COMMANDS[args.command](args, config)
        if args.out is None or len(sections) == 1:
            _write(args.out, sections.values())
        else:
            # one file per section: fig.csv -> fig.cdf.csv, fig.mrl.csv
            root, ext = os.path.splitext(args.out)
            for name, pieces in sections.items():
                _write(f"{root}.{name}{ext or '.csv'}", [pieces])
        return code
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (SingularMrlError, OSError, MemoryError) as exc:
        # an --out path that cannot be opened or written, an array too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
