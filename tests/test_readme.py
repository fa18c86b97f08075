"""The README's command-line examples run as written."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from singular_mrl.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

# plot-data takes 7-9 s and verify about 4 s, so their examples are only parsed
SLOW = {"plot-data", "verify"}
# how close each commented value must hold; 0 asks for the double nearest
# the fraction, with error bound 0 (F(1/4) ends at 3/4, where F is exact)
COMMENT_TOLERANCE = {"cdf": 0.0, "fixpoint": 1e-9}


def examples():
    """(argv, comment) for each line of the fenced block under "## Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    found = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            argv = shlex.split(command)
            assert argv[0] == "singular-mrl", line
            found.append((argv[1:], comment.strip()))
    return found


def test_every_example_parses():
    parser = build_parser()
    commands = [parser.parse_args(argv).command for argv, _ in examples()]
    assert commands == ["cdf", "mrl", "gmrl", "fixpoint", "price", "statics", "plot-data", "verify"]


FAST = [(argv, comment) for argv, comment in examples() if argv[0] not in SLOW]


@pytest.mark.parametrize("argv, comment", FAST, ids=[argv[0] for argv, _ in FAST])
def test_fast_example_runs(capsys, monkeypatch, argv, comment):
    monkeypatch.delenv("SINGULAR_MRL_TOLERANCE", raising=False)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "=" in comment:
        # "F(1/4) = 1/3": the text output's value after "= " is that fraction
        expected = Fraction(comment.split("=", 1)[1].strip())
        value = float(re.search(r"= (\S+)", out).group(1))
        tolerance = COMMENT_TOLERANCE[argv[0]]
        if tolerance:
            assert abs(value - expected) <= tolerance
        else:
            assert value == float(expected) and "(error bound 0)" in out


def test_commented_values_are_checked():
    commented = {argv[0] for argv, comment in examples() if "=" in comment}
    assert commented == set(COMMENT_TOLERANCE)
