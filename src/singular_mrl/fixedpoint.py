"""Fixed point of the mean residual life function: m(x) = x.

On [1/3, 2/3] the CDF is flat, so m is linear with slope -1 and its
fixed point is x* = (m(1/3) + 1/3) / 2, from one evaluation of m(1/3);
the closed form x* = 1/6 + (5p+4) / (12 (2p+1)) cross-checks it.

Uniqueness is certified.  m(x) + x = E[X | X > x] is non-decreasing, so
m(x) - x >= m(a) + a - 2b on a cell [a, b], and cells with
m(a) + a - bound(a) > 2b that cover [0, 1/3] prove m(x) - x > 0 there.
On [1/3, 2/3] m(x) - x is linear with slope -2, and on (1/2, 1] it is at
most 1 - 2x < 0, so x* is its only root on [0, 1].  The cells halve
[j/2^L, (j+1)/2^L], L <= 53, the last one cut at the real 1/3.  m is
evaluated at their left ends, doubles whose descent never rounds, and
each margin is compared exactly as a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distribution import (DEFAULT_CONFIG, ONE_THIRD, TWO_THIRDS, EvalConfig,
                           PSingularParams, _integer, gap_grid)
from .errors import ConvergenceError, ParameterError
from .mrl import mrl, mrl_many

CELL_LEVEL = 53  # the finest cells: j/2^53 below 1/3 is still a double


@dataclass(frozen=True)
class FixedPointResult:
    x_star: float
    residual: float
    bracket: tuple[float, float]
    closed_form: float
    sign_changes: int


def fixed_point_closed_form(params: PSingularParams) -> float:
    """x* = 1/6 + (5p+4)/(12(2p+1)); decreasing in p, in (3/8, 1/2)."""
    p = params.p
    return 1.0 / 6.0 + (5.0 * p + 4.0) / (12.0 * (2.0 * p + 1.0))


def fixed_point_solve(params: PSingularParams, config: EvalConfig = DEFAULT_CONFIG,
                      scan_grid_n: int = 0) -> FixedPointResult:
    """x* = (m(1/3) + 1/3) / 2 from the plateau linearity of m.

    `bracket` is x* plus or minus half of m(1/3)'s error bound and
    `residual` is m(x*) - x*.  Fills `closed_form` for comparison.  Every
    call certifies that x* is the only root (see the module docstring), so
    `sign_changes` is 1, or raises ConvergenceError naming the cell that
    fails.  A nonzero `scan_grid_n` also reports the count of
    `verify_uniqueness(params, scan_grid_n)`: ConvergenceError unless it is 1.
    """
    scan_grid_n = _integer("scan_grid_n", scan_grid_n)
    m = mrl(params, ONE_THIRD, config)
    x_star = 0.5 * (m.value + ONE_THIRD)
    if not ONE_THIRD <= x_star <= TWO_THIRDS:
        raise ConvergenceError(
            f"x* = (m(1/3) + 1/3)/2 = {x_star} lies outside the plateau [1/3, 2/3]; "
            "the MRL evaluator is inconsistent")
    half = 0.5 * m.error_bound
    residual = mrl(params, x_star, config).value - x_star
    _certify(params, config)
    changes = verify_uniqueness(params, scan_grid_n, config) if scan_grid_n else 1
    if changes != 1:
        raise ConvergenceError(f"the uniqueness scan found {changes} sign changes of "
                               f"m(x) - x on gap_grid({scan_grid_n}), not 1")
    return FixedPointResult(x_star, residual, (x_star - half, x_star + half),
                            fixed_point_closed_form(params), changes)


def _certify(params: PSingularParams, config: EvalConfig) -> None:
    """Cover [0, 1/3] by certified cells, leftmost first, halving each that
    fails; ConvergenceError names a cell that fails at CELL_LEVEL."""
    third = Fraction(1, 3)
    # (j, L, m(a)) for the cell [a, b] = [j/2^L, min((j+1)/2^L, 1/3)]
    cells = [(0, 1, mrl(params, 0.0, config))]
    while cells:
        j, level, m = cells.pop()
        a, b = Fraction(j, 1 << level), min(Fraction(j + 1, 1 << level), third)
        margin = Fraction(m.value) + a - Fraction(m.error_bound) - 2 * b
        if margin > 0:
            continue
        if level == CELL_LEVEL:
            raise ConvergenceError(f"uniqueness is not certified on the cell [{a}, {b}]: "
                                   f"m(a) + a - bound(a) - 2b = {float(margin):.3e}")
        j, level = 2 * j, level + 1
        if Fraction(j + 1, 1 << level) < third:
            cells.append((j + 1, level, mrl(params, math.ldexp(j + 1, -level), config)))
        cells.append((j, level, m))


def verify_uniqueness(params: PSingularParams, grid_n: int,
                      config: EvalConfig = DEFAULT_CONFIG) -> int:
    """Count sign changes of m(x) - x on the points of `gap_grid(grid_n)`
    below 1, grid_n >= 100: sampled evidence, independent of the
    certificate, that the root is unique.  The gap endpoints are where m's
    slope changes; an exact zero of m(x) - x has no sign and is dropped.
    """
    grid_n = _integer("grid_n", grid_n)
    if grid_n < 100:
        raise ParameterError(f"the uniqueness scan needs >= 100 grid points, got {grid_n}")
    xs = gap_grid(grid_n)[:-1]  # drops x = 1, where m = 0 by definition
    signs = np.sign(mrl_many(params, xs, config) - xs)
    return int(np.count_nonzero(np.diff(signs[signs != 0.0])))
