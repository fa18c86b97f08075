"""Fixed point of the mean residual life function: m(x) = x.

On [1/3, 2/3] the CDF is flat, so m is linear with slope -1 and its
fixed point is x* = (m(1/3) + 1/3) / 2, from one evaluation of m on the
plateau's side of 1/3; the closed form x* = 1/6 + (5p+4) / (12 (2p+1))
cross-checks it.

Uniqueness is certified.  m(x) + x = E[X | X > x] is non-decreasing, so
m(x) - x >= m(a) + a - 2b on a cell [a, b], and cells with
m(a) + a - bound(a) > 2b that cover [0, 1/3] prove m(x) - x > 0 there.
On [1/3, 2/3] m(x) - x is linear with slope -2, and on (1/2, 1] it is at
most 1 - 2x < 0, so x* is its only root on [0, 1].  The cells form one
chain from a = 0: each ends at the double b just below
(m(a) + a - bound(a))/2, where the next begins, and the last ends at the
real 1/3.  The sign of each margin is decided exactly, by `math.fsum`
over doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (DEFAULT_CONFIG, ONE_THIRD, TWO_THIRDS, EvalConfig,
                           PSingularParams, _integer, gap_grid)
from .errors import ConvergenceError, ParameterError
from .mrl import mrl, mrl_at_one_third, mrl_many


@dataclass(frozen=True)
class FixedPointResult:
    x_star: float
    residual: float
    bracket: tuple[float, float]
    closed_form: float
    sign_changes: int


def fixed_point_closed_form(params: PSingularParams) -> float:
    """x* = (1/3 + m(1/3)) / 2 = 1/6 + (5p+4)/(12(2p+1)); decreasing, in (3/8, 1/2)."""
    return 1.0 / 6.0 + 0.5 * mrl_at_one_third(params)


def fixed_point_solve(params: PSingularParams, config: EvalConfig = DEFAULT_CONFIG,
                      scan_grid_n: int = 0) -> FixedPointResult:
    """x* = (m(1/3) + 1/3) / 2 from the plateau linearity of m.

    1/3 is not a double, and fl(1/3) lies below it, off the plateau, where
    F is steep.  m(1/3) is taken at 1 - fl(2/3), the least double on the
    plateau, 3.7e-17 above 1/3: m differs there by that, under an ulp.
    `bracket` is the least interval of doubles that holds both x* and the
    exact root (3p+2)/(4(2p+1)) of the double p = n/d: int/int division
    rounds (3n+2d)/(4(2n+d)) correctly, once, and one integer
    cross-multiplication finds on which side of that double the root lies.
    Measured at 280,000 log-uniform p, x* lies within 2 ulps of that
    double for 1 <= p < 2^1022 and within 3 for p < 1.  Above 2^1022,
    q = 1/(p+1) is subnormal and m's plateau formula divides by it: x*
    lies up to 6 ulps off, more than 2 from about p = 8.7e307.  The
    bracket held the root at every sampled p.  `residual` is m(x*) - x*.
    Fills `closed_form` for comparison.  Every call certifies that x* is
    the only root (see the module docstring; 1 to 5 cells at every sampled
    p), so `sign_changes` is 1, or raises ConvergenceError naming the x past
    which no cell is certified, just below 1/3 at p <= 2^-53, where 1 + p
    rounds to 1.  A nonzero `scan_grid_n` also reports the count of
    `verify_uniqueness(params, scan_grid_n)`: ConvergenceError unless it is 1.
    """
    scan_grid_n = _integer("scan_grid_n", scan_grid_n)
    m = mrl(params, 1.0 - TWO_THIRDS, config).value
    x_star = 0.5 * (m + ONE_THIRD)
    if not ONE_THIRD <= x_star <= TWO_THIRDS:
        raise ConvergenceError(
            f"x* = (m(1/3) + 1/3)/2 = {x_star} lies outside the plateau [1/3, 2/3]; "
            "the MRL evaluator is inconsistent")
    residual = mrl(params, x_star, config).value - x_star
    _certify(params, config)
    changes = verify_uniqueness(params, scan_grid_n, config) if scan_grid_n else 1
    if changes != 1:
        raise ConvergenceError(f"the uniqueness scan found {changes} sign changes of "
                               f"m(x) - x on gap_grid({scan_grid_n}), not 1")
    n, d = params.p.as_integer_ratio()
    num, den = 3 * n + 2 * d, 4 * (2 * n + d)
    a, b = (root := num / den).as_integer_ratio()
    side = a * den - b * num  # the sign of fl(root) - root
    bracket = (min(x_star, root if side <= 0 else math.nextafter(root, 0.0)),
               max(x_star, root if side >= 0 else math.nextafter(root, 1.0)))
    return FixedPointResult(x_star, residual, bracket, fixed_point_closed_form(params), changes)


def _certify(params: PSingularParams, config: EvalConfig) -> None:
    """Cover [0, 1/3] by the chain of cells; ConvergenceError names the a past
    which no cell is certified.  fsum never rounds a nonzero sum to 0."""
    a = 0.0
    while True:
        m = mrl(params, a, config)
        terms = (m.value, a, -m.error_bound)  # m(a) + a - bound(a)
        if math.fsum(terms * 3 + (-2.0,)) > 0.0:  # three times the margin at b = 1/3
            return
        b = math.nextafter(0.5 * math.fsum(terms), 0.0)
        if b <= a or not math.fsum(terms + (-2.0 * b,)) > 0.0:
            raise ConvergenceError(f"uniqueness is not certified past x = {a!r}, where "
                                   f"m(x) - x - bound(x) = {math.fsum(terms + (-2.0 * a,)):.3e}")
        a = b


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
