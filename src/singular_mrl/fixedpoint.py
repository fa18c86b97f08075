"""Fixed point of the mean residual life function: m(x) = x.

On [1/3, 2/3] the CDF is flat, so m is exactly linear with slope -1:
m(x) = m(1/3) - (x - 1/3).  Its fixed point there is therefore
x* = (m(1/3) + 1/3) / 2, taken from one evaluation of m(1/3) with half
of its error bound; no iteration is needed.  The closed form

    x* = 1/6 + (5p+4) / (12 (2p+1))

serves as a cross-check, and a grid scan over all of [0, 1] (augmented
with Cantor-gap endpoints) supplies numerical evidence of uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import (DEFAULT_CONFIG, ONE_THIRD, TWO_THIRDS, EvalConfig,
                           PSingularParams, gap_grid)
from .errors import ConvergenceError, ParameterError
from .mrl import mrl, mrl_many

# grid points closer to the root than this may legitimately have
# sign indistinguishable from zero
ROOT_EXCLUSION_RADIUS = 1e-3


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
                      scan_grid_n: int = 1000) -> FixedPointResult:
    """x* = (m(1/3) + 1/3) / 2 from the plateau linearity of m.

    `bracket` is x* plus or minus half of m(1/3)'s error bound and
    `residual` is m(x*) - x*.  Fills `closed_form` for comparison and
    `sign_changes` from a uniqueness scan over [0, 1] with `scan_grid_n`
    grid points (set scan_grid_n=0 to skip the scan; sign_changes is
    then -1).  Any other scan_grid_n below 100 raises ParameterError, as
    in `verify_uniqueness`.
    """
    m = mrl(params, ONE_THIRD, config)
    x_star = 0.5 * (m.value + ONE_THIRD)
    if not ONE_THIRD <= x_star <= TWO_THIRDS:
        raise ConvergenceError(
            f"x* = (m(1/3) + 1/3)/2 = {x_star} lies outside the plateau [1/3, 2/3]; "
            "the MRL evaluator is inconsistent")
    half = 0.5 * m.error_bound
    residual = mrl(params, x_star, config).value - x_star
    changes = _sign_change_scan(params, scan_grid_n, config, x_star) if scan_grid_n else -1
    return FixedPointResult(x_star=x_star, residual=residual, bracket=(x_star - half, x_star + half),
                            closed_form=fixed_point_closed_form(params),
                            sign_changes=changes)


def verify_uniqueness(params: PSingularParams, grid_n: int,
                      config: EvalConfig = DEFAULT_CONFIG) -> int:
    """Count sign changes of m(x) - x on a grid of grid_n >= 100 points
    over [0, 1].

    The uniform grid is augmented with the Cantor-gap endpoints of
    `gap_grid`, where the non-monotone jumps of m occur.  Contract:
    exactly one sign change, with m(x) - x > 0 on [0, 1/3] and < 0 on
    (2/3, 1).  Raises ConvergenceError if either side check fails or if
    an indeterminate sign (|g| below tolerance) appears away from the
    solved root.
    """
    root = fixed_point_solve(params, config, scan_grid_n=0).x_star
    return _sign_change_scan(params, grid_n, config, root, strict=True)


def _sign_change_scan(params: PSingularParams, grid_n: int, config: EvalConfig,
                      root: float, strict: bool = False) -> int:
    if grid_n < 100:
        raise ParameterError(f"the uniqueness scan needs >= 100 grid points, got {grid_n}")
    xs = gap_grid(grid_n)
    xs = xs[xs < 1.0]  # m(1) = 0 by definition, not informative for the scan
    g = mrl_many(params, xs, config) - xs

    indeterminate = np.abs(g) < 2.0 * config.tolerance
    stray = indeterminate & (np.abs(xs - root) > ROOT_EXCLUSION_RADIUS)
    if stray.any():
        raise ConvergenceError(
            f"indeterminate sign of m(x) - x away from the root at x = {xs[stray][:5]}")

    if strict:
        left = xs <= ONE_THIRD
        if not (g[left] > 0.0).all():
            raise ConvergenceError("m(x) - x <= 0 somewhere on [0, 1/3]")
        right = (xs > TWO_THIRDS) & ~indeterminate
        if not (g[right] < 0.0).all():
            raise ConvergenceError("m(x) - x >= 0 somewhere on (2/3, 1)")

    signs = np.sign(g[~indeterminate])
    return int(np.count_nonzero(np.diff(signs) != 0))
