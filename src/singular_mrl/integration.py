"""Integral of the CDF, J(x) = int_0^x F_p(u) du, plus the closed forms
for I1 = J(1/3) and the mean.

The self-similar recursion mirrors the CDF's functional equations:

    J(x) = J(3x) / (3(p+1))                         for x <= 1/3,
    J(x) = I1 + (x - 1/3)/(p+1)                     for x in [1/3, 2/3],
    J(x) = J(2/3) + (x - 2/3) - p (I1 - J(1-x))     for x >= 2/3,

anchored at I1 = (p+2) / (6 (p+1)(2p+1)) and J(1) = 1 - E[X].  J is not
walked on its own: the fused descent in `distribution` carries J's affine
accumulator along F's ternary path.  For x > 2/3 the reflected point 1 - x
lies below 1/3, so J's right step is always followed by a left step, and
the pair is exactly one F right step x -> 3(1 - x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import (DEFAULT_CONFIG, EvalConfig, PSingularParams,
                           _check_unit_interval, _descend, _descend_many,
                           i1_closed_form, mean)

__all__ = ["IntegralValue", "cdf_integral", "cdf_integral_many", "i1_closed_form", "mean"]


@dataclass(frozen=True)
class IntegralValue:
    """Area under the CDF with the achieved absolute error bound."""

    value: float
    error_bound: float


def cdf_integral(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> IntegralValue:
    """J(x) with error <= config.tolerance.

    The residual subproblem J(y) lies in [0, y], so b_J y bounds the
    remaining width and the midpoint is returned on truncation.
    """
    _, _, j, bound = _descend(params, _check_unit_interval(x), config.tolerance,
                              config.max_depth, on_j=True)
    return IntegralValue(j, bound)


def cdf_integral_many(params: PSingularParams, xs, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized J over an array of points in [0, 1]."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.size)
    for k, _, _, j, _ in _descend_many(params, xs, config.tolerance, config.max_depth, on_j=True):
        out[k] = j
    return out.reshape(xs.shape)
