"""Mean residual life m(x) = E(X - x | X > x) and the generalized MRL
e(x) = m(x)/x for the p-singular family.

For x >= 1/3 the evaluator uses the reflection form

    m(x) = J(1-x) / F(1-x),

obtained from 1 - F(u) = p F(1-u) on u in [1/3, 1].  Numerator and
denominator come from one fused descent at 1 - x with a relative stop
test: it ends once F's bracket, never narrower than J's, is within the
tolerance times the running midpoint of F.  The quotient's bound
(e_J + m e_F) / F is then at most (1 + m) tolerance <= 2 tolerance in a
single pass, however small the survival probability F(1-x) gets as x -> 1.
For x < 1/3 the direct form [(1-x) - (J(1) - J(x))] / (1 - F(x)) is used.
Its denominator stays >= p/(p+1) but can be small for small p, so the
descent stops on F's bracket at the tolerance times p/(p+1); the
quotient's bound is then again at most (1 + m) tolerance <= 2 tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import (DEFAULT_CONFIG, EvalConfig, PSingularParams,
                           _branch, _branch_many, _check_unit_interval, mean)
from .errors import DomainError


@dataclass(frozen=True)
class MrlValue:
    """Mean residual life at a point, with the achieved error bound."""

    value: float
    x: float
    p: float
    error_bound: float


def mrl_at_one_third(params: PSingularParams) -> float:
    """Closed form m(1/3) = (5p+4) / (6 (2p+1)); always > 1/3."""
    p = params.p
    return (5.0 * p + 4.0) / (6.0 * (2.0 * p + 1.0))


def mrl(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> MrlValue:
    """m(x) for x in [0, 1]; exactly 0 at x = 1."""
    x = _check_unit_interval(x)
    tol = config.tolerance
    above, f, f_bound, j, j_bound = _branch(params, x, tol, tol * params.right_mass,
                                            config.max_depth, relative=True)
    if above and f <= 0.0:
        # survival underflowed (or x = 1); m is bounded by 1 - x
        return MrlValue(0.0, x, params.p, 1.0 - x)
    den, num = (f, j) if above else (1.0 - f, (1.0 - x) - ((1.0 - mean(params)) - j))
    value = num / den
    return MrlValue(value, x, params.p, (j_bound + value * f_bound) / den)


def gmrl(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """e(x) = m(x)/x for 0 < x <= 1; diverges at 0, hence a domain error."""
    if x == 0:
        raise DomainError("gmrl is undefined at x = 0 (m(x)/x diverges)")
    return mrl(params, x, config).value / x


def mrl_many(params: PSingularParams, xs, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized m over an array of points in [0, 1], equal to `mrl` at
    every point."""
    j1 = 1.0 - mean(params)
    tol = config.tolerance
    return _branch_many(
        params, xs, tol, tol * params.right_mass, config.max_depth,
        upper=lambda x, f, j: np.divide(j, f, out=np.zeros_like(f), where=f > 0.0),
        lower=lambda x, f, j: ((1.0 - x) - (j1 - j)) / (1.0 - f),
        relative=True)
