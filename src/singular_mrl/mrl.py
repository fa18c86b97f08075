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
descent stops on F's bracket at the tolerance times p/(p+1).  1 - F(x)
and the numerator both cancel to about p/(p+1), so the bound also counts
their rounding, 2^-51 (1 + m) / (1 - F(x)): under 1e-9 for p >= 1e-6,
and so wide for p <= 1e-10 that the uniqueness certificate fails on it.
Once p/(p+1) is below about 2^-53 the computed 1 - F(x) is 0 there, and
the evaluators raise ParameterError instead of dividing by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (DEFAULT_CONFIG, ONE_THIRD, EvalConfig, PSingularParams,
                           _branch_many, _check_unit_interval, _descend, mean)
from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class MrlValue:
    """Mean residual life at a point, with the achieved error bound."""

    value: float
    x: float
    p: float
    error_bound: float


def mrl_at_one_third(params: PSingularParams) -> float:
    """Closed form m(1/3) = (5p+4) / (6 (2p+1)), or (5-q) / (6 (2-q)) in
    q = 1/(p+1) where 6 (2p+1) overflows (p > 1.49e307); always > 1/3."""
    p, q = params.p, params.left_mass
    den = 6.0 * (2.0 * p + 1.0)
    return (5.0 * p + 4.0) / den if den < math.inf else (5.0 - q) / (6.0 * (2.0 - q))


def mrl(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> MrlValue:
    """m(x) for x in [0, 1]; exactly 0 at x = 1.  ParameterError where
    x < 1/3 and 1 - F(x) rounds to 0 (p below about 2^-53)."""
    x = _check_unit_interval(x)
    tol, above = config.tolerance, x > ONE_THIRD
    f, f_bound, j, j_bound = _descend(params, x, tol, "FJ", True, tol * params.right_mass)
    if above and f <= 0.0:
        # survival underflowed (or x = 1); m is bounded by 1 - x
        return MrlValue(0.0, x, params.p, 1.0 - x)
    den, num = (f, j) if above else (1.0 - f, (1.0 - x) - ((1.0 - mean(params)) - j))
    if den == 0.0:
        raise _unresolved(params, x)
    value = num / den
    bound = j_bound + value * f_bound + (0.0 if above else 2.0 ** -51 * (1.0 + value))
    return MrlValue(value, x, params.p, bound / den)


def gmrl(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """e(x) = m(x)/x for 0 < x <= 1; diverges at 0, hence a domain error."""
    x = _check_unit_interval(x)
    if x == 0:
        raise DomainError("gmrl is undefined at x = 0 (m(x)/x diverges)")
    return mrl(params, x, config).value / x


def mrl_many(params: PSingularParams, xs, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized m over an array of points in [0, 1], equal to `mrl` at
    every point, and raising its ParameterError if any point does.  The
    branch is picked by weights (see `_branch_many`):
    ((b - b x) - (b J(1) - J)) / ((above - b) F + b)."""
    j1, tol = 1.0 - mean(params), config.tolerance

    def value(x, above, f, j):
        # the docstring's quotient, in place
        b = 1.0 - above
        den = above - b
        den *= f
        den += b
        num = b * x
        np.subtract(b, num, out=num)
        b *= j1
        b -= j
        num -= b
        if den.min() > 0.0:
            return np.divide(num, den, out=num)
        # m = 0 where the survival F(1-x) underflowed, as in `mrl`; NaN where
        # 1 - F(x) = 0 below 1/3, raised once no later group can overwrite it
        out = np.zeros_like(den)
        out[~above & (den == 0.0)] = np.nan
        return np.divide(num, den, out=out, where=den > 0.0)

    m = _branch_many(params, xs, tol, tol * params.right_mass, value, "FJ", True)
    if np.isnan(m).any():
        raise _unresolved(params, np.ravel(xs)[np.isnan(m).argmax()])
    return m


def _unresolved(params: PSingularParams, x: float) -> ParameterError:
    # below 1/3 m divides by 1 - F(x), which rounds to 0 once p/(p+1) is
    # below about 2^-53
    return ParameterError(
        f"p = {params.p!r} is too small: 1 - F(x) rounds to 0 at x = {float(x)!r}, so "
        "double precision cannot resolve the survival there")
