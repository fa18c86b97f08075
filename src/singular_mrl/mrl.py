"""Mean residual life m(x) = E(X - x | X > x) and the generalized MRL
e(x) = m(x)/x for the p-singular family.

m(x) = K(x)/S(x), S = 1 - F and K(x) = int_x^1 S, is the quotient of
S' = S/p and K' = K/p from one tail walk (see `distribution._descend`):
F(1-x) and J(1-x) for x >= 1/3, from 1 - F(u) = p F(1-u) on [1/3, 1], and
sums of positive terms along x's leading run of left steps below 1/3, so
neither cancels, however small p or the survival probability gets.  The
walk stops once F's bracket, never narrower than J's, is within the
tolerance times the running midpoint of S', so the quotient's bound
(e_K + m e_S)/S' is at most (1 + m) tolerance <= 2 tolerance in a single
pass.  Below 1/3 it also counts the rounding of the leading run's k steps,
2^-51 (k + 2) m with k < log_3(1/x), and k = 0 at x = 0, where m is E[X]'s
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (DEFAULT_CONFIG, ONE_THIRD, EvalConfig, PSingularParams,
                           _check_unit_interval, _descend, _many)
from .errors import DomainError


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
    """m(x) for x in [0, 1]: `mean` at x = 0 and exactly 0 at x = 1."""
    x = _check_unit_interval(x)
    s, s_bound, k, k_bound = _descend(params, x, config.tolerance, "FJ", True)
    if s <= 0.0:
        # the survival underflowed (or x = 1); m is bounded by 1 - x
        return MrlValue(0.0, x, params.p, 1.0 - x)
    value = k / s
    bound = (k_bound + value * s_bound) / s
    if x <= ONE_THIRD:
        # x < 1/3: the rounding of its leading run of k < log_3(1/x) steps
        # (k = 0 at x = 0, where m is E[X]'s closed form)
        run = -math.log(x, 3.0) if x else 0.0
        bound += 2.0 ** -51 * (run + 2.0) * value
    return MrlValue(value, x, params.p, bound)


def gmrl(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """e(x) = m(x)/x for 0 < x <= 1; diverges at 0, hence a domain error."""
    v = mrl(params, x, config)
    _check_positive(v.x)
    return v.value / v.x


def _check_positive(x: float) -> None:
    if x == 0:
        raise DomainError("gmrl is undefined at x = 0 (m(x)/x diverges)")


def mrl_many(params: PSingularParams, xs, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized m over an array of points in [0, 1], equal to `mrl` at
    every point: K'/S' from one tail walk."""

    def value(x, s, k):
        if s.min() > 0.0:
            return np.divide(k, s, out=k)
        # m = 0 where the survival underflowed, as in `mrl`
        return np.divide(k, s, out=np.zeros_like(s), where=s > 0.0)

    return _many(params, xs, config.tolerance, value, "FJ", True)
