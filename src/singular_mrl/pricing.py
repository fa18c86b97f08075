"""Monopoly pricing under p-singular demand uncertainty.

A seller facing linear stochastic demand X - x at price x maximizes the
expected payoff x * E(X - x)_+ = x * int_x^1 (1 - F(u)) du.  The optimal
price is the unique fixed point of the MRL function, so it is decreasing
in p: earlier-anticipated bandwagon effects (small p) command a higher
price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import (_CHUNK, DEFAULT_CONFIG, EvalConfig, PSingularParams,
                           _check_unit_interval, _curve_plan, _descend, _integer, _many)
from .errors import ParameterError
from .fixedpoint import FixedPointResult, fixed_point_solve


@dataclass(frozen=True)
class PricingResult:
    p: float
    optimal_price: float
    expected_payoff: float
    payoff_curve: np.ndarray | None = None
    fixed_point: FixedPointResult | None = None


def expected_payoff(params: PSingularParams, price: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Pi(price) = price * E(X - price)_+ for price in [0, 1], with
    E(X - x)_+ = int_x^1 (1 - F) = p K'(x) from the tail walk (see
    `distribution._descend`), which does not cancel.  K' is resolved to the
    tolerance, so Pi's error can reach p x times it."""
    price = _check_unit_interval(price)
    return price * (params.p * _descend(params, price, config.tolerance, "J", tail=True)[2])


def payoff_curve(params: PSingularParams, prices, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized Pi over an array of prices in [0, 1], equal to
    `expected_payoff` at every price."""
    p = params.p
    return _many(params, prices, config.tolerance, lambda x, s, k: x * (p * k), "J", tail=True)


def optimal_price(params: PSingularParams, config: EvalConfig = DEFAULT_CONFIG,
                  curve_points: int | None = None) -> PricingResult:
    """Optimal price = the MRL fixed point, with its payoff.

    If curve_points is given, attaches Pi at that many evenly spaced prices
    as the read-only (price, payoff) rows of a new (curve_points, 2) array,
    Pi from `payoff_curve`.  The grid and the start of its walk that p does
    not change are cached for the last 4 sizes of at most 16,384 points
    (about 0.4 MB each), so the first call at such a size pays to build them.
    """
    if curve_points is not None:
        curve_points = _integer("curve_points", curve_points, 0)
    fp = fixed_point_solve(params, config)
    price = fp.x_star
    payoff = expected_payoff(params, price, config)
    curve = None
    if curve_points is not None:
        plan = _curve_plan(curve_points) if curve_points <= _CHUNK else None
        curve = np.empty((curve_points, 2))
        curve[:, 0] = plan.x if plan else np.linspace(0.0, 1.0, curve_points)
        curve[:, 1] = payoff_curve(params, plan or curve[:, 0], config)
        curve.flags.writeable = False
    return PricingResult(p=params.p, optimal_price=price, expected_payoff=payoff,
                         payoff_curve=curve, fixed_point=fp)


def comparative_statics(p_values, config: EvalConfig = DEFAULT_CONFIG) -> list[PricingResult]:
    """Optimal prices across an iterable of p values (order preserved).

    The closed form x* = 1/6 + (5p+4)/(12(2p+1)) falls strictly in p, but
    each price is solved on its own, and their order is not checked.
    """
    p_values = list(p_values)
    if not p_values:
        raise ParameterError("p_values must be nonempty")
    return [optimal_price(PSingularParams(p), config) for p in p_values]
