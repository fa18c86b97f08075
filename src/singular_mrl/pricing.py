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

from .distribution import (DEFAULT_CONFIG, EvalConfig, PSingularParams,
                           _branch, _branch_many, _check_unit_interval, mean)
from .errors import ParameterError
from .fixedpoint import FixedPointResult, fixed_point_solve


@dataclass(frozen=True)
class PricingResult:
    p: float
    optimal_price: float
    expected_payoff: float
    payoff_curve: list[tuple[float, float]] | None = None
    fixed_point: FixedPointResult | None = None


def expected_payoff(params: PSingularParams, price: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Pi(price) = price * E(X - price)_+ for price in [0, 1]."""
    price = _check_unit_interval(price)
    tol = config.tolerance
    above, _, _, j, _ = _branch(params, price, tol, tol, config.max_depth, on_j=True)
    if above:
        # E(X - price)_+ = int_price^1 (1 - F); the reflection identity
        # 1 - F(u) = p F(1-u) makes it p J(1 - price), free of cancellation
        return price * (params.p * j)
    return price * ((1.0 - price) - ((1.0 - mean(params)) - j))


def payoff_curve(params: PSingularParams, prices, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized Pi over an array of prices in [0, 1], equal to
    `expected_payoff` at every price."""
    p, j1, tol = params.p, 1.0 - mean(params), config.tolerance
    return _branch_many(params, prices, tol, tol, config.max_depth,
                        upper=lambda x, f, j: x * (p * j),
                        lower=lambda x, f, j: x * ((1.0 - x) - (j1 - j)), on_j=True)


def optimal_price(params: PSingularParams, config: EvalConfig = DEFAULT_CONFIG,
                  curve_points: int | None = None) -> PricingResult:
    """Optimal price = the MRL fixed point, with its payoff.

    If curve_points is given, attaches Pi over that many evenly spaced
    prices for plotting / dominance checks.
    """
    fp = fixed_point_solve(params, config)
    price = fp.x_star
    payoff = expected_payoff(params, price, config)
    curve = None
    if curve_points is not None:
        grid = np.linspace(0.0, 1.0, curve_points)
        curve = list(zip(grid.tolist(), payoff_curve(params, grid, config).tolist()))
    return PricingResult(p=params.p, optimal_price=price, expected_payoff=payoff,
                         payoff_curve=curve, fixed_point=fp)


def comparative_statics(p_values, config: EvalConfig = DEFAULT_CONFIG) -> list[PricingResult]:
    """Optimal prices across a list of p values (order preserved).

    Prices are strictly decreasing along strictly increasing p.
    """
    if not p_values:
        raise ParameterError("p_values must be nonempty")
    return [optimal_price(PSingularParams(p), config) for p in p_values]
