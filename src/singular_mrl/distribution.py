"""CDF, survival function, sampling and point-cloud construction for the
p-singular Cantor-type family.

The family parameter p > 0 splits the mass of each ternary level into a
left share 1/(p+1) (digit 0) and a right share p/(p+1) (digit 2); p = 1
recovers the classical Cantor distribution.  The CDF is pinned down by

    F(x/3)  = F(x) / (p+1)          for x in [0, 1],
    F(1-x)  = 1 - p F(x)            for x in [0, 1/3],

which force F = 1/(p+1) on the whole plateau [1/3, 2/3].  Evaluation
descends this ternary structure, contracting the value uncertainty by
max(1, p)/(p+1) per level until the requested tolerance is met.  This
module owns that descent, once as a scalar loop and once as a numpy loop:
it carries F and its integral J (module `integration`) along the same
path, and every evaluated quantity of the package is a formula over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, ParameterError, ResourceLimitError

ONE_THIRD = 1.0 / 3.0
TWO_THIRDS = 2.0 / 3.0


@dataclass(frozen=True)
class PSingularParams:
    """Family parameter p > 0 (p = 1 is the classical Cantor distribution)."""

    p: float

    def __post_init__(self):
        if not (isinstance(self.p, (int, float)) and math.isfinite(self.p) and self.p > 0):
            raise ParameterError(f"family parameter p must be a finite positive real, got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))

    @property
    def left_mass(self) -> float:
        return 1.0 / (self.p + 1.0)

    @property
    def right_mass(self) -> float:
        return self.p / (self.p + 1.0)


@dataclass(frozen=True)
class EvalConfig:
    """Tolerance and recursion-depth budget shared by all evaluators."""

    tolerance: float = 1e-10
    max_depth: int = 100_000

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ParameterError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_depth < 1:
            raise ParameterError(f"max_depth must be >= 1, got {self.max_depth!r}")


DEFAULT_CONFIG = EvalConfig()

# points per slice of the vector descent: bounds its working set, and is
# large enough that per-iteration overhead stays amortised
_CHUNK = 16_384


def i1_closed_form(params: PSingularParams) -> float:
    """I1 = int_0^{1/3} F_p = (p+2) / (6 (p+1)(2p+1))."""
    p = params.p
    return (p + 2.0) / (6.0 * (p + 1.0) * (2.0 * p + 1.0))


def mean(params: PSingularParams) -> float:
    """E[X_p] = 3p / (2 (2p+1)); equals 1 - J(1)."""
    p = params.p
    return 1.5 * p / (2.0 * p + 1.0)


def _anchors(params: PSingularParams) -> tuple[float, float, float]:
    # I1, J(1), and the constant J(2/3) - 2/3 - p I1 of J's fused right step
    p = params.p
    i1 = i1_closed_form(params)
    j_two_thirds = i1 + 1.0 / (3.0 * (p + 1.0))
    return i1, 1.0 - mean(params), j_two_thirds - TWO_THIRDS - p * i1


def _check_unit_interval(x: float) -> float:
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    return float(x)


def _reflect(x):
    """The point 1 - x that the descent starts from for x >= 1/3.

    Where x lies on the plateau [1/3, 2/3] the float difference is clipped
    back onto it: 1 - x can overshoot the plateau edge by one ulp, and just
    outside the plateau F is genuinely steep (the Hoelder exponent vanishes
    as p -> 0), so that ulp is not benign.  Takes a float or an array.
    """
    z = 1.0 - x
    if isinstance(z, np.ndarray):
        np.clip(z, ONE_THIRD, TWO_THIRDS, out=z, where=x <= TWO_THIRDS)
        return z
    return min(max(z, ONE_THIRD), TWO_THIRDS) if x <= TWO_THIRDS else z


def _descend(params: PSingularParams, y: float, tol_f: float, tol_j: float,
             max_depth: int, relative: bool = False) -> tuple[float, float, float, float]:
    """F(y) and J(y) from one walk down the ternary structure.

    Returns (F, F's error bound, J, J's error bound).  Both are carried as
    affine accumulators, F(x) = a_F + b_F F(y) and J(x) = a_J + b_J J(y).
    A left step (y < 1/3) scales b_F by 1/(p+1) and b_J by 1/(3(p+1)).
    A right step (y > 2/3) is F's y -> 3(1-y); for J it is the reflection
    y -> 1-y followed by its forced left step, which together give
    a_J += b_J (J(2/3) - 2/3 - p I1 + y) and b_J *= r/3.  The walk ends
    exactly on the plateau or at an endpoint; otherwise the residuals
    F(y) in [0, 1] and J(y) in [0, y] bound the error, and it stops once
    |b_F|/2 <= tol_f and b_J y/2 <= tol_j (absolute tolerances, inf for a
    quantity the caller does not use) or, with `relative`, once both are
    within their tolerance times the running midpoint of F.  The float
    path is followed as is: y -> 3y and y -> 3(1-y) round.
    """
    q, r = params.left_mass, params.right_mass
    i1, j1, c = _anchors(params)
    shrink, r3 = q / 3.0, r / 3.0
    lim_f, lim_j = 2.0 * tol_f, 2.0 * tol_j
    af, bf, aj, bj = 0.0, 1.0, 0.0, 1.0
    for _ in range(max_depth):
        s = af + 0.5 * bf if relative else 1.0
        if abs(bf) <= lim_f * s and bj * y <= lim_j * s:
            break
        if y <= 0.0:
            return af, 0.0, aj, 0.0
        if y >= 1.0:
            return af + bf, 0.0, aj + bj * j1, 0.0
        if ONE_THIRD <= y <= TWO_THIRDS:
            return af + bf * q, 0.0, aj + bj * (i1 + (y - ONE_THIRD) * q), 0.0
        if y < ONE_THIRD:
            bf *= q
            bj *= shrink
            y *= 3.0
        else:
            af += bf
            bf *= -r
            aj += bj * (c + y)
            bj *= r3
            y = 3.0 * (1.0 - y)
    half = 0.5 * bj * y
    return af + 0.5 * bf, 0.5 * abs(bf), aj + half, half


def _descend_many(params: PSingularParams, ys, tol_f: float, tol_j: float,
                  max_depth: int, relative: bool = False):
    """Vector twin of `_descend`, equal to it bit for bit at every point.

    Rejects any point outside [0, 1], NaN included, then yields
    (slice, F, F bounds, J, J bounds) for successive _CHUNK-point slices
    of the flattened `ys`.
    """
    ys = np.asarray(ys, dtype=float).ravel()
    if ys.size and not (ys.min() >= 0.0 and ys.max() <= 1.0):
        raise DomainError("all evaluation points must lie in [0, 1]")
    q, r = params.left_mass, params.right_mass
    i1, j1, c = _anchors(params)
    shrink, r3 = q / 3.0, r / 3.0
    lim_f, lim_j = 2.0 * tol_f, 2.0 * tol_j
    for start in range(0, ys.size, _CHUNK):
        y = ys[start:start + _CHUNK].copy()
        n = y.size
        f, ef, j, ej = np.empty(n), np.zeros(n), np.empty(n), np.zeros(n)
        idx = np.arange(n)
        af, bf, aj, bj = np.zeros(n), np.ones(n), np.zeros(n), np.ones(n)
        for _ in range(max_depth):
            s = af + 0.5 * bf if relative else 1.0
            stop = (np.abs(bf) <= lim_f * s) & (bj * y <= lim_j * s)
            zero, one = y <= 0.0, y >= 1.0
            flat = (y >= ONE_THIRD) & (y <= TWO_THIRDS)
            done = stop | zero | one | flat
            if done.any():
                # the exact ends first, then the stopped brackets, which
                # take precedence as in `_descend`
                k = idx[zero]
                f[k], j[k] = af[zero], aj[zero]
                k = idx[one]
                f[k], j[k] = af[one] + bf[one], aj[one] + bj[one] * j1
                k = idx[flat]
                f[k] = af[flat] + bf[flat] * q
                j[k] = aj[flat] + bj[flat] * (i1 + (y[flat] - ONE_THIRD) * q)
                k = idx[stop]
                half = 0.5 * bj[stop] * y[stop]
                f[k], ef[k] = af[stop] + 0.5 * bf[stop], 0.5 * np.abs(bf[stop])
                j[k], ej[k] = aj[stop] + half, half
                keep = ~done
                idx, y, af, bf, aj, bj = idx[keep], y[keep], af[keep], bf[keep], aj[keep], bj[keep]
                if not idx.size:
                    break
            left = y < ONE_THIRD
            right = ~left
            np.add(af, bf, out=af, where=right)
            np.add(aj, bj * (c + y), out=aj, where=right)
            bf *= np.where(left, q, -r)
            bj *= np.where(left, shrink, r3)
            np.subtract(1.0, y, out=y, where=right)
            y *= 3.0
        else:
            half = 0.5 * bj * y
            f[idx], ef[idx] = af + 0.5 * bf, 0.5 * np.abs(bf)
            j[idx], ej[idx] = aj + half, half
        yield slice(start, start + n), f, ef, j, ej


def _branch_many(params: PSingularParams, xs, tol_f: float, tol_j: float, max_depth: int,
                 upper, lower, relative: bool = False) -> np.ndarray:
    """A quantity over the array xs that, like its scalar form, descends
    from `_reflect(x)` for x >= 1/3 (with the `relative` stop test if
    asked) and from x itself below 1/3; upper(x, F, J) and lower(x, F, J)
    turn each slice of the descent into values.  NaN fails x >= 1/3 and
    goes below, where the descent rejects it; x > 1 reflects below 0,
    where it is rejected too."""
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    out = np.empty(flat.shape)
    above = flat >= ONE_THIRD
    for mask, formula, rel in ((above, upper, relative), (~above, lower, False)):
        x = flat[mask]
        vals = np.empty(x.size)
        start = _reflect(x) if formula is upper else x
        for k, f, _, j, _ in _descend_many(params, start, tol_f, tol_j, max_depth, rel):
            vals[k] = formula(x[k], f, j)
        out[mask] = vals
    return out.reshape(xs.shape)


def cdf_with_bound(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Evaluate F_p(x) and return (value, achieved error bound).

    One descent with F's absolute tolerance (see `_descend`): the bound
    is 0 where the walk ends on a plateau or an endpoint, else <=
    config.tolerance unless the depth cap cut it short.
    """
    f, bound, _, _ = _descend(params, _check_unit_interval(x), config.tolerance,
                              math.inf, config.max_depth)
    return f, bound


def cdf(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F_p(x) with absolute error <= config.tolerance."""
    return cdf_with_bound(params, x, config)[0]


def cdf_many(params: PSingularParams, xs, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized F_p over an array of points in [0, 1]."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.size)
    for k, f, _, _, _ in _descend_many(params, xs, config.tolerance, math.inf, config.max_depth):
        out[k] = f
    return out.reshape(xs.shape)


def survival(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """1 - F_p(x), same absolute-tolerance contract as `cdf`.

    For x >= 1/3 the reflection identity 1 - F(x) = p * F(1-x) is used
    (condition (ii) extended to [1/3, 1]); evaluated multiplicatively it
    keeps full relative accuracy near the right endpoint, where the naive
    difference would cancel catastrophically.
    """
    x = _check_unit_interval(x)
    tol = config.tolerance
    if x >= ONE_THIRD:
        p = params.p
        return p * _descend(params, _reflect(x), min(tol, tol / p), math.inf, config.max_depth)[0]
    return 1.0 - _descend(params, x, tol, math.inf, config.max_depth)[0]


def sample(params: PSingularParams, rng_seed: int, n: int, levels: int = 50) -> np.ndarray:
    """Draw n i.i.d. variates by descending the ternary branching.

    Each level picks the left branch x -> x/3 with probability 1/(p+1)
    (ternary digit 0) or the right branch x -> 1 - x/3 with probability
    p/(p+1) (digit 2); the measure is invariant under this inverted-V
    pair, so the right branch is a *reflected* copy -- the digit
    processes are not independent for p != 1.  After `levels` steps the
    draw is pinned to an interval of width 3^-levels (~1.4e-24 for 50)
    and its midpoint is returned.  Deterministic given the seed.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(rng_seed)
    left = params.left_mass
    a = np.zeros(n)
    s = np.ones(n)
    for _ in range(levels):
        right = rng.random(n) >= left
        a[right] += s[right]
        s = np.where(right, -s, s) / 3.0
    return a + 0.5 * s


@dataclass(frozen=True)
class PointCloud:
    """Sorted (x, F(x)) pairs from the shrink-flip plotting iteration."""

    x: np.ndarray
    F: np.ndarray
    p: float
    iterations: int
    n_initial: int

    def __len__(self) -> int:
        return self.x.size

    @property
    def points(self):
        return list(zip(self.x.tolist(), self.F.tolist()))


def point_cloud(params: PSingularParams, n_initial: int, iterations: int,
                max_points: int = 5_000_000) -> PointCloud:
    """Generate the CDF point cloud by the shrink-flip iteration.

    Initialization: n_initial evenly spaced points on the plateau
    [1/3, 2/3] at height 1/(p+1), plus the endpoints (0,0) and (1,1).
    Each iteration replaces the set S by {x/3} + S + {1 - x/3} with
    heights {F/(p+1)} + {F} + {1 - p F/(p+1)}, then deduplicates
    identical x values.  Raises ResourceLimitError once the cloud
    exceeds `max_points` (the count roughly doubles per iteration).
    """
    if n_initial < 2:
        raise ParameterError(f"n_initial must be >= 2, got {n_initial}")
    if iterations < 0:
        raise ParameterError(f"iterations must be >= 0, got {iterations}")
    p = params.p
    v = params.left_mass
    x = np.concatenate(([0.0], np.linspace(ONE_THIRD, TWO_THIRDS, n_initial), [1.0]))
    F = np.concatenate(([0.0], np.full(n_initial, v), [1.0]))
    for k in range(iterations):
        cx = np.concatenate((x / 3.0, x, 1.0 - x / 3.0))
        cF = np.concatenate((F * v, F, 1.0 - F * (p * v)))
        x, first = np.unique(cx, return_index=True)
        F = cF[first]
        if x.size > max_points:
            raise ResourceLimitError(
                f"point cloud exceeded cap of {max_points} points "
                f"({x.size} after iteration {k + 1} of {iterations})")
    return PointCloud(x=x, F=F, p=p, iterations=iterations, n_initial=n_initial)


def gap_intervals(max_level: int) -> list[tuple[float, float]]:
    """Open middle-third gaps of the Cantor construction up to a level.

    Level 1 is (1/3, 2/3); level k+1 maps each level-k gap (a, b) to
    (a/3, b/3) and ((2+a)/3, (2+b)/3).  Returns all gaps of level
    <= max_level, sorted, as machine floats.
    """
    if max_level < 1:
        raise ParameterError(f"max_level must be >= 1, got {max_level}")
    level = [(Fraction(1, 3), Fraction(2, 3))]
    gaps = list(level)
    for _ in range(max_level - 1):
        level = [g for a, b in level for g in ((a / 3, b / 3), ((2 + a) / 3, (2 + b) / 3))]
        gaps.extend(level)
    gaps.sort()
    return [(float(a), float(b)) for a, b in gaps]
