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
The numpy loop uses no boolean masks: each level splits the live points
once by integer index into those that go on and those that end, and the
stop test is chosen per point, so a quantity that reflects x >= 1/3 (the
MRL, the payoff) runs both of its branches in one descent.
"""

from __future__ import annotations

import functools
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

GAP_LEVEL = 8  # the deepest Cantor gaps whose rounded endpoints `gap_grid` adds

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


def _descend(params: PSingularParams, y: float, tol: float, max_depth: int,
             on_j: bool = False, relative: bool = False) -> tuple[float, float, float, float]:
    """F(y) and J(y) from one walk down the ternary structure.

    Returns (F, F's error bound, J, J's error bound).  Both are carried as
    affine accumulators, F(x) = a_F + b_F F(y) and J(x) = a_J + b_J J(y).
    A left step (y < 1/3) scales b_F by 1/(p+1) and b_J by 1/(3(p+1)).
    A right step (y > 2/3) is F's y -> 3(1-y); for J it is the reflection
    y -> 1-y followed by its forced left step, which together give
    a_J += b_J (J(2/3) - 2/3 - p I1 + y) and b_J *= r/3.  The walk ends
    exactly on the plateau or at an endpoint; otherwise the residuals
    F(y) in [0, 1] and J(y) in [0, y] bound the error.  It stops once one
    bracket, |b_F| or with `on_j` b_J y, is <= 2 tol (times F's running
    midpoint with `relative`); each step scales b_J by at most b_F's
    factor, so b_J y <= |b_F| and F's test covers J.  The float path is
    followed as is: y -> 3y and y -> 3(1-y) round.
    """
    q, r = params.left_mass, params.right_mass
    i1, j1, c = _anchors(params)
    shrink, r3 = q / 3.0, r / 3.0
    lim = 2.0 * tol
    af, bf, aj, bj = 0.0, 1.0, 0.0, 1.0
    for _ in range(max_depth):
        if (bj * y if on_j else abs(bf)) <= (lim * (af + 0.5 * bf) if relative else lim):
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


def _descend_many(params: PSingularParams, ys, tol, max_depth: int,
                  on_j: bool = False, relative=False):
    """Vector twin of `_descend`, equal to it bit for bit at every point.

    Rejects any point outside [0, 1], NaN included, then yields
    (slice, F, F bounds, J, J bounds) for successive _CHUNK-point slices
    of the flattened `ys`.  `tol` and `relative` are each one value for
    all points or a flat array with one per point, so one descent serves
    points with different stop tests.
    """
    ys = np.asarray(ys, dtype=float).ravel()
    if ys.size and not (ys.min() >= 0.0 and ys.max() <= 1.0):
        raise DomainError("all evaluation points must lie in [0, 1]")
    for start in range(0, ys.size, _CHUNK):
        k = slice(start, min(start + _CHUNK, ys.size))
        tol_k, rel_k = (v[k] if np.ndim(v) else v for v in (tol, relative))
        yield k, *_descend_slice(params, ys[k], tol_k, max_depth, on_j, rel_k)


def _descend_slice(params: PSingularParams, ys: np.ndarray, tol, max_depth: int,
                   on_j: bool, rel) -> np.ndarray:
    """F, F's bound, J and J's bound at the points ys, as the rows of one
    array; `tol` and `rel` are scalars or one entry per point.

    Each level partitions the live points once with `np.flatnonzero` into
    those that step on and those that end there.  The state of the ending
    ones is set aside and the rest is compacted with `take`.  The stop test
    is one comparison of the chosen bracket with its limit, which costs a
    multiply-add where the limit is set per point.  The step needs no mask
    either: with a 0/1 right-step factor R, a_F += R b_F,
    a_J += R b_J (c + y) and y -> 3|R - y|, and the multipliers come from
    two-entry tables.  Once every point has ended, one select over them by
    kind (stopped bracket, y = 0, y = 1 or plateau; a stopped bracket wins,
    as in `_descend`) gives F, J and both bounds.  Adding +-0 and
    multiplying by 1 are exact, so the values are those of the scalar loop.
    """
    q, r = params.left_mass, params.right_mass
    i1, j1, c = _anchors(params)
    step_f, step_j = np.array([q, -r]), np.array([q / 3.0, r / 3.0])
    lim = 2.0 * tol
    n = ys.size
    idx = np.arange(n)
    # the state, one row per quantity: y, a_F, b_F, a_J, b_J and, where the
    # stop test differs between points, L and A of the limit (a_F + b_F/2) L
    # + A: L = 2 tol, A = 0 where relative, and L = 0, A = 2 tol elsewhere
    per_point = np.ndim(lim) > 0 or np.any(rel)
    state = np.empty((7 if per_point else 5, n))
    state[0] = ys
    state[0] += 0.0  # -0 as +0, so that J's bound at y = 0 is +0 as in `_descend`
    state[1:5] = ((0.0,), (1.0,), (0.0,), (1.0,))
    if per_point:
        np.multiply(lim, rel, out=state[5])
        np.subtract(lim, state[5], out=state[6])
    y, af, bf, aj, bj = state[:5]
    # the points in the order they end: where they sit in ys, their final
    # state, and whether the stop test ended them
    at, ended, stopped = np.empty(n, dtype=np.intp), np.empty((5, n)), np.ones(n, dtype=bool)
    done = 0
    for _ in range(max_depth):
        width = bj * y if on_j else np.abs(bf)
        stop = width <= ((af + 0.5 * bf) * state[5] + state[6] if per_point else lim)
        left, right = y < ONE_THIRD, y > TWO_THIRDS
        go = ((left & (y > 0.0)) | (right & (y < 1.0))) & ~stop
        keep = np.flatnonzero(go)
        if keep.size < y.size:
            end = np.flatnonzero(~go)
            k = slice(done, done + end.size)
            at[k], ended[:, k], stopped[k] = idx.take(end), state[:5].take(end, axis=1), stop.take(end)
            done += end.size
            if not keep.size:
                break
            idx, state, right = idx.take(keep), state.take(keep, axis=1), right.take(keep)
            y, af, bf, aj, bj = state[:5]
        r_idx = right.view(np.int8)
        r_f = right.astype(float)
        af += bf * r_f
        aj += bj * (c + y) * r_f
        bf *= step_f.take(r_idx)
        bj *= step_j.take(r_idx)
        np.subtract(r_f, y, out=y)
        np.abs(y, out=y)
        y *= 3.0
    else:
        at[done:], ended[:, done:] = idx, state[:5]  # depth cap: brackets
    # the select, in place.  Per kind of end (0 stopped, 1 at y = 0, 2 at
    # y = 1, 3 on the plateau) F = a_F + b_F w_F with bound |b_F| e_F, and
    # J = a_J + h with h = (b_J w_J) u and bound h e_J, where u is J's
    # plateau term on the plateau and y elsewhere
    y, af, bf, aj, bj = ended
    kind = (3 - 2 * (y <= 0.0) - (y >= 1.0)) * ~stopped
    w_f, e_f, w_j, e_j = np.array([[0.5, 0.0, 1.0, q], [0.5, 0.0, 0.0, 0.0],
                                   [0.5, 1.0, j1, 1.0], [1.0, 0.0, 0.0, 0.0]]).take(kind, axis=1)
    np.copyto(y, i1 + (y - ONE_THIRD) * q, where=kind == 3)
    bj *= w_j
    bj *= y
    w_f *= bf
    af += w_f
    np.abs(bf, out=bf)
    bf *= e_f
    aj += bj
    e_j *= bj
    out = np.empty((4, n))
    for row, vals in zip(out, (af, bf, aj, e_j)):
        row[at] = vals
    return out


def _branch(params: PSingularParams, x: float, tol_above: float, tol_below: float,
            max_depth: int, on_j: bool = False,
            relative: bool = False) -> tuple[bool, float, float, float, float]:
    """(x >= 1/3, F, F's bound, J, J's bound) for a quantity that descends
    from `_reflect(x)` at `tol_above` (`relative` if asked) for x >= 1/3
    and from x itself at `tol_below` below; `on_j` as in `_descend`."""
    if x >= ONE_THIRD:
        return True, *_descend(params, _reflect(x), tol_above, max_depth, on_j, relative)
    return False, *_descend(params, x, tol_below, max_depth, on_j)


def _branch_many(params: PSingularParams, xs, tol_above: float, tol_below: float,
                 max_depth: int, upper, lower, on_j: bool = False,
                 relative: bool = False) -> np.ndarray:
    """Vector twin of `_branch`: both branches share one descent over the
    combined start points, with each point's tolerance and `relative` flag
    those of its branch, and upper(x, F, J) and lower(x, F, J) turn each
    slice of it into values.  NaN fails x >= 1/3 and starts from itself,
    where the descent rejects it; x > 1 reflects below 0, where it is
    rejected too."""
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    out = np.empty(flat.shape)
    above = flat >= ONE_THIRD
    start = _reflect(flat)
    np.copyto(start, flat, where=~above)
    tol = tol_above if tol_above == tol_below else np.where(above, tol_above, tol_below)
    for k, f, _, j, _ in _descend_many(params, start, tol, max_depth, on_j, above & relative):
        out[k] = np.where(above[k], upper(flat[k], f, j), lower(flat[k], f, j))
    return out.reshape(xs.shape)


def cdf_with_bound(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Evaluate F_p(x) and return (value, achieved error bound).

    One descent with F's absolute tolerance (see `_descend`): the bound
    is 0 where the walk ends on a plateau or an endpoint, else <=
    config.tolerance unless the depth cap cut it short.
    """
    f, bound, _, _ = _descend(params, _check_unit_interval(x), config.tolerance, config.max_depth)
    return f, bound


def cdf(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F_p(x) with absolute error <= config.tolerance, unless config.max_depth
    cuts the descent short: the error can then be larger (with max_depth=1,
    F(0.1) at p=1 returns 0.25), and `cdf_with_bound` reports the bound
    actually achieved."""
    return cdf_with_bound(params, x, config)[0]


def cdf_many(params: PSingularParams, xs, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized F_p over an array of points in [0, 1]."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.size)
    for k, f, _, _, _ in _descend_many(params, xs, config.tolerance, config.max_depth):
        out[k] = f
    return out.reshape(xs.shape)


def survival(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """1 - F_p(x), same absolute-tolerance contract as `cdf`.

    For x >= 1/3 the reflection identity 1 - F(x) = p * F(1-x) is used
    (condition (ii) extended to [1/3, 1]); evaluated multiplicatively it
    keeps full relative accuracy near the right endpoint, where the naive
    difference would cancel catastrophically.
    """
    tol, p = config.tolerance, params.p
    above, f, _, _, _ = _branch(params, _check_unit_interval(x), min(tol, tol / p), tol,
                                config.max_depth)
    return p * f if above else 1.0 - f


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's default generator for a seed >= 0; ParameterError otherwise."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


# Levels `sample` walks after the first right step.  From there on X lies
# in [2a/3, a] and |s| shrinks by a factor of 3 per level whichever branch
# is taken, so after D levels the midpoint a + s/2 is within
# |s|/2 = a / (2 3^(D+1)) of X: a relative 1/(4 3^D).  Half an ulp is at
# least 2^-54 relative, so D >= 33 (3^33 >= 2^52) pins X for every p;
# D = 34 keeps the truncation under a third of that half ulp.
_SAMPLE_LEVELS = 34


def sample(params: PSingularParams, rng_seed: int, n: int) -> np.ndarray:
    """Draw n i.i.d. variates, deterministic given the seed, by descending
    the ternary branching: the left branch x -> x/3 with probability
    q = 1/(p+1) (digit 0) or the right branch x -> 1 - x/3, a *reflected*
    copy, with probability r = p/(p+1) (digit 2), so the digits are not
    independent for p != 1.  The draw lies between a and a + s: a left
    step sends s -> s/3, a right step a -> a + s and s -> -s/3.  Neither
    depends on a, so the run of K left steps before the first right one is
    geometric, P(K >= k) = q^k, and drawn in closed form (Devroye 1986,
    ch. 2); it leaves a = 3^-K and s = -a/3, both 0 where r is so small that
    numpy caps K at 2^63 - 1.  `_SAMPLE_LEVELS` more levels pin the draw to
    half an ulp.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = seeded_rng(rng_seed)
    a = 3.0 ** (1 - rng.geometric(params.right_mass, n))
    s = a / -3.0
    divisor = np.array([3.0, -3.0])
    for _ in range(_SAMPLE_LEVELS):
        right = rng.random(n) >= params.left_mass
        a += s * right
        s /= divisor.take(right.view(np.int8))
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
    identical x values.  Raises ResourceLimitError once the cloud, the
    initial one included, exceeds `max_points` (it about doubles per step).
    """
    if n_initial < 2:
        raise ParameterError(f"n_initial must be >= 2, got {n_initial}")
    if iterations < 0:
        raise ParameterError(f"iterations must be >= 0, got {iterations}")
    p = params.p
    v = params.left_mass
    x = np.concatenate(([0.0], np.linspace(ONE_THIRD, TWO_THIRDS, n_initial), [1.0]))
    F = np.concatenate(([0.0], np.full(n_initial, v), [1.0]))
    for k in range(iterations + 1):
        if x.size > max_points:
            raise ResourceLimitError(
                f"point cloud exceeded cap of {max_points} points "
                f"({x.size} after iteration {k} of {iterations})")
        if k == iterations:
            return PointCloud(x=x, F=F, p=p, iterations=iterations, n_initial=n_initial)
        cx = np.concatenate((x / 3.0, x, 1.0 - x / 3.0))
        cF = np.concatenate((F * v, F, 1.0 - F * (p * v)))
        x, first = np.unique(cx, return_index=True)
        F = cF[first]


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


@functools.lru_cache(maxsize=8)
def gap_grid(grid_n: int) -> np.ndarray:
    """The sorted union of grid_n evenly spaced points on [0, 1] and the
    rounded endpoints of every gap of level <= GAP_LEVEL: the points where
    the uniqueness scan, the pricing check and `plot-data --what mrl`
    evaluate.  Built once per grid size, so the array is read-only.
    grid_n = 0 gives the gap endpoints alone.
    """
    if grid_n < 0:
        raise ParameterError(f"grid_n must be >= 0, got {grid_n}")
    xs = np.unique(np.concatenate((np.linspace(0.0, 1.0, grid_n),
                                   np.ravel(gap_intervals(GAP_LEVEL)))))
    xs.flags.writeable = False
    return xs
