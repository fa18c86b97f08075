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
it can carry F and its integral J (module `integration`) along the same
path, and every evaluated quantity of the package is a formula over it.
The numpy loop uses no boolean masks: each level splits the live points
once by integer index into those that go on and those that end.  It
carries only the rows its caller reads (F for `cdf_many`, J for
`cdf_integral_many` and the payoff, both for the MRL) plus those its stop
test reads, and the stop test is chosen per point, so a quantity that
reflects x >= 1/3 (the MRL, the payoff) runs both of its branches in one
descent.  Most points end within a few levels, so a long input walks its
first `_HEAD` levels one slice at a time and pools the survivors of every
slice into one tail walk: the deep, nearly empty levels, where numpy's
per-call cost outweighs the arithmetic, are paid about once per call.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, ParameterError, ResourceLimitError

ONE_THIRD = 1.0 / 3.0
TWO_THIRDS = 2.0 / 3.0


def _integer(name: str, value) -> int:
    """value as a Python int (a Python or numpy integer); ParameterError for
    anything else, a float with an integral value included."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class PSingularParams:
    """Family parameter p > 0 (p = 1 is the classical Cantor distribution)."""

    p: float

    def __post_init__(self):
        if not (isinstance(self.p, numbers.Real) and math.isfinite(self.p) and self.p > 0):
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
        object.__setattr__(self, "max_depth", _integer("max_depth", self.max_depth))
        if self.max_depth < 1:
            raise ParameterError(f"max_depth must be >= 1, got {self.max_depth!r}")


DEFAULT_CONFIG = EvalConfig()

GAP_LEVEL = 8  # the deepest Cantor gaps whose rounded endpoints `gap_grid` adds

# points per slice of the vector descent: bounds its working set, and is
# large enough that per-iteration overhead stays amortised
_CHUNK = 16_384
# levels each slice of a multi-slice input walks alone before its live
# points join the pooled tail (see `_descend_many`)
_HEAD = 8


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
    as p -> 0), so that ulp is not benign.  Only the upper edge needs it:
    for x in [1/2, 2/3] the difference is exact (Sterbenz), so at least
    1 - fl(2/3) > fl(1/3), and below 1/2 it exceeds 1/2; for x > 2/3 it is
    below 1/3 and untouched.  Takes a float or an array.
    """
    z = 1.0 - x
    if isinstance(z, np.ndarray):
        return np.minimum(z, TWO_THIRDS, out=z)
    return min(z, TWO_THIRDS)


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


def _descend_many(params: PSingularParams, ys, tol: float, max_depth: int,
                  on_j: bool = False, relative: bool = False, reads: str = "FJ",
                  tol_below: float | None = None):
    """Vector twin of `_descend`, equal to it bit for bit at every point.

    Rejects any point outside [0, 1], NaN included, then yields groups
    (positions, F, F bounds, J, J bounds) that together cover the flattened
    `ys` once, in no fixed order: a caller scatters each group with
    out[positions] = values.  `reads` names the quantities the caller
    reads, "F", "J" or "FJ"; the walk carries only those and what its stop
    test needs, and yields None for a quantity it did not carry.  With
    `tol_below`, each point follows `_branch`'s rule instead: x >= 1/3
    descends from `_reflect(x)` at `tol` (and `relative`), x < 1/3 from
    itself at `tol_below`, so both branches share one descent.

    The input is cut into `_CHUNK`-point slices.  A lone slice walks to the
    end.  Otherwise each slice walks its first `_HEAD` levels alone, which
    end most of its points, and its survivors join a pool that walks the
    remaining levels whenever it holds `_CHUNK` points, and once more after
    the last slice.  The near-empty deep levels are then paid about once per
    call, not once per slice, the working set stays a few slices wide, and
    every pooled point has walked the same `_HEAD` levels, so `max_depth`
    counts exactly as in `_descend` (with max_depth <= `_HEAD` the pool
    walks no level, and its points end as brackets).
    """
    ys = np.asarray(ys, dtype=float).ravel()
    n = ys.size
    if n and not (ys.min() >= 0.0 and ys.max() <= 1.0):
        raise DomainError("all evaluation points must lie in [0, 1]")
    walk = _Walk(params, tol, on_j, relative, reads, tol_below)
    if n <= _CHUNK:
        if n:
            yield _descend_slice(walk, *walk.start(ys, 0), max_depth)[0]
        return
    head = min(_HEAD, max_depth)
    pool, pooled = [], 0
    for start in range(0, n, _CHUNK):
        group, live = _descend_slice(walk, *walk.start(ys[start:start + _CHUNK], start),
                                     head, cap=False)
        yield group
        if live is not None:
            pool.append(live)
            pooled += live[0].size
        if pooled >= _CHUNK or (pooled and start + _CHUNK >= n):
            idx, state = (np.concatenate(part, axis=-1) for part in zip(*pool))
            pool, pooled = [], 0
            yield _descend_slice(walk, idx, state, max_depth - head)[0]


class _Walk:
    """One call's vector descent: its constants, its stop test and the rows
    of state it carries.

    The state of a point is one column: y, then a_F and b_F where F is
    carried, then a_J and b_J where J is, then L and A of a per-point limit
    (a_F + b_F/2) L + A where the stop test differs between points (L = 2
    tol and A = 0 where it is relative, L = 0 and A = 2 tol elsewhere).  F
    is carried where the caller reads it or the stop test does (F's
    bracket, or a per-point limit); J where the caller reads it or the test
    is on J's bracket.
    """

    def __init__(self, params: PSingularParams, tol: float, on_j: bool, relative: bool,
                 reads: str, tol_below: float | None):
        q, r = params.left_mass, params.right_mass
        self.q = q
        self.i1, j1, self.c = _anchors(params)
        # each step's multipliers of b_F and b_J, by 0/1 right step, and
        # `_select`'s (w, e) of F and of J, by kind of end
        self.step_f, self.step_j = np.array([q, -r]), np.array([q / 3.0, r / 3.0])
        self.ends_f = np.array([[0.5, 0.0, 1.0, q], [0.5, 0.0, 0.0, 0.0]])
        self.ends_j = np.array([[0.5, 1.0, j1, 1.0], [1.0, 0.0, 0.0, 0.0]])
        self.on_j, self.relative, self.branch = on_j, relative, tol_below is not None
        self.lim = 2.0 * tol
        self.lim_below = self.lim if tol_below is None else 2.0 * tol_below
        self.per_point = bool(relative) or self.lim_below != self.lim
        carry_f = "F" in reads or not on_j or self.per_point
        carry_j = "J" in reads or on_j
        # the row of a_F and of a_J, 0 where that quantity is not carried
        self.f = 1 if carry_f else 0
        self.j = 1 + 2 * carry_f if carry_j else 0
        self.rows = 1 + 2 * carry_f + 2 * carry_j

    def start(self, x: np.ndarray, offset: int) -> tuple[np.ndarray, np.ndarray]:
        """The positions and the initial state of the slice x of the input,
        which starts at `offset`."""
        state = np.empty((self.rows + 2 * self.per_point, x.size))
        lim, rel = self.lim, self.relative
        if self.branch:
            above = x >= ONE_THIRD
            state[0] = np.where(above, _reflect(x), x)
            if self.lim_below != lim:
                lim = np.where(above, lim, self.lim_below)
            rel = above & rel
        else:
            state[0] = x
        state[0] += 0.0  # -0 as +0, so that J's bound at y = 0 is +0 as in `_descend`
        state[1:self.rows:2] = 0.0
        state[2:self.rows:2] = 1.0
        if self.per_point:
            np.multiply(lim, rel, out=state[self.rows])
            np.subtract(lim, state[self.rows], out=state[self.rows + 1])
        return np.arange(offset, offset + x.size), state


def _descend_slice(walk: _Walk, idx: np.ndarray, state: np.ndarray, levels: int,
                   cap: bool = True):
    """Walk the points with positions `idx` and state columns `state` for
    at most `levels` levels.  Returns the group (positions, F, F bounds, J,
    J bounds) of the points that ended, None for a quantity not carried,
    and the (positions, state) of those still live after the last level,
    or None where none is; with `cap` those end as brackets instead, as
    the depth cap ends them in `_descend`.

    Each level partitions the live points once with `np.flatnonzero` into
    those that step on and those that end there.  The state of the ending
    ones is set aside and the rest is compacted with `take`.  The stop test
    is one comparison of the chosen bracket with its limit, which costs a
    multiply-add where the limit is set per point.  The step needs no mask
    either: with a 0/1 right-step factor R, a_F += R b_F,
    a_J += R b_J (c + y) and y -> 3|R - y|, and the multipliers come from
    two-entry tables.  Once the walk is over, one select over the ended
    points by kind (stopped bracket, y = 0, y = 1 or plateau; a stopped
    bracket wins, as in `_descend`) gives F, J and their bounds.  Adding
    +-0 and multiplying by 1 are exact, so the values are those of the
    scalar loop.
    """
    f, j, rows, per_point = walk.f, walk.j, walk.rows, walk.per_point
    lim, c, step_f, step_j = walk.lim, walk.c, walk.step_f, walk.step_j
    n = idx.size
    # the points in the order they end: where they sit in the input, their
    # final state, and whether the stop test ended them
    at, ended, stopped = np.empty(n, dtype=np.intp), np.empty((rows, n)), np.ones(n, dtype=bool)
    done = 0
    for _ in range(levels):
        y = state[0]
        width = state[j + 1] * y if walk.on_j else np.abs(state[f + 1])
        if per_point:
            lim = (state[f] + 0.5 * state[f + 1]) * state[rows] + state[rows + 1]
        stop = width <= lim
        right = y > TWO_THIRDS
        go = (((y < ONE_THIRD) & (y > 0.0)) | (right & (y < 1.0))) & ~stop
        keep = np.flatnonzero(go)
        if keep.size < y.size:
            end = np.flatnonzero(~go)
            k = slice(done, done + end.size)
            at[k], ended[:, k], stopped[k] = idx.take(end), state[:rows].take(end, axis=1), stop.take(end)
            done += end.size
            if not keep.size:
                break
            idx, state, right = idx.take(keep), state.take(keep, axis=1), right.take(keep)
            y = state[0]
        r_idx = right.view(np.int8)
        r_f = right.astype(float)
        if f:
            af, bf = state[f], state[f + 1]
            af += bf * r_f
            bf *= step_f.take(r_idx)
        if j:
            aj, bj = state[j], state[j + 1]
            aj += bj * (c + y) * r_f
            bj *= step_j.take(r_idx)
        np.subtract(r_f, y, out=y)
        np.abs(y, out=y)
        y *= 3.0
    live = (idx, state) if done < n else None
    if live is not None and cap:
        at[done:], ended[:, done:] = idx, state[:rows]  # depth cap: brackets
        done, live = n, None
    return _select(walk, at[:done], ended[:, :done], stopped[:done]), live


def _select(walk: _Walk, at: np.ndarray, ended: np.ndarray, stopped: np.ndarray):
    """The group (positions, F, F bounds, J, J bounds) of ended points, in
    place over their final state.  Per kind of end (0 stopped, 1 at y = 0,
    2 at y = 1, 3 on the plateau) F = a_F + b_F w_F with bound |b_F| e_F,
    and J = a_J + h with h = (b_J w_J) u and bound h e_J, where u is J's
    plateau term on the plateau and y elsewhere."""
    y = ended[0]
    kind = (3 - 2 * (y <= 0.0) - (y >= 1.0)) * ~stopped
    group = [at, None, None, None, None]
    if walk.f:
        af, bf = ended[walk.f], ended[walk.f + 1]
        w_f, e_f = walk.ends_f.take(kind, axis=1)
        w_f *= bf
        af += w_f
        np.abs(bf, out=bf)
        bf *= e_f
        group[1:3] = af, bf
    if walk.j:
        aj, bj = ended[walk.j], ended[walk.j + 1]
        w_j, e_j = walk.ends_j.take(kind, axis=1)
        np.copyto(y, walk.i1 + (y - ONE_THIRD) * walk.q, where=kind == 3)
        bj *= w_j
        bj *= y
        aj += bj
        e_j *= bj
        group[3:] = aj, e_j
    return tuple(group)


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
                 max_depth: int, value, on_j: bool = False, relative: bool = False,
                 reads: str = "FJ") -> np.ndarray:
    """Vector twin of `_branch`: both branches share one descent (see
    `_descend_many`), and value(x, x >= 1/3, F, J) turns each group of it
    into values.  The domain check runs on x itself, before any point is
    reflected."""
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    out = np.empty(flat.shape)
    for at, f, _, j, _ in _descend_many(params, flat, tol_above, max_depth, on_j, relative,
                                        reads, tol_below):
        x = flat.take(at)
        out[at] = value(x, x >= ONE_THIRD, f, j)
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
    for at, f, _, _, _ in _descend_many(params, xs, config.tolerance, config.max_depth,
                                        reads="F"):
        out[at] = f
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
    """numpy's default generator for an integer seed >= 0; ParameterError
    otherwise."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


# levels per word of `sample`'s alias table: its 2^12 words of four
# 8-byte fields take 128 kB, so the table stays in cache
_WORD_LEVELS = 12
# Words `sample` draws after the first right step.  From there on X lies
# in [2a/3, a] and |s| shrinks by a factor of 3 per level whichever branch
# is taken, so after D levels the midpoint a + s/2 is within
# |s|/2 = a / (2 3^(D+1)) of X: a relative 1/(4 3^D).  Half an ulp is at
# least 2^-54 relative, so D >= 33 (3^33 >= 2^52) pins X for every p;
# three words give D = 36, the least multiple of 12 that does.
_SAMPLE_WORDS = 3
# draws per block of `sample`: its working set is the result plus a few
# arrays of this size
_SAMPLE_BLOCK = 65_536


@functools.lru_cache(maxsize=8)
def _alias_table(params: PSingularParams) -> tuple[np.ndarray, ...]:
    """The alias table over the 2^k words of k = `_WORD_LEVELS` levels at p:
    (threshold P_i, alias, a_w, s_w) with one entry per word.

    Bit j of word w is level j + 1, 1 for a right step.  The word has
    probability q^#left r^#right and sends (a, s) to (a + s a_w, s s_w):
    a_w = sum over its right steps i of the product of the earlier levels'
    factors (+1/3 left, -1/3 right), an integer over 3^(k-1), and
    s_w = +-3^-k, each one correctly rounded division.  Column i of the
    table is word i with probability P_i and word alias_i otherwise; Vose's
    construction (Vose 1991, IEEE TSE) fills it in one pass.  Built once
    per p, so the arrays are read-only.
    """
    k = _WORD_LEVELS
    size = 1 << k
    words = np.arange(size)
    rights = np.zeros(size, dtype=np.int64)
    numerator = np.zeros(size, dtype=np.int64)
    for j in range(k):
        bit = (words >> j) & 1
        numerator += bit * (-1) ** rights * 3 ** (k - 1 - j)
        rights += bit
    prob = (params.left_mass ** (k - rights) * params.right_mass ** rights * size).tolist()
    alias = list(range(size))
    small = [i for i, v in enumerate(prob) if v < 1.0]
    large = [i for i, v in enumerate(prob) if v >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        alias[lo] = hi
        prob[hi] = (prob[hi] + prob[lo]) - 1.0
        (small if prob[hi] < 1.0 else large).append(hi)
    for i in small + large:
        prob[i] = 1.0
    table = (np.array(prob), np.array(alias), numerator / 3.0 ** (k - 1),
             (-1.0) ** rights / 3.0 ** k)
    for arr in table:
        arr.flags.writeable = False
    return table


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
    numpy caps K at 2^63 - 1.  The levels after it are i.i.d., so
    `_SAMPLE_WORDS` words of `_WORD_LEVELS` levels each, one uniform per
    word from `_alias_table` (Walker's alias method), pin the draw to half
    an ulp.  The draws are made in blocks of `_SAMPLE_BLOCK`.
    """
    n = _integer("n", n)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = seeded_rng(rng_seed)
    threshold, alias, a_w, s_w = _alias_table(params)
    out = np.empty(n)
    for start in range(0, n, _SAMPLE_BLOCK):
        m = min(_SAMPLE_BLOCK, n - start)
        a = 3.0 ** (1 - rng.geometric(params.right_mass, m))
        s = a / -3.0
        for _ in range(_SAMPLE_WORDS):
            # the top 12 bits of a uniform pick the column, the rest the coin
            u = rng.random(m)
            u *= threshold.size
            column = u.astype(np.intp)
            u -= column
            word = np.where(u < threshold.take(column), column, alias.take(column))
            a += s * a_w.take(word)
            s *= s_w.take(word)
        out[start:start + m] = a + 0.5 * s
    return out


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
    heights {F/(p+1)} + {F} + {1 - p F/(p+1)}, keeping one height per
    distinct x: that of {x/3} where x/3 is there, else that of S, else that
    of {1 - x/3}, and within one part that of the least x.

    No sort is needed, and no search after the first iteration.  S's
    points at or below fl(1/3) are all in {x/3} and those at or above
    1 - fl(1/3) all in {1 - x/3} (by induction from the initial cloud), so
    the new cloud is x/3 ascending, the initial plateau points strictly
    inside (fl(1/3), 1 - fl(1/3)), and 1 - x/3 descending, each run of
    equal values cut to one point.  Every cloud holds the one before it,
    so a mask carried from each iteration to the next marks the points
    that were in the previous cloud: 1 - x/3 is a point of S where its run
    holds such a point (S's points at or above 1 - fl(1/3) are the
    previous right part), and there S's height stays.  Only the initial
    cloud is searched.  Each iteration is written into one buffer per
    array and its rare runs are dropped in place, so the returned arrays
    are views of buffers a few elements longer.

    Raises ResourceLimitError, before building it, once a cloud (the
    initial one included) would exceed `max_points`; it about doubles per
    step.  n_initial and iterations must be integers.
    """
    n_initial = _integer("n_initial", n_initial)
    iterations = _integer("iterations", iterations)
    if n_initial < 2:
        raise ParameterError(f"n_initial must be >= 2, got {n_initial}")
    if iterations < 0:
        raise ParameterError(f"iterations must be >= 0, got {iterations}")

    def check_cap(size, k):
        if size > max_points:
            raise ResourceLimitError(
                f"point cloud exceeded cap of {max_points} points "
                f"({size} after iteration {k} of {iterations})")

    check_cap(n_initial + 2, 0)
    p = params.p
    v = params.left_mass
    x = np.concatenate(([0.0], np.linspace(ONE_THIRD, TWO_THIRDS, n_initial), [1.0]))
    F = np.concatenate(([0.0], np.full(n_initial, v), [1.0]))
    plateau = x[(x > ONE_THIRD) & (x < 1.0 - ONE_THIRD)]
    m = plateau.size
    # whether x/3 and whether 1 - x/3 is a point of the cloud, per x: a
    # search in the initial cloud, then the carried mask for both
    was_left = np.isin(x / 3.0, x)
    was_right = np.isin(1.0 - x / 3.0, x)
    for k in range(1, iterations + 1):
        n = x.size
        size = 2 * n + m
        if size > max_points:
            # the bound is exact but for the few equal neighbours
            third = x / 3.0
            check_cap(size - _equal_neighbours(third).size
                      - _equal_neighbours(1.0 - third).size, k)
            del third
        new_x, new_F, was = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
        left, right, rise = new_x[:n], new_x[n + m:], new_F[n + m:]
        np.divide(x, 3.0, out=left)
        new_x[n:n + m] = plateau
        np.subtract(1.0, left[::-1], out=right)
        np.multiply(F, v, out=new_F[:n])
        new_F[n:n + m] = v
        np.multiply(F[::-1], p * v, out=rise)
        np.subtract(1.0, rise, out=rise)
        was[:n] = was_left
        was[n:n + m] = True
        was[n + m:] = was_right[::-1]
        # a run keeps its first x/3 and its last 1 - x/3, the least x either
        # way, marked if any point of the run is marked
        drop_left = _equal_neighbours(left) + 1
        drop_right = _equal_neighbours(right) + (n + m)
        _fold_runs(was, drop_left, -1)
        _fold_runs(was, drop_right, 1)
        was[drop_right] = False
        # where 1 - x/3 is already in S, S's height stays: the marked points
        # of the right part are S's points at or above 1 - fl(1/3), in order
        old = was[n + m:]
        rise[old] = F[n - np.count_nonzero(old):]
        x, F, was = _drop(drop_left, drop_right, new_x, new_F, was)
        was_left = was_right = was
    return PointCloud(x=x, F=F, p=p, iterations=iterations, n_initial=n_initial)


def _equal_neighbours(values: np.ndarray) -> np.ndarray:
    """The positions i with values[i] == values[i + 1]."""
    return np.flatnonzero(values[1:] == values[:-1])


def _fold_runs(flags: np.ndarray, drop: np.ndarray, step: int) -> None:
    """OR the flag of each dropped point into its run's kept point, `step`
    (-1 or 1) past the run's dropped points.  Runs are rare, a handful
    per iteration, so this loops."""
    for i in drop[::step].tolist():
        flags[i + step] |= flags[i]


def _drop(front: np.ndarray, back: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Remove sorted positions from equal-length 1-D arrays in place: those
    in `front` by moving the stretches before them up, those in `back` by
    moving the stretches after them down, so that only the points between
    a position and its end of the arrays move.  Returns views of the rest."""
    size = arrays[0].size
    front, back = front.tolist(), back.tolist()
    tops = front[::-1] + [-1]
    for shift, (end, start) in enumerate(zip(tops, tops[1:]), start=1):
        for arr in arrays:
            arr[start + 1 + shift:end + shift] = arr[start + 1:end]
    ends = back + [size]
    for shift, (start, end) in enumerate(zip(ends, ends[1:]), start=1):
        for arr in arrays:
            arr[start + 1 - shift:end - shift] = arr[start + 1:end]
    return [arr[len(front):size - len(back)] for arr in arrays]


def gap_intervals(max_level: int) -> list[tuple[float, float]]:
    """Open middle-third gaps of the Cantor construction up to a level.

    Level 1 is (1/3, 2/3); level k+1 maps each level-k gap (a, b) to
    (a/3, b/3) and ((2+a)/3, (2+b)/3).  Returns all gaps of level
    <= max_level, sorted, as machine floats.
    """
    max_level = _integer("max_level", max_level)
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
    `verify_uniqueness`, the pricing check and `plot-data --what mrl`
    evaluate.  Built once per grid size, so the array is read-only.
    grid_n = 0 gives the gap endpoints alone.
    """
    grid_n = _integer("grid_n", grid_n)
    if grid_n < 0:
        raise ParameterError(f"grid_n must be >= 0, got {grid_n}")
    xs = np.unique(np.concatenate((np.linspace(0.0, 1.0, grid_n),
                                   np.ravel(gap_intervals(GAP_LEVEL)))))
    xs.flags.writeable = False
    return xs
