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
it carries F and its integral J (module `integration`) along one path or,
in tail mode, the right-tail quantities S/p and K/p, S = 1 - F and
K(x) = int_x^1 S, and every evaluated quantity of the package is a
formula over it.

The walk is exact.  It carries the point as an integer ratio, n/d in the
scalar loop and M = y 2^63 in the numpy loop, so the steps y -> 3y,
y -> 3(1-y) and y -> 1-y never round, and every branch is the one the
double that the caller passed takes.  The first `_JUMP` levels have no
stop test, so a point's steps in them depend on its ternary cell
floor(3^_JUMP y) alone: one table of them for every p (`_head_table`)
makes a short input's head float updates alone, and a long input looks
its state after them up in a per-p table (`_jump_table`).  The numpy loop
carries only the rows its caller reads (F for `cdf_many`, J for
`cdf_integral_many` and the payoff, both for the MRL), with p's factors
from the cached record that the scalar loop reads (`_anchors`); a point's
kind of step is picked by integer division, not by selects.  Every input
ends each slice on the plateau in place after the head, and pools the
few the head leaves live across slices into one tail walk, so the deep,
nearly empty levels are paid once per call: in numpy while many points
are live, gathering the ended level by level, then in the scalar loop.
0 and 1 ride as placeholders on the plateau with a state that ends them
exactly; a point with no int64 numerator rides as one too, as does, in
tail mode, a point whose leading run outlasts the head, and the scalar
loop walks it.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .errors import DomainError, ParameterError, ResourceLimitError

ONE_THIRD = 1.0 / 3.0
TWO_THIRDS = 2.0 / 3.0


def _integer(name: str, value, least: int | None = None) -> int:
    """value as a Python int (a Python or numpy integer) of at least `least`;
    ParameterError for anything else, a float with an integral value included."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return value


def _positive_real(name: str, value) -> float:
    """value as a float if a real whose double is finite and positive;
    ParameterError otherwise, a real whose double is 0 or overflows included."""
    try:
        if isinstance(value, numbers.Real) and 0.0 < (rounded := float(value)) < math.inf:
            return rounded
    except (OverflowError, TypeError):  # np.timedelta64 is a numbers.Real that float() refuses
        pass
    raise ParameterError(f"{name} must be a finite positive real, got {value!r}")


@dataclass(frozen=True)
class PSingularParams:
    """Family parameter p > 0 (p = 1 is the classical Cantor distribution)."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _positive_real("family parameter p", self.p))

    @property
    def left_mass(self) -> float:
        return 1.0 / (self.p + 1.0)

    @property
    def right_mass(self) -> float:
        return self.p / (self.p + 1.0)


@dataclass(frozen=True)
class EvalConfig:
    """Absolute tolerance shared by all evaluators."""

    tolerance: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "tolerance", _positive_real("tolerance", self.tolerance))


DEFAULT_CONFIG = EvalConfig()

GAP_LEVEL = 8  # the deepest Cantor gaps whose rounded endpoints `gap_grid` adds

# points per slice of the vector descent: bounds its working set, and is
# large enough that per-iteration overhead stays amortised
_CHUNK = 16_384
# at most this many live points of a pool go to the scalar loop: on the
# package's own inputs it beats numpy at 30 or fewer, and loses at 58 or more
_FEW = 32
# The numerator M = y 2^63 of the descent's point y in [0, 1): the plateau
# [1/3, 2/3] is _LO <= M <= _HI (ceil(2^63/3) and floor(2^64/3)), the right
# step's fixed point 3/4 is _M34, and a step is M -> (M (+-3)) & _MASK.
_ONE = 1 << 63
_MASK = _ONE - 1
_LO, _HI = _ONE // 3 + 1, 2 * _ONE // 3
_M34 = 3 << 61
_SCALE = 2.0 ** -63
# by kind of step: left, plateau, right, and the tail walk's leading-run
# kinds run-left, reflect onto the plateau and reflect-then-left
_STEP_M = np.array([3, 1, -3, 3, -1, -3])
# levels walked without a stop test, which one lookup in `_jump_table`
# over the 3^_JUMP ternary cells replaces
_JUMP = 8
_CELLS = 3 ** _JUMP


def i1_closed_form(params: PSingularParams) -> float:
    """I1 = int_0^{1/3} F_p = (p+2) / (6 (p+1)(2p+1)), or (1+q) q / (6 (2-q))
    in q = 1/(p+1) where that product overflows (p > 3.87e153)."""
    p, q = params.p, params.left_mass
    den = 6.0 * (p + 1.0) * (2.0 * p + 1.0)
    return (p + 2.0) / den if den < math.inf else (1.0 + q) * q / (6.0 * (2.0 - q))


def mean(params: PSingularParams) -> float:
    """E[X_p] = 3p / (2 (2p+1)) = 1 - J(1); 1.5 (1-q) / (2-q) where 2p+1 overflows."""
    p, q = params.p, params.left_mass
    den = 2.0 * p + 1.0
    return 1.5 * p / den if den < math.inf else 1.5 * (1.0 - q) / (2.0 - q)


# p's constants of the walk: q, q/3, r, r/3, I1, the constant c = J(2/3) -
# 2/3 - p I1 of J's fused right step, F = 1 - r F = 1/(2-q) and J = c + 3/4
# + (r/3) J = (9/4) q / (4 - q^2) at 3/4, the right step's fixed point,
# J(1), E[X], the constant q/3 + J(2/3) = I1 + 2q/3 of K/p's run step, and
# views of one read-only table: `_advance`'s factors by kind of step (see
# `_STEP_M`), a column per kind, R and b_F's factor, then G, H, E, b_J's
# factor and B's divisor; and `_select`'s w_F, e_F, w_J, e_J by kind of end
_Anchors = namedtuple("_Anchors", "q shrink r r3 i1 c f34 j34 j1 e lead steps ends")


@functools.lru_cache(maxsize=64)
def _anchors(params: PSingularParams) -> _Anchors:
    p, q, r = params.p, params.left_mass, params.right_mass
    i1, e = i1_closed_form(params), mean(params)
    s, r3, f34 = q / 3.0, r / 3.0, 1.0 / (2.0 - q)
    c, lead = i1 + 1.0 / (3.0 * (p + 1.0)) - TWO_THIRDS - p * i1, i1 + 2.0 * q / 3.0
    table = np.array([0.0, 0.0, 1.0, q, 0.0, 0.0, q, 1.0, -r, q, 1.0, q,
                      0.0, 0.0, 1.0, -q, 0.0, 0.0, 0.0, 0.0, c, lead, 0.0, 0.0,
                      0.0, 0.0, 1.0, 0.0, 1.0, 1.0, s, 1.0, r3, s, 1.0, s,
                      3.0, 1.0, -3.0, 3.0, -1.0, -3.0,
                      0.5, q, f34, 0.5, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.0, 0.0])
    table.flags.writeable = False
    return _Anchors(q=q, shrink=s, r=r, r3=r3, i1=i1, c=c, f34=f34, j34=2.25 * q / (4.0 - q * q), j1=1.0 - e,
                    e=e, lead=lead, steps=table[:42].reshape(7, 6), ends=table[42:].reshape(4, 3))


def _check_unit_interval(x) -> float:
    try:
        if 0.0 <= x <= 1.0 and not isinstance(x, np.complexfloating):  # numpy orders these
            return float(x)
    except (TypeError, ValueError, InvalidOperation):  # a str, None, a complex, an array, a Decimal NaN
        pass
    raise DomainError(f"x must lie in [0, 1], got {x!r}")


def _points(xs) -> np.ndarray:
    """xs as a float array; DomainError for str, bytes, complex, timedelta64
    and datetime64 input or elements, which are no points of [0, 1] (numpy
    would parse a str and count the ticks of a time; it registers
    np.timedelta64 as a numbers.Real), for a ragged list, and for an exact
    real outside [0, 1], which may round into it, in an object or
    long-double array, as `_check_unit_interval` checks a scalar."""
    try:
        xs = np.asarray(xs)
        kind = xs.dtype.kind
        if not (kind in "SUcmM" or (kind == "O" and not all(
                isinstance(x, (numbers.Real, Decimal)) and not isinstance(x, np.timedelta64) for x in xs.flat))):
            if (kind == "O" or xs.dtype.itemsize > 8) and not ((xs >= 0) & (xs <= 1)).all():
                raise ValueError
            return xs.astype(float, copy=False)
    # a ragged list, a real past the doubles or an exact one outside [0, 1], a Decimal NaN
    except (OverflowError, ValueError, InvalidOperation):
        raise DomainError("evaluation points must be an array of reals in [0, 1]") from None
    raise DomainError(f"evaluation points must be real numbers, got {xs.dtype} input")


def _descend(params: PSingularParams, x: float, tol: float, reads: str = "FJ",
             tail: bool = False) -> tuple[float, float, float, float]:
    """F(x) and J(x) from one walk down the ternary structure or, in `tail`
    mode, S'(x) = S(x)/p and K'(x) = K(x)/p, S = 1 - F and K(x) = int_x^1 S.

    Returns (F, F's error bound, J, J's error bound).  The walk carries
    its point y as n/d exactly, (n, d) = x.as_integer_ratio(), so 1 - y,
    3y and 3(1-y) are integer steps that never round.  F and J are carried
    as affine accumulators, F(x) = a_F + b_F F(y) and J(x) = a_J + b_J J(y).
    A left step (y < 1/3) scales b_F by q = 1/(p+1) and b_J by q/3.  A
    right step (y > 2/3) is F's y -> 3(1-y); for J it is the reflection
    y -> 1-y followed by its forced left step, which together add
    b_J (J(2/3) - 2/3 - p I1 + y) = b_J (c + y) to a_J and scale b_J by
    r/3.  a_J is carried as A + B y in the current y, so that every
    accumulator is a constant of the path: a left step is B /= 3, a right
    step t = B + b_J, A = (A + b_J c) + t, B = -t/3.  J reads y only at
    the end, as the double nearest n/d.

    A tail walk starts in its leading run, y < 1/3, where S'(y) =
    q + q S'(3y) and K'(y) = (q/3 + J(2/3)) - q y + (q/3) K'(3y), so a
    run-left step adds b_F q to a_F, b_J (q/3 + J(2/3)) to A and -q b_J to
    B before a left step: sums of positive terms, which do not cancel as
    1 - F does.  Its first y >= 1/3 (x > ONE_THIRD, as fl(1/3) < 1/3)
    reflects into F's walk, S'(y) = F(1-y) and K'(y) = J(1-y): A += B,
    B = -B and y -> 1-y, within the level of the left step that follows
    where 1 - y < 1/3.  x = 0 ends on entry with S' = 1 and K' = E[X],
    unscaled (1/p can overflow), x = 1 with S' = K' = 0, as F's walk ends
    both.

    The walk ends exactly on the plateau or at 3/4, the right step's
    fixed point (F and J there from `_anchors`); otherwise the residuals
    F(y) in [0, 1] and J(y) in [0, y] bound the error, and it stops once
    one bracket is <= 2 tol (times F's running midpoint in the MRL's walk,
    the tail walk that reads "FJ"): b_J y where the caller `reads` J
    alone, else |b_F|.  A step scales b_J y by at most b_F's factor (a
    reflect-then-left by half of it), so b_J y <= |b_F| and F's test
    covers J.  The first `_JUMP` levels, the head, end only on the
    plateau, so that they depend on y's ternary cell alone and
    `_jump_table` can tabulate them; neither bracket grows, so leaving
    them untested only tightens the bound.

    Every walk ends, for any p and tol > 0.  No step leaves (0, d).  A
    right step sends 3d/4 + e to 3d/4 - 3e, and y stays in (2/3, 1) only
    while |e| < d/4, so off 3/4 (|e| >= 1) a run of right steps lasts
    fewer than log_3(d/4) levels; a right step leaves n >= 3, so a run of
    left steps after it lasts fewer than log_3(d/9), and the first run of
    left steps (a leading run among them) at most 677 levels from
    x >= 2^-1074.  With d <= 2^63, as for every double >= 2^-11, each
    later run lasts fewer than 40 levels (678 for any double), so every 80
    levels then hold a step of each kind and shrink |b_F| by q r <= 1/4,
    until it is <= 2 tol or 0 (min(q, r) <= 1/2 rounds the least subnormal
    to 0), where every test passes: b_J y <= |b_F|, and a_F >= 0 for the
    relative one.
    """
    k = _anchors(params)
    n, d = x.as_integer_ratio()
    if n == 0:
        return (1.0, 0.0, k.e, 0.0) if tail else (0.0, 0.0, 0.0, 0.0)
    if n == d:
        return (0.0, 0.0, 0.0, 0.0) if tail else (1.0, 0.0, k.j1, 0.0)
    af, bf, a, b, bj = 0.0, 1.0, 0.0, 0.0, 1.0
    level = 0
    if tail:
        while 3 * n <= d:  # y < 1/3
            af += bf * k.q
            bf *= k.q
            a += bj * k.lead
            b = (b - bj * k.q) / 3.0
            bj *= k.shrink
            n *= 3
            level += 1
        a += b
        b = -b
        n = d - n
    return _walk_from(n, d, af, bf, a, b, bj, level, k, 2.0 * tol, *_stop_test(reads, tail))


def _stop_test(reads: str, tail: bool) -> tuple[bool, bool]:
    """Which bracket `_descend`'s stop test reads, (J's, relative): J's where
    `reads` is "J", else F's, relative in the MRL's walk (tail, "FJ")."""
    return reads == "J", tail and reads == "FJ"


def _walk_from(n: int, d: int, af: float, bf: float, a: float, b: float, bj: float, level: int,
               k: _Anchors, lim: float, j_test: bool, relative: bool) -> tuple[float, ...]:
    """`_descend`'s walk in F's steps, from y = n/d, 0 < n < d, and its state
    at `level` to its end, with p's `_anchors` k, the limit 2 tol of its
    stop test and that test's `_stop_test` flags."""
    q, shrink, r, r3, c = k.q, k.shrink, k.r, k.r3, k.c
    lo, hi, m34 = d // 3 + 1, 2 * d // 3, 3 * d // 4
    while not lo <= n <= hi:
        if level >= _JUMP and (n == m34 or (bj * (n / d) if j_test else abs(bf)) <= (
                lim * (af + 0.5 * bf) if relative else lim)):
            break
        if n < lo:
            bf *= q
            bj *= shrink
            b /= 3.0
            n *= 3
        else:
            af += bf
            bf *= -r
            t = b + bj
            a = (a + bj * c) + t
            b = t / -3.0
            bj *= r3
            n = 3 * (d - n)
        level += 1
    y = n / d
    aj = a + b * y
    if lo <= n <= hi:
        return af + bf * q, 0.0, aj + bj * (k.i1 + (y - ONE_THIRD) * q), 0.0
    if n == m34:
        return af + bf * k.f34, 0.0, aj + bj * k.j34, 0.0
    half = 0.5 * bj * y
    return af + 0.5 * bf, 0.5 * abs(bf), aj + half, half


def _descend_many(params: PSingularParams, xs, tol: float, reads: str = "FJ",
                  tail: bool = False):
    """Vector twin of `_descend`, with its arguments and equal to it bit for
    bit at every point.

    Rejects any point outside [0, 1], NaN included, then yields groups
    (positions, F, F bounds, J, J bounds) of the flattened `xs`, positions
    a slice or an index array, which a caller writes in order with
    out[positions] = values: they cover every position, and the later of
    two groups holds its value; a group whose points all end on the
    plateau has the float 0.0 for both bounds, which that write
    broadcasts.  `reads` names the quantities the caller reads, "F", "J"
    or "FJ" (S' and K' with `tail`), and picks the stop test as in
    `_descend`; the walk carries only those quantities, and yields None
    for a quantity it did not carry.

    The input is cut into `_CHUNK`-point slices.  A slice looks the state
    after the head of its points up in the columns of `_jump_table`, built
    once per p and mode, where the input is longer than one slice, and
    steps it by `_head` otherwise, as building the jump table would cost
    more than the walk.  It ends all its points on the plateau in place,
    in one group; the few its `_plan` lists live join a pool that
    `_descend_slice` walks through the remaining levels, in later groups,
    whenever it holds `_CHUNK` points and once more after the last slice,
    so the near-empty deep levels are paid about once per call and the
    working set stays a few slices wide.  0, 1 and the odd points ride as
    placeholders (`_plan`): 0 and 1 with a state that ends them exactly,
    the others to walk in `_descend`, in a group that comes later.  xs may
    be a read-only `_Plan` of one slice for `tail`, not checked again.
    """
    plan = xs if isinstance(xs, _Plan) else None
    xs = plan.x if plan else np.asarray(xs, dtype=float).ravel()
    n = xs.size
    if not n:
        return
    if not plan:  # a cached plan's points lie in [0, 1]
        top = xs.max()
        if not (xs.min() >= 0.0 and top <= 1.0):
            raise DomainError("all evaluation points must lie in [0, 1]")
    walk = _Walk(params, tol, reads, tail)
    table = _jump_table(params, tail)[walk.span] if n > _CHUNK else None
    pool, pooled = [], 0
    for start in range(0, n, _CHUNK):
        x, m, live, odd, ends, cell = plan or _plan(xs[start:start + _CHUNK], top == 1.0, tail)
        state = _head(walk, cell) if table is None else table.take(cell, axis=1, mode="clip")
        if ends.size:  # `one` at its end point, 0 at the other
            state[:, ends] = walk.one * (x.take(ends) != tail)
        if live.size:
            pool.append((live + start, m.take(live), state.take(live, axis=1)))
            pooled += live.size
        # every point as if on the plateau, `_select`'s kind 1
        yield _select(walk, slice(start, start + m.size), m, state, 1)
        if odd.size:
            yield walk.group(odd + start, [_descend(params, v, tol, reads, tail) for v in x[odd].tolist()])
        if pooled >= _CHUNK or (pooled and start + _CHUNK >= n):
            parts = pool[0] if len(pool) == 1 else [np.concatenate(part, axis=-1)
                                                    for part in zip(*pool)]
            pool, pooled = [], 0
            yield from _descend_slice(walk, *parts)


# the start of a slice's walk that p does not change (`_plan`)
_Plan = namedtuple("_Plan", "x m live odd ends cell")


def _plan(x: np.ndarray, ones: bool, tail: bool) -> _Plan:
    """The slice x's `_Plan` in F's walk or the tail walk: x, its
    numerators after the head, the positions of the points still live
    there, of the odd points, which `_descend` walks (the doubles below
    2^-11 not multiples of 2^-63 and, in tail mode, the points of the
    ternary cell 0), and of 0 and 1 (looked for only with `ones`), and
    each point's cell.  The odd points, 0 and 1 sit on the plateau at `_LO`."""
    scaled = x * 2.0 ** 63
    if ones:
        scaled[x == 1.0] = 0.0  # 2^63 has no int64; M = 0 marks it
    m = scaled.astype(np.int64)
    odd = ends = np.flatnonzero(m < 1 << 52)
    if odd.size:  # with, in tail mode, the numerators of the cell 0
        s, small = scaled.take(odd), m.take(odd)
        ends = odd[s == 0.0]
        odd = odd[(small != s) | tail & (small > 0) & (small <= _ONE // _CELLS)]
    m[odd] = m[ends] = _LO
    # the cell floor(3^_JUMP M / 2^63), exact: with M = 2^32 h + l, it is
    # (3^_JUMP h + (3^_JUMP l >> 32)) >> 31, and no product reaches 2^63
    cell = ((m >> 32) * _CELLS + (((m & 0xFFFFFFFF) * _CELLS) >> 32)) >> 31
    mult = _head_table(tail)[1].take(cell)
    m *= mult
    m &= _MASK
    return _Plan(x, m, np.flatnonzero(np.abs(mult) == _CELLS), odd, ends, cell)


class _Walk:
    """One call's vector descent, from `_descend_many`'s arguments: its
    constants, its stop test and the rows of state it carries.

    A point carries its numerator M = y 2^63 as an int64 and one column of
    state: a_F and b_F where F is carried, then A, B and b_J where J is,
    each where `reads` names it.  The stop test reads the bracket that
    `_stop_test` picks.  A step of each of `_STEP_M`'s six kinds takes its
    column of the `steps` of p's `_anchors`; the last three, a tail walk's
    leading run and its reflection, occur only in the head (`_plan` hands a
    point whose run outlasts the head to the scalar loop)."""

    def __init__(self, params: PSingularParams, tol: float, reads: str, tail: bool):
        self.tail, self.lim = tail, 2.0 * tol
        self.j_test, self.relative = _stop_test(reads, tail)
        k = self.anchors = _anchors(params)
        carry_f, carry_j = "F" in reads, "J" in reads
        # the row of a_F and of A, None where not carried, the rows' span
        # among a_F, b_F, A, B and b_J, and their values at a walk's start
        self.f = 0 if carry_f else None
        self.j = 2 * carry_f if carry_j else None
        self.span = slice(0 if carry_f else 2, 5 if carry_j else 2)
        self.origin = np.array([0.0, 1.0] * carry_f + [0.0, 0.0, 1.0] * carry_j)[:, None]
        # and those that end 1 exactly, or 0 in tail mode: zero b_F, B and b_J keep `_select` exact
        self.one = np.array([1.0, 0.0] * carry_f + [k.e if tail else k.j1, 0.0, 0.0] * carry_j)[:, None]

    def group(self, at: np.ndarray, values: list) -> tuple:
        """The group of the points at positions `at` from their values, one
        (F, F bound, J, J bound) each, None for a quantity not carried."""
        f, f_bound, j, j_bound = np.array(values).T
        return (at, *((f, f_bound) if self.f is not None else (None, None)),
                *((j, j_bound) if self.j is not None else (None, None)))


def _kinds(m: np.ndarray) -> np.ndarray:
    """The kind of step at each numerator 0 <= M < 2^63: 0 left (M < _LO),
    1 on the plateau, 2 right (M > _HI).  That is M // _LO, since
    2 _LO = _HI + 1 and 3 _LO > 2^63, and numpy divides an array by a
    scalar with a multiply and a shift."""
    return m // _LO


def _goes_on(walk: _Walk, m: np.ndarray, state: np.ndarray):
    """Each point's kind of step, and whether it steps on: off the plateau
    and 3/4 and outside its stop test, which compares the chosen bracket
    with its limit, times F's midpoint where the test is relative."""
    f, kind = walk.f, _kinds(m)
    width = state[walk.j + 2] * (m * _SCALE) if walk.j_test else np.abs(state[f + 1])
    lim = (state[f] + 0.5 * state[f + 1]) * walk.lim if walk.relative else walk.lim
    return kind, (kind != 1) > ((width <= lim) | (m == _M34))  # and not ended, in one pass


def _advance(walk: _Walk, state: np.ndarray, factors: np.ndarray) -> None:
    """The float part of a block of steps of every point, in place:
    `_descend`'s operations in its order, with each point's column of
    `_anchors`' steps in `factors`, shaped (7, levels, points): a_F += b_F R,
    t = B + b_J G, A += b_J H, A += t E and B = t / divisor; a zero factor
    and a zero term are exact no-ops.  F's rows never read J's, so they
    take all the levels before J's rows do."""
    r_f, step_f, g, h, e, step_j, div = factors
    levels = range(len(r_f))
    if walk.f is not None:
        af, bf = state[walk.f], state[walk.f + 1]
        for i in levels:
            af += bf * r_f[i]
            bf *= step_f[i]
    if walk.j is not None:
        a, b, bj = state[walk.j], state[walk.j + 1], state[walk.j + 2]
        for i in levels:
            t = bj * g[i]
            t += b
            a += bj * h[i]
            a += t * e[i]
            np.divide(t, div[i], out=b)
            bj *= step_j[i]


def _step(walk: _Walk, m: np.ndarray, state: np.ndarray, kind: np.ndarray) -> None:
    """One step of every point, in place, by kind (0 left, 1 on the
    plateau, 2 right): `_advance` of one level, numerators times 3, 1 or -3."""
    _advance(walk, state, walk.anchors.steps.take(kind[None], axis=1))
    m *= _STEP_M.take(kind)
    m &= _MASK


@functools.lru_cache(maxsize=2)
def _head_table(tail: bool) -> tuple[np.ndarray, np.ndarray]:
    """The head (see `_descend`) of every ternary cell at any p, in F's
    walk or the tail walk (run-left steps until the first reflection), from
    the cell's centre, which every point of the cell follows (cell edges
    k 2^63 / 3^_JUMP are not integers): (its kind of step, a row per level,
    and the multiplier +-3^e of its numerators, e the count of its steps
    that triple them, `_JUMP` where the cell is live after the head).
    Built on first use, read-only."""
    m = ((np.arange(_CELLS) + 0.5) * (2.0 ** 63 / _CELLS)).astype(np.int64)
    kinds, mult = np.empty((_JUMP, _CELLS), dtype=np.int8), np.ones(_CELLS, dtype=np.int64)
    run = np.full(_CELLS, 3 * tail)  # 3 while in the leading run, else 0
    for level in kinds:
        level[:] = _kinds(m) + run
        run[level != 3] = 0
        step = _STEP_M.take(level)
        mult *= step
        m *= step
        m &= _MASK
    kinds.flags.writeable = mult.flags.writeable = False
    return kinds, mult


def _head(walk: _Walk, cell: np.ndarray) -> np.ndarray:
    """The state after the head of points in the ternary cells `cell`, from
    the start of a walk, by one `_advance` over the `_JUMP` levels, with
    the factors of their cells' kinds of step in `_head_table`."""
    factors = walk.anchors.steps.take(_head_table(walk.tail)[0].take(cell, axis=1), axis=1)
    state = np.repeat(walk.origin, cell.size, axis=1)
    _advance(walk, state, factors)
    return state


@functools.lru_cache(maxsize=8)
def _jump_table(params: PSingularParams, tail: bool) -> np.ndarray:
    """The head at p of every ternary cell, in F's walk or the tail walk,
    from `_head`: the state rows a_F, b_F, A, B and b_J after it, a column
    per cell, which `_descend_many` looks up for an input longer than one
    slice.  About 260 kB, built once per p and mode, read-only."""
    walk = _Walk(params, 1.0, "FJ", tail)
    state = _head(walk, np.arange(_CELLS))
    state.flags.writeable = False
    return state


def _descend_slice(walk: _Walk, idx: np.ndarray, m: np.ndarray, state: np.ndarray):
    """Walk the points with positions `idx`, numerators `m` and state
    columns `state`, past their head, until every one has ended, and yield
    their groups (positions, F, F bounds, J, J bounds), None for a quantity
    not carried.  While more than `_FEW` points are live, each level sets
    aside the points that end there (`_goes_on`) and compacts the rest
    with `take`; one select over all levels' ended points by kind (an
    exact end wins over the stop test, as in `_descend`) gives F, J and
    their bounds.  The scalar loop (`_walk_from`) walks the few still live
    from their state, in a group of its own: it costs less than numpy's
    calls per level on so few."""
    ended = []  # by level: where its ended points sit, their final numerators and state
    while m.size > _FEW:
        kind, go = _goes_on(walk, m, state)
        keep = np.flatnonzero(go)
        if keep.size < m.size:
            end = np.flatnonzero(~go)
            ended.append((idx.take(end), m.take(end), state.take(end, axis=1)))
            idx, m, kind, state = idx.take(keep), m.take(keep), kind.take(keep), state.take(keep, axis=1)
        if m.size > _FEW:  # else the scalar loop takes the step
            _step(walk, m, state, kind)
    if m.size:
        head = np.ones((5, m.size))  # a row not carried walks on 1.0, and is dropped
        head[walk.span] = state
        args = walk.anchors, walk.lim, walk.j_test, walk.relative
        yield walk.group(idx, [_walk_from(num, _ONE, *col, _JUMP, *args)
                               for num, col in zip(m.tolist(), head.T.tolist())])
    if ended:
        at, m, state = (np.concatenate(part, axis=-1) for part in zip(*ended))
        kind = ((m >= _LO) & (m <= _HI)) + 2 * (m == _M34)
        yield _select(walk, at, m, state, kind)


def _select(walk: _Walk, at: np.ndarray | slice, m: np.ndarray, ended: np.ndarray, kind):
    """The group (positions, F, F bounds, J, J bounds) of ended points, in
    place over their final state: positions `at` (a slice or an index
    array) and rows of `ended`.  Per kind of end (0 stopped, 1 on the
    plateau, 2 at 3/4) F = a_F + b_F w_F with bound |b_F| e_F, and
    J = (A + B y) + h with h = (b_J w_J) u and bound h e_J, where u is J's
    plateau term I1 + (y - 1/3) q on the plateau, J(3/4) at 3/4 and y
    elsewhere.  `kind` is an array, or the int 1 where every point ended on
    the plateau: then w_J = 1 and both bounds are the float 0.0, which the
    caller writes by broadcasting."""
    group = [at, None, None, None, None]
    plateau = not np.ndim(kind)
    w_f, e_f, w_j, e_j = walk.anchors.ends.take(kind, axis=1)
    if walk.f is not None:
        af, bf = ended[walk.f], ended[walk.f + 1]
        af += bf * w_f
        if plateau:
            bf = 0.0
        else:
            np.abs(bf, out=bf)
            bf *= e_f
        group[1:3] = af, bf
    if walk.j is not None:
        a, b, bj = ended[walk.j], ended[walk.j + 1], ended[walk.j + 2]
        y = m * _SCALE
        a += b * y
        u = walk.anchors.i1 + (y - ONE_THIRD) * walk.anchors.q
        if not plateau:
            np.copyto(u, y, where=kind == 0)
            np.copyto(u, walk.anchors.j34, where=kind == 2)
            bj *= w_j
        bj *= u
        a += bj
        group[3:] = a, 0.0 if plateau else bj * e_j
    return tuple(group)


def _many(params: PSingularParams, xs, tol: float, value, reads: str = "FJ",
          tail: bool = False) -> np.ndarray:
    """`_descend_many`'s F and J (with `tail`, S' and K') at each point,
    turned into values by value(x, F, J) for each group in its order, so
    that a later group's values hold; xs may be a `_Plan`, as there."""
    plan = xs if isinstance(xs, _Plan) else None
    xs = plan.x if plan else _points(xs)
    flat = xs.ravel()
    out = np.empty(flat.shape)
    for at, f, _, j, _ in _descend_many(params, plan or flat, tol, reads, tail):
        out[at] = value(flat[at], f, j)
    return out.reshape(xs.shape)


def cdf_with_bound(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """(F_p(x), achieved error bound) from one descent (see `_descend`): the
    bound is 0 where the walk ends exactly, else <= config.tolerance."""
    return _descend(params, _check_unit_interval(x), config.tolerance, "F")[:2]


def cdf(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F_p(x) with absolute error <= config.tolerance."""
    return cdf_with_bound(params, x, config)[0]


def cdf_many(params: PSingularParams, xs, config: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vectorized F_p over an array of points in [0, 1]."""
    return _many(params, xs, config.tolerance, lambda x, f, j: f, "F")


def survival(params: PSingularParams, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """1 - F_p(x), same absolute-tolerance contract as `cdf`: p S'(x) from
    the tail walk (see `_descend`) at min(tol, tol/p), which keeps full
    relative accuracy near both ends, where 1 - F(x) would cancel."""
    x, tol, p = _check_unit_interval(x), config.tolerance, params.p
    s = _descend(params, x, min(tol, tol / p), "F", tail=True)[0]
    return p * s if x else s  # S' = 1 at x = 0, unscaled


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's default generator for an integer seed >= 0; ParameterError
    otherwise."""
    return np.random.default_rng(_integer("seed", seed, 0))


# levels per word of `sample`'s alias table, whose 320 kB of maps stay in cache
_WORD_LEVELS = 12
# draws per block of `sample`: beside the result it holds about six 128 kB arrays
_SAMPLE_BLOCK = 16_384
# 3^-j by j, the a that `sample`'s leading run of j left steps leaves,
# correctly rounded (int / int is; np.power is not, first at j = 21) up to
# its first 0.0 (j = 679), which every longer run gives too
_LEAD = np.array([1 / 3 ** j for j in range(680)])
_LEAD.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _alias_table(params: PSingularParams) -> tuple[np.ndarray, ...]:
    """`sample`'s alias table over the 2^k words of k = `_WORD_LEVELS`
    levels at p, built once per p and read-only: the bound B_c of column c,
    then at index 2c (word c) and 2c + 1 (its alias) the maps OA, OS, AW,
    SW and LAST.  Bit j of word w is level j + 1, 1 for a right step.  The
    word has probability q^#left r^#right and sends (a, s) to
    (a + s a_w, s s_w): a_w = sum over its right steps i of the product of
    the earlier levels' factors (+1/3 left, -1/3 right), an integer over
    3^(k-1), and s_w = +-3^-k.  OA = 1 - a_w/3 and OS = -s_w/3 serve the
    word after the lead, AW = a_w and SW = s_w the next, LAST = a_w + s_w/2
    the last, each one correctly rounded division.  Vose's construction
    (Vose 1991, IEEE TSE) makes column c word c with probability P_c and a
    column it leaves over its own alias; a raw output u in column u >> 52
    takes the alias where u >= B_c = c 2^52 + ceil(P_c 2^52) (<= 2^64 - 1).
    """
    k, size = _WORD_LEVELS, 1 << _WORD_LEVELS
    words = np.arange(size)
    bits = words[:, None] >> np.arange(k) & 1
    rights = bits.sum(axis=1)
    numerator = (bits * (-1) ** (bits.cumsum(axis=1) - bits) * 3 ** np.arange(k - 1, -1, -1)).sum(axis=1)
    prob = (params.left_mass ** (k - rights) * params.right_mass ** rights * size).tolist()
    alias = list(range(size))
    small = [i for i, v in enumerate(prob) if v < 1.0]
    large = [i for i, v in enumerate(prob) if v >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        alias[lo] = hi
        prob[hi] = (prob[hi] + prob[lo]) - 1.0
        (small if prob[hi] < 1.0 else large).append(hi)
    column = words.astype(np.uint64) << np.uint64(52)  # c 2^52; ~column caps B_c at 2^64 - 1
    bound = column + np.minimum(np.ceil(np.minimum(prob, 1.0) * 2.0 ** 52).astype(np.uint64), ~column)
    pair = np.stack((words, alias), axis=1).ravel()
    n, sign, third = numerator.take(pair), ((-1.0) ** rights).take(pair), 3.0 ** k
    table = (bound, (third - n) / third, -sign / (3.0 * third), 3.0 * n / third, sign / third,
             (6.0 * n + sign) / (2.0 * third))
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
    depends on a, so the run of j left steps before the first right one is
    geometric, P(j >= k) = q^k, drawn by inversion (Devroye 1986, ch. 2) as
    j = floor(log1p(-U) / log q), log q clamped to -1e-300 (no j moves, as a
    nonzero U has |log1p(-U)| >= 1.1e-16): a = 3^-j from `_LEAD`, s = -a/3.
    Three i.i.d. words of `_WORD_LEVELS` levels from `_alias_table`
    (Walker's alias method) follow, X = a (OA + OS (AW + SW LAST)): X is in
    [2a/3, a] and |s| shrinks by 3 a level, so 36 levels pin X to half an
    ulp (33 is the least, 3^33 >= 2^52).  Each draw of a `_SAMPLE_BLOCK`
    block reads 4 raw 64-bit outputs u: U = (u >> 11) 2^-53, numpy's own
    double, and three words' columns u >> 52 and 52-bit coins.
    """
    n = _integer("n", n, 1)
    raw_draws = seeded_rng(rng_seed).bit_generator.random_raw
    bound, oa, os_, aw, sw, last = _alias_table(params)
    log_q = min(-math.log1p(params.p), -1e-300)
    out, work = np.empty(n), np.empty((2, min(n, _SAMPLE_BLOCK)))
    for start in range(0, n, _SAMPLE_BLOCK):
        m = min(_SAMPLE_BLOCK, n - start)
        raw = raw_draws(4 * m).reshape(4, m)
        c, t, x = work[0, :m].view(np.int64), work[1, :m], out[start:start + m]
        cu = c.view(np.uint64)
        for word in raw[1:]:  # in place to its table index 2c + (u >= B_c)
            np.right_shift(word, 52, out=cu)
            np.greater_equal(word, bound.take(c, out=t.view(np.uint64), mode="clip"), out=word)
            cu <<= 1
            word += cu
        np.right_shift(raw[0], 11, out=cu)
        np.log1p(np.multiply(c, -2.0 ** -53, out=t), out=t)  # log1p(-U)
        t /= log_q
        np.copyto(c, np.minimum(t, _LEAD.size - 1, out=t), casting="unsafe")  # j, clipped
        first, middle, inner = raw[1:].view(np.int64)
        last.take(inner, out=x, mode="clip")  # every index is in range: "clip" skips a checked copy
        x *= sw.take(middle, out=t, mode="clip")
        x += aw.take(middle, out=t, mode="clip")
        x *= os_.take(first, out=t, mode="clip")
        x += oa.take(first, out=t, mode="clip")
        x *= _LEAD.take(c, out=t, mode="clip")
        del raw, word, first, middle, inner  # this block's raw outputs, before the next block's
    return out


@dataclass(frozen=True)
class PointCloud:
    """(x, F) pairs of the shrink-flip iteration, x strictly increasing: F is
    F_p at the construction's real points, exactly F at the plateau's doubles,
    within 1e-10 of F at the cloud's doubles for p >= 1, and for p < 1 up to
    3.6e-4 off (p = 0.1) where an image's double rounds off its sub-plateau."""

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

    Initialization: n_initial evenly spaced points on the plateau, from its
    least double 1 - fl(2/3) to fl(2/3), at height 1/(p+1) exactly, plus
    (0,0) and (1,1).  Each iteration keeps 0 and 1 and maps the interior I
    to I/3, the plateau and 1 - I/3 reversed, at heights F/(p+1), 1/(p+1)
    and 1 - p F/(p+1).  In the reals this is the whole cloud's image, as 0
    and 1 map to 0, 1/3, 2/3 and 1, so after k iterations the cloud has
    n_initial (2^(k+1) - 1) + 2 points.  x strictly increases with no sort
    or cut: I/3 lies at or below fl(1/3) and 1 - I/3 at or above
    1 - fl(1/3), off the plateau's doubles, and within a part real points
    lie 3^-k / (3 n_initial - 3) apart or more, each within 2^-51 of its
    double, so none meet while 3^iterations (n_initial - 1) < 2^49, as in
    any cloud under 10^9 points.

    x does not depend on p: `_cloud_plan` computes it once per shape
    (n_initial, iterations), read-only and shared by every call of the
    shape, and a call computes only F, its own.  At most two plans are
    cached, as a 5M-point x is 40 MB.  Each block of n_initial interior
    points lies on one sub-plateau: F is one height per block, built in
    its own buffer and written once.  `point_cloud(P, 1000, 10)` takes
    0.84-1.8 ms on a cached plan (least of 15 warm calls at p = 0.01, 1
    and 100, five processes, 2-vCPU Xeon), `tracemalloc` peak 1.001 F.

    Raises ResourceLimitError once a cloud (the initial one included) would
    exceed `max_points`, on its closed-form size, before anything is
    allocated.  n_initial, iterations and max_points must be integers,
    max_points >= 0.
    """
    n_initial = _integer("n_initial", n_initial, 2)
    iterations = _integer("iterations", iterations, 0)
    max_points = _integer("max_points", max_points, 0)
    for k in range(iterations + 1):
        size = n_initial * (2 ** (k + 1) - 1) + 2
        if size > max_points:
            raise ResourceLimitError(
                f"point cloud exceeded cap of {max_points} points "
                f"({size} after iteration {k} of {iterations})")
    x = _cloud_plan(n_initial, iterations)
    p, v = params.p, params.left_mass
    h = np.full(2 ** (iterations + 1) - 1, v)  # one height per block, the plateau's v
    for m in [2 ** k - 1 for k in range(1, iterations + 1)]:  # the interior's heights in h[:m]
        rise = np.multiply(h[m - 1::-1], p * v, out=h[m + 1:2 * m + 1])
        np.subtract(1.0, rise, out=rise)
        h[:m] *= v
    F = np.empty(x.size)
    F[0], F[-1] = 0.0, 1.0
    F[1:-1].reshape(h.size, n_initial)[:] = h[:, None]
    return PointCloud(x=x, F=F, p=p, iterations=iterations, n_initial=n_initial)


@functools.lru_cache(maxsize=2)
def _cloud_plan(n_initial: int, iterations: int) -> np.ndarray:
    """The p-independent half of `point_cloud`: the last cloud's x, read-only.
    Each iteration writes 0, I/3, the plateau, 1 - I/3 reversed and 1 into
    a fresh array, which is the next cloud as it stands."""
    plateau = np.linspace(1.0 - TWO_THIRDS, TWO_THIRDS, n_initial)
    x = np.concatenate(([0.0], plateau, [1.0]))
    for _ in range(iterations):
        n = x.size - 2
        xs = np.empty(2 * n + n_initial + 2)
        xs[0], xs[-1] = 0.0, 1.0
        np.divide(x[1:-1], 3.0, out=xs[1:n + 1])
        xs[n + 1:-n - 1] = plateau
        np.subtract(1.0, np.divide(x[-2:0:-1], 3.0, out=xs[-n - 1:-1]), out=xs[-n - 1:-1])
        x = xs
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=4)
def _curve_plan(n: int) -> _Plan:
    """The tail walk's `_Plan` of linspace(0, 1, n), n <= `_CHUNK`, the
    payoff curve's grid: built once per size, so its arrays are read-only."""
    plan = _plan(np.linspace(0.0, 1.0, n), True, True)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def gap_intervals(max_level: int) -> list[tuple[float, float]]:
    """Open middle-third gaps of the Cantor construction up to a level.

    Level 1 is (1/3, 2/3); level k+1 maps each level-k gap (a, b) to
    (a/3, b/3) and ((2+a)/3, (2+b)/3).  Returns all gaps of level
    <= max_level, sorted, as machine floats.
    """
    max_level = _integer("max_level", max_level, 1)
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
    grid_n = _integer("grid_n", grid_n, 0)
    xs = np.unique(np.concatenate((np.linspace(0.0, 1.0, grid_n),
                                   np.ravel(gap_intervals(GAP_LEVEL)))))
    xs.flags.writeable = False
    return xs
