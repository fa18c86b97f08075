"""Exact oracle for F_p, J_p and the mean residual life m_p.

Every double is a dyadic rational N / 2^E, so the ternary descent can walk
the exact path of the value the caller passed: y -> 3y and y -> 1 - y are
integer steps on N with E fixed, and never round.  The affine accumulators
are kept as `fractions.Fraction`, with p taken as the exact value of its
double.  A point whose path revisits a state (a rational in the Cantor set,
such as 1/4) is solved exactly from the cycle; a path that neither
terminates nor cycles within `max_levels` returns the exact bracket that
still contains the answer.

All results are closed intervals [lo, hi] of Fractions; lo == hi when the
value is exact.
"""

from __future__ import annotations

from fractions import Fraction

MAX_LEVELS = 4000


class Family:
    """Exact constants of the family for one p (the double's exact value)."""

    def __init__(self, p: float):
        self.p = Fraction(p)
        p = self.p
        self.q = 1 / (p + 1)
        self.r = p / (p + 1)
        self.shrink = 1 / (3 * (p + 1))
        self.i1 = (p + 2) / (6 * (p + 1) * (2 * p + 1))
        self.j23 = self.i1 + 1 / (3 * (p + 1))
        self.mean = 3 * p / (2 * (2 * p + 1))
        self.j1 = 1 - self.mean


def _ratio(x) -> tuple[int, int]:
    num, den = Fraction(x).as_integer_ratio()
    if not (0 <= num <= den):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    return num, den


def cdf(fam: Family, x, max_levels: int = MAX_LEVELS) -> tuple[Fraction, Fraction]:
    """Interval containing F_p(x): F(x) = a + b F(y) along the exact path."""
    n, d = _ratio(x)
    a, b = Fraction(0), Fraction(1)
    seen = {}
    for _ in range(max_levels):
        if n == 0:
            return a, a
        if n == d:
            return a + b, a + b
        if d <= 3 * n <= 2 * d:
            v = a + b * fam.q
            return v, v
        if n in seen:
            # F(y) = a0 + b0 F(y') = a + b F(y') with y' = y: solve for F(y')
            a0, b0 = seen[n]
            fy = (a - a0) / (b0 - b)
            v = a0 + b0 * fy
            return v, v
        seen[n] = (a, b)
        if 3 * n < d:
            b *= fam.q
            n *= 3
        else:
            a += b
            b *= -fam.r
            n = 3 * (d - n)
    return min(a, a + b), max(a, a + b)


def cdf_integral(fam: Family, x, max_levels: int = MAX_LEVELS) -> tuple[Fraction, Fraction]:
    """Interval containing J_p(x) = int_0^x F_p: J(x) = c + g J(y)."""
    n, d = _ratio(x)
    c, g = Fraction(0), Fraction(1)
    seen = {}
    for _ in range(max_levels):
        if n == 0:
            return c, c
        if n == d:
            v = c + g * fam.j1
            return v, v
        if d <= 3 * n <= 2 * d:
            v = c + g * (fam.i1 + (Fraction(n, d) - Fraction(1, 3)) * fam.q)
            return v, v
        if n in seen:
            c0, g0 = seen[n]
            jy = (c - c0) / (g0 - g)
            v = c0 + g0 * jy
            return v, v
        seen[n] = (c, g)
        if 3 * n < d:
            g *= fam.shrink
            n *= 3
        else:
            y = Fraction(n, d)
            c += g * (fam.j23 + (y - Fraction(2, 3)) - fam.p * fam.i1)
            g *= fam.p
            n = d - n
    # the residual J(y) lies in [0, y]
    return c, c + g * Fraction(n, d)


def mrl(fam: Family, x, max_levels: int = MAX_LEVELS) -> tuple[Fraction, Fraction]:
    """Interval containing m_p(x) = E(X - x | X > x).

    For x >= 1/3 this is J(1-x)/F(1-x) at the exact 1 - x (from
    1 - F(u) = p F(1-u) on [1/3, 1]); below 1/3 the direct form
    ((1-x) - (J(1) - J(x))) / (1 - F(x)).
    """
    x = Fraction(x)
    if x == 1:
        return Fraction(0), Fraction(0)
    if x >= Fraction(1, 3):
        z = 1 - x
        num_lo, num_hi = cdf_integral(fam, z, max_levels)
        den_lo, den_hi = cdf(fam, z, max_levels)
        if den_lo <= 0:
            return Fraction(0), 1 - x
        return num_lo / den_hi, num_hi / den_lo
    j_lo, j_hi = cdf_integral(fam, x, max_levels)
    f_lo, f_hi = cdf(fam, x, max_levels)
    base = (1 - x) - fam.j1
    return (base + j_lo) / (1 - f_lo), (base + j_hi) / (1 - f_hi)


_ONE_THIRD, _TWO_THIRDS = 1.0 / 3.0, 2.0 / 3.0


def _float_step(y: float) -> tuple[str, float]:
    # one step of a double-precision descent, against the rounded 1/3 and 2/3
    if y <= 0.0:
        return "zero", y
    if y >= 1.0:
        return "one", y
    if _ONE_THIRD <= y <= _TWO_THIRDS:
        return "plateau", y
    if y < _ONE_THIRD:
        return "left", 3.0 * y
    return "right", 3.0 * (1.0 - y)


def _exact_step(n: int, d: int) -> tuple[str, int]:
    if n == 0:
        return "zero", n
    if n == d:
        return "one", n
    if d <= 3 * n <= 2 * d:
        return "plateau", n
    if 3 * n < d:
        return "left", 3 * n
    return "right", 3 * (d - n)


def float_path_diverges(start: float, exact, max_levels: int = MAX_LEVELS) -> bool:
    """Whether a double-precision descent from `start` (y -> 3y and
    y -> 3(1 - y), each rounded) takes a different branch than the exact
    descent from `exact` before either terminates."""
    y = float(start)
    n, d = _ratio(exact)
    for _ in range(max_levels):
        (fb, y), (eb, n) = _float_step(y), _exact_step(n, d)
        if fb != eb:
            return True
        if fb in ("zero", "one", "plateau"):
            return False
    return False


def fixed_point(fam: Family) -> Fraction:
    """x* = 1/6 + (5p+4) / (12 (2p+1)): m is linear with slope -1 on [1/3, 2/3]."""
    p = fam.p
    return Fraction(1, 6) + (5 * p + 4) / (12 * (2 * p + 1))
