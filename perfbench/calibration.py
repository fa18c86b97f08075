"""Reference loops that measure how fast the shared machine runs right now.

Neither loop calls the library, and this module imports nothing of the
benchmark, so the set-up worker can time a loop without loading the rest.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Two reference loops, timed next to every operation to measure how fast
# the shared machine runs that kind of code right then.  Neither calls the
# library.  Each workload is scaled by the one whose work it resembles: a
# neighbour's load slows large-array numpy passes and small-call Python
# code by different amounts, and one loop could not track both.
_ARRAY_Y = np.random.default_rng(0).random(5000)
_SMALL_Y = np.random.default_rng(1).random(1500)
_SMALL_X = np.random.default_rng(2).random(100).tolist()


def array_reference() -> float:
    """Masked numpy updates on a 5,000-point array, like the vector descent,
    and an integer loop (grid-eval)."""
    y = _ARRAY_Y.copy()
    a = np.zeros_like(y)
    for _ in range(30):
        m = y < 0.5
        a[m] += 1.0
        y[m] *= 1.9
        y[~m] = 1.7 * (1.0 - y[~m])
    s = 0
    for i in range(15000):
        s += i * i
    return float(s) + float(a.sum())


def _scalar_descent(y: float) -> float:
    a, b = 0.0, 1.0
    for _ in range(200):
        if abs(b) <= 2e-10 or not 0.0 < y < 1.0:
            break
        if 1.0 / 3.0 <= y <= 2.0 / 3.0:
            return a + 0.5 * b
        if y < 1.0 / 3.0:
            b *= 0.5
            y *= 3.0
        else:
            a += b
            b *= -0.5
            y = 3.0 * (1.0 - y)
    return a + 0.5 * b


def small_call_reference() -> float:
    """Fraction arithmetic, many numpy calls on 1,500-point arrays, and a
    float loop in the interpreter, like the solvers (solve-price, set-up).
    In a test where a competing process slowed solve-price by 75%, scaling
    by an earlier, shorter version of this loop moved the figure by 4-8%;
    scaling by array_reference moved it by 20-35%."""
    total = 0.0
    for _ in range(4):
        level = [(Fraction(1, 3), Fraction(2, 3))]
        gaps = list(level)
        for _ in range(5):
            level = [g for a, b in level for g in ((a / 3, b / 3), ((2 + a) / 3, (2 + b) / 3))]
            gaps.extend(level)
        total += sum(float(b - a) for a, b in sorted(gaps))
        y = _SMALL_Y.copy()
        a, b = np.zeros(y.size), np.ones(y.size)
        for _ in range(40):
            keep = (np.abs(b) > 1e-10) & ((y < 1.0 / 3.0) | (y > 2.0 / 3.0))
            if not keep.any():
                break
            a, b, y = a[keep], b[keep], y[keep]
            left = y < 1.0 / 3.0
            right = ~left
            b[left] *= 0.5
            y[left] *= 3.0
            a[right] += b[right]
            b[right] *= -0.5
            y[right] = 3.0 * (1.0 - y[right])
        total += float(a.sum()) + sum(_scalar_descent(x) for x in _SMALL_X)
    return total


# about each loop's time on the machine the bounds were set on: times are
# reported as if every reference loop took exactly this long
NOMINAL_S = {array_reference: 0.007, small_call_reference: 0.005}


def timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start
