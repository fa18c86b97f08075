import contextlib
import importlib.util
import pathlib
import signal
import sys

import numpy as np
import pytest

from singular_mrl import PSingularParams, gap_intervals, sample


@pytest.fixture(scope="session")
def twin_params():
    """The values of p at which the scalar and vector evaluators are compared."""
    return [PSingularParams(p) for p in (0.01, 1.0, 100.0)]


@pytest.fixture(scope="session")
def twin_points():
    """Uniform points, points within 1e-6 of 1, the rounded endpoints of
    every gap of level <= 8, the plateau edges and endpoints, points whose
    walk reaches 3/4, the right step's fixed point, points that end on the
    plateau at each level 0-8 by left and by right steps, fl(1/3), 2^-11
    and their neighbours, subnormals, doubles below 2^-11 that are not
    multiples of 2^-63, which the vector walk hands to the scalar one, the
    odd multiples of 2^-6, whose ratios n/d in the scalar walk have
    small denominators where the vector walk's M = x 2^63 is large, and
    draws at p = 1 and p = 100, points of the Cantor set, which never end
    on a plateau and walk deepest, so that a pool's walk sets points
    aside over many levels."""
    rng = np.random.default_rng(3)
    levels = 0.5 * 3.0 ** -np.arange(9)
    return np.concatenate((rng.random(200), 1.0 - rng.random(50) * 1e-6,
                           np.ravel(gap_intervals(8)), [0.0, 1 / 3, 0.5, 2 / 3, 1.0],
                           [0.25, 0.75, 1 / 12, 1 / 36], levels, 1.0 - levels,
                           np.nextafter(1 / 3, [0.0, 1.0]), np.nextafter(2.0 ** -11, [0.0, 1.0]),
                           [2.0 ** -11, 5e-324, 1e-310, 2.2250738585072014e-308, 3.0 ** -20,
                            2.0 ** -40, 1e-300, 1e-5], rng.random(8) * 2.0 ** -11,
                           np.arange(1, 64, 2) / 64.0, sample(PSingularParams(1.0), 3, 200),
                           sample(PSingularParams(100.0), 3, 100)))


@pytest.fixture(scope="session")
def oracle():
    """The exact oracle of `perfbench/oracle.py`, loaded from that file
    without writing bytecode next to it: F, J and m at the exact value of a
    double, as closed intervals of Fractions."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("exact_oracle", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@contextlib.contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that raises TimeoutError in
    its block once `seconds` have passed, so that a loop that never ends
    fails its test instead of hanging the run."""
    return _deadline
