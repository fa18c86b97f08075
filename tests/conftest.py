import contextlib
import signal

import numpy as np
import pytest

from singular_mrl import PSingularParams, gap_intervals


@pytest.fixture(scope="session")
def twin_params():
    """The values of p at which the scalar and vector evaluators are compared."""
    return [PSingularParams(p) for p in (0.01, 1.0, 100.0)]


@pytest.fixture(scope="session")
def twin_points():
    """Uniform points, points within 1e-6 of 1, the rounded endpoints of
    every gap of level <= 8, the plateau edges and endpoints, and points
    whose float walk reaches 3/4, the right step's fixed point."""
    rng = np.random.default_rng(3)
    return np.concatenate((rng.random(200), 1.0 - rng.random(50) * 1e-6,
                           np.ravel(gap_intervals(8)), [0.0, 1 / 3, 0.5, 2 / 3, 1.0],
                           [0.25, 0.75, 1 / 12, 1 / 36]))


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
