"""Child processes with their own wall time and peak RSS.

Each child is started through launch.py, a minimal interpreter that reads
the child's peak RSS from `os.wait4` on that one child.  Neither
`getrusage(RUSAGE_CHILDREN)` (a running maximum over every child ever
waited for) nor a child started straight from a large process (Linux
carries the parent's peak into it) would give the child's own figure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")

# one thread per process: every caller of the library waits for each result
SINGLE_THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("SINGULAR_MRL_TOLERANCE", None)
    return env


def run(argv, env, scratch, cwd=None, timeout=170.0) -> Child:
    """Run argv to completion in `cwd`.  stdout and stderr go through files
    in `scratch`, so a large output cannot block the child on a full pipe;
    a child still running after `timeout` seconds is killed."""
    paths = []
    try:
        for _ in range(2):
            fd, path = tempfile.mkstemp(dir=scratch)
            os.close(fd)
            paths.append(path)
        launched = subprocess.run(
            [sys.executable, "-I", "-S", LAUNCHER, *paths, cwd or os.getcwd(), str(timeout),
             *argv], env=env, capture_output=True, text=True, check=True, timeout=timeout + 30)
        record = json.loads(launched.stdout)
        with open(paths[0]) as out, open(paths[1]) as err:
            return Child(record["code"], record["wall_s"], record["peak_rss_mb"],
                         out.read(), err.read())
    finally:
        for path in paths:
            os.remove(path)


def python(*args) -> list[str]:
    return [sys.executable, *args]
