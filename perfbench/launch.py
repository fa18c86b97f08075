"""Start one command, wait for it, and print its exit code, wall time and
peak RSS as JSON.

    python3 -I -S launch.py OUT ERR CWD TIMEOUT PROGRAM [ARGS...]

This process stays small on purpose: Linux carries the parent's peak RSS
into a child started by fork or vfork, so a child launched from a large
process would report that process's peak as its own.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    out, err, cwd, timeout, *argv = sys.argv[1:]
    os.chdir(cwd)
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_TRUNC, 0),
               (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_TRUNC, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(max(1, int(float(timeout))))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
