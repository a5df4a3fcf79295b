"""Process launcher for run.py, kept small on purpose.

Linux counts the spawning process's own peak RSS into a child's ru_maxrss,
so children are started from this small interpreter (run with -S) rather
than from run.py, whose imports alone are as large as a gapkit search.

Protocol, one request at a time over stdin/stdout:
  request   {"cmd": [...], "env": {...}, "stdout": PATH or null}
  replies   {"pid": N}, once the child runs in a session of its own
            {"exit_code": N, "wall_s": X, "cpu_s": X, "maxrss_kb": N,
             "marks": [[seconds since spawn, bytes of stdout so far], ...]}
The rusage comes from wait4, so it covers the child and every descendant it
reaped (worker processes included).  A child's stdout goes through a pipe
that this process copies to PATH, noting when each piece arrived; with no
PATH it goes to /dev/null and there are no marks.
"""

import json
import os
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        target = request["stdout"]
        if target:
            read_fd, fd = os.pipe()
        else:
            read_fd, fd = None, os.open(os.devnull, os.O_WRONLY)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(
                request["cmd"][0],
                request["cmd"],
                request["env"],
                file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)],
                setsid=True,
            )
        finally:
            os.close(fd)
        print(json.dumps({"pid": pid}), flush=True)
        marks = []
        if read_fd is not None:
            total = 0
            with open(target, "wb") as out:
                while True:
                    chunk = os.read(read_fd, 1 << 16)
                    if not chunk:
                        break
                    marks.append((time.perf_counter() - t0, total + len(chunk)))
                    total += len(chunk)
                    out.write(chunk)
            os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        print(
            json.dumps(
                {
                    "exit_code": os.waitstatus_to_exitcode(status),
                    "wall_s": wall,
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "maxrss_kb": usage.ru_maxrss,
                    "marks": marks,
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
