"""Run one command and write its wall time and resource usage as JSON.

    python3 -S launch.py USAGE.json PROGRAM [ARG...]

The benchmark starts every job through this small process because on
Linux a process's ``ru_maxrss`` starts from the resident size of the
process that spawned it; spawned from the benchmark itself, which holds
the regenerated draws of the output checks, a job would inherit that
size.  Stdlib only, so it starts in milliseconds with ``-S``.
"""

import json
import os
import sys
import time


def main() -> int:
    usage_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(usage_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "exit": os.waitstatus_to_exitcode(status),
                   "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
