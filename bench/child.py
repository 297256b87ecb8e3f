"""Child-process entry for one `matsuo` CLI command, as the console script runs it.

Usage: python3 bench/child.py <timing-fd> <address-space-MiB> [matsuo argv...]

The address-space limit is applied before the package is imported, so a memory
regression ends this process with MemoryError instead of exhausting the
machine.  Just before `matsuo.cli.main` is entered and just after it returns,
the child writes `perf_counter` readings to <timing-fd>; on Linux that clock is
CLOCK_MONOTONIC and is shared with the parent, so the parent can split the
wall time into set-up (interpreter start and package import) and main.
With no matsuo argv the child only imports the package: a set-up probe.
"""

import os
import resource
import sys
import time


def _run() -> int:
    fd, limit_mib, argv = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    limit = limit_mib << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from matsuo.cli import main

    t_enter = time.perf_counter()
    code = main(argv) if argv else 0
    sys.stdout.flush()
    os.write(fd, f"{t_enter!r} {time.perf_counter()!r}\n".encode())
    return code


if __name__ == "__main__":
    sys.exit(_run())
