"""Run one command as a child process and require exit 0 within a memory bound.

    python3 tests/within_memory.py MB COMMAND [ARG ...]

The child's stdout is discarded.  Exits 1, with a message, unless the child
exits 0 and its peak resident set (``ru_maxrss``) stays below MB megabytes;
prints the child's time and peak either way.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    limit, command = float(argv[0]), argv[1:]
    start = time.perf_counter()
    code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"{' '.join(command[:3])}: exit {code}, {seconds:.2f} s, peak {peak:.0f} MB")
    if code != 0 or peak >= limit:
        print(f"needs exit 0 and a peak below {limit:.0f} MB")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
