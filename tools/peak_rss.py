"""Peak resident memory of one `qfmass` command, checked against a bound.

    python3 tools/peak_rss.py MIB SECONDS ARGS...

Runs `timeout SECONDS qfmass ARGS...` with stdout discarded and prints
`<ARGS> peak RSS <N> MiB`, N being the largest resident set of the finished
child processes.  Exits 1 when the command fails (a timeout included) or
when N is above MIB, and 2 on a malformed call.
"""
from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bound, seconds, args = float(argv[0]), argv[1], argv[2:]
    proc = subprocess.run(["timeout", seconds, "qfmass", *args], stdout=subprocess.DEVNULL)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(args)} peak RSS {rss:.0f} MiB")
    if proc.returncode:
        print(f"qfmass {' '.join(args)} exited with status {proc.returncode}", file=sys.stderr)
        return 1
    return int(rss > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
