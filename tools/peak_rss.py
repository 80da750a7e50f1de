"""Peak resident memory of one `qfmass` command of this checkout, checked
against a bound.

    python3 tools/peak_rss.py MIB SECONDS ARGS...

Runs `timeout SECONDS python -m qfmass.cli ARGS...` with this checkout's
`src/` first on PYTHONPATH, so it measures the code it sits beside and not
whichever `qfmass` is installed or first on PATH.  The interpreter is the
one running this script.  Discards stdout and prints
`<ARGS> peak RSS <N> MiB`, N being the largest resident set of the finished
child processes.  Exits 1 when the command fails (a timeout included) or
when N is above MIB, and 2 on a malformed call.
"""
from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bound, seconds, args = float(argv[0]), argv[1], argv[2:]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    cmd = ["timeout", seconds, sys.executable, "-m", "qfmass.cli", *args]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(args)} peak RSS {rss:.0f} MiB")
    if proc.returncode:
        print(f"qfmass {' '.join(args)} exited with status {proc.returncode}", file=sys.stderr)
        return 1
    return int(rss > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
