"""`tools/peak_rss.py` runs the qfmass of its own checkout, whatever is on
PATH."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_peak_rss_runs_this_checkout_without_qfmass_on_path():
    path = os.pathsep.join(
        d for d in os.environ.get("PATH", "").split(os.pathsep) if d and not os.path.exists(os.path.join(d, "qfmass"))
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PATH"] = path
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_rss.py"), "200", "30", "classify", "--det", "23"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("classify --det 23 peak RSS "), lines
