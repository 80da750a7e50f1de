"""The benchmark record of one change: `BENCH_<N>.json` at the repository root.

    python3 tools/bench.py N

Runs, one after another and all from this checkout:

- `perfbench/run.py --workload W --seed 1 --seconds 30 --trace 0` for each
  workload W of `BENCHMARK.json`, keeping the normalized metrics of its
  result beside the raw metrics and the reference-loop median
  (`ref_ms_median`) of its record line.  The reference loop's own speed
  moves by a few percent between builds, so both readings are kept;
- the tier-1 suite, timed end to end;
- every `tools/peak_rss.py` line of `.github/workflows/tests.yml`, with the
  bounds as written there.

Each command imports qfmass from this checkout's `src/`, not an installed
copy; `tools/peak_rss.py` runs this checkout on its own.
The file is written even when a step fails; the tool then exits 1.
"""
from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 30
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def fold_run(stdout: str) -> dict:
    """One workload's entry from the stdout of `perfbench/run.py --trace 0`,
    whose last two lines are its record line and its result."""
    *_, record_line, result_line = stdout.strip().splitlines()
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "rounds": record["rounds"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw": record["raw"],
        "ref_ms_median": record["ref_ms_median"],
    }


def peak_rss_lines(workflow: str) -> list[list[str]]:
    """The arguments of each `python tools/peak_rss.py` line of a workflow."""
    calls = (shlex.split(line) for line in workflow.splitlines())
    return [argv[2:] for argv in calls if argv[:2] == ["python", "tools/peak_rss.py"]]


def _workload(name: str, env: dict) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED), "--seconds", str(SECONDS)]
    proc = subprocess.run([*cmd, "--trace", "0"], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 is a run with failed cases, still recorded
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:]}
    return fold_run(proc.stdout)


def _tier1(env: dict) -> dict:
    start = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    return {
        "wall_s": time.monotonic() - start,
        "exit": proc.returncode,
        "summary": summary,
        "counts": {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", summary)},
    }


def _peak_rss(args: list[str], env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "tools/peak_rss.py", *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    match = re.search(r"peak RSS (\d+) MiB", proc.stdout)
    return {
        "command": " ".join(args[2:]),
        "bound_mib": float(args[0]),
        "timeout_s": float(args[1]),
        "peak_rss_mib": int(match[1]) if match else None,
        "ok": proc.returncode == 0,
    }


def _git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.strip(), file=sys.stderr)
        return 2
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bench = {
        "n": int(argv[0]),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain")),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workloads": {},
    }
    for name in workloads:
        print(f"workload {name}", file=sys.stderr)
        bench["workloads"][name] = _workload(name, env)
    print("peak RSS", file=sys.stderr)
    bench["peak_rss"] = [_peak_rss(args, env) for args in peak_rss_lines(WORKFLOW.read_text())]
    print("tier-1", file=sys.stderr)
    bench["tier1"] = _tier1(env)
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(out)
    ok = (
        all(w["correct"] for w in bench["workloads"].values())
        and all(p["ok"] for p in bench["peak_rss"])
        and bench["tier1"]["exit"] == 0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
