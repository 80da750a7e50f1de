"""qfmass verification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qfmass is imported from its `src/`.  Each
round is a fresh interpreter (`worker.py`) that sets up, runs the workload's
fixed, seeded list of cases once and checks every result, so the package's
caches start cold as they do for a CLI user and the peak RSS is per
workload.  Load comes from that one process and one thread; BLAS/OpenMP
pools are pinned to one thread.

--trace 0 runs rounds until the next one would end after S seconds, at
least MIN_ROUNDS of them; round r draws its inputs from the seed and r.  The
case timings of all rounds are pooled.  Set-up is timed on every round and
on extra set-up-only interpreters, SETUP_SAMPLES in all, and its median is
reported.

Times are host-normalized.  The shared host this benchmark was defined on
runs the same Python code up to 1.3x slower for minutes at a time, which
moved raw run medians by up to 25% between runs.  Each round therefore
times a fixed pure-Python loop every REF_EVERY_S (see worker.py) and its
times are scaled by REF_MS / (median loop time of the round): they read as
on a host where that loop takes REF_MS.  The raw figures and the host speed
are in the record line.

--trace 1 runs round 0 untraced and then traced, and reports per-layer
call counts and self times.  The last line of stdout is the JSON result; the
command exits 1 if any case failed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import NAMES  # noqa: E402

MIN_ROUNDS = 3
SETUP_SAMPLES = 7
# the reference loop's time, in ms, that normalized times are scaled to
REF_MS = 10.0
# no new round starts once it would end after this many seconds
TIME_CAP_S = 150.0
ROUND_TIMEOUT_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# (name, unit) of the end-to-end metrics that are reported on every run
END_TO_END = (
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_p95", "ms"),
    ("peak_rss_mb", "MiB"),
)
# reported beside them, but never in the result's metrics: both are 0 on a
# correct run, so no share-of-median bound can apply to them
INFO = (("failed_ratio", "1"), ("worst_rel_err", "1"))


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "arith.sieve_builds": "count",
            "forms.classes_enumerated": "count",
            "euler.partitions_per_case": "1",
            "euler.ab_coeff_hit_ratio": "1",
            "globalmass.worst_rel_err": "1",
            "trace.overhead_ratio": "1",
        }
    )
    return units


def spans_path(workload: str) -> Path:
    return HERE / "out" / f"spans-{workload}.npz"


def run_round(workload: str, seed: int, rnd: int, n: int, mode: str) -> dict:
    """Round `rnd` of n cases in a fresh interpreter, in a worker MODE
    ("plain", "trace" or "setup"); adds its set-up time as `setup_s`."""
    env = dict(os.environ, **PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(rnd), str(n), mode, str(spans_path(workload))]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"a {workload} round exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(res["qfmass_file"]).resolve().parent != (ROOT / "src" / "qfmass").resolve():
        raise RuntimeError(f"qfmass was imported from {res['qfmass_file']}, not from this checkout")
    res["setup_s"] = res["ready_at"] - spawned
    return res


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def end_to_end(rounds: list[dict], setups: list[dict], normalize: bool) -> dict[str, float]:
    """The metrics over pooled rounds; with `normalize`, each round's times
    are scaled by REF_MS over the median of its reference-loop times."""

    def scale(r: dict) -> float:
        return REF_MS / statistics.median(r["ref_ms"]) if normalize else 1.0

    samples = [ms * scale(r) for r in rounds for ms in r["case_ms"]]
    attempted = sum(r["attempted"] for r in rounds)
    return {
        "setup_s": statistics.median(r["setup_s"] * scale(r) for r in setups),
        "cases_per_s": attempted / (sum(samples) / 1e3),
        "case_ms_p50": statistics.median(samples),
        "case_ms_p95": statistics.quantiles(samples, n=20, method="inclusive")[18],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "failed_ratio": sum(len(r["failures"]) for r in rounds) / attempted,
        "worst_rel_err": max(r["worst_rel_err"] for r in rounds),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, round_cases: int | None = None) -> dict:
    """Run the workload and return its result and reproducibility record."""
    n = round_cases or workloads.ROUND_CASES[workload]
    start = time.monotonic()
    if trace:
        plain = run_round(workload, seed, 0, n, "plain")
        traced = run_round(workload, seed, 0, n, "trace")
        rounds = [plain, traced]
        layers = traced["layers"]
        layers["euler.partitions_per_case"] = layers["euler.genus_partition.calls"] / traced["attempted"]
        layers["globalmass.worst_rel_err"] = traced["worst_rel_err"]
        traced_s, plain_s = sum(traced["case_ms"]) / 1e3, sum(plain["case_ms"]) / 1e3
        layers["trace.overhead_ratio"] = traced_s / plain_s
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        extra = {"traced_wall_s": traced_s, "untraced_wall_s": plain_s, "spans": traced["spans"], "span_file": str(spans_path(workload).relative_to(ROOT))}
    else:
        rounds = []
        while True:
            rounds.append(run_round(workload, seed, len(rounds), n, "plain"))
            elapsed = time.monotonic() - start
            next_end = elapsed * (len(rounds) + 1) / len(rounds)
            if next_end > TIME_CAP_S or (len(rounds) >= MIN_ROUNDS and next_end > seconds):
                break
        setups = rounds + [run_round(workload, seed, r, n, "setup") for r in range(len(rounds), SETUP_SAMPLES)]
        values = end_to_end(rounds, setups, normalize=True)
        raw = end_to_end(rounds, setups, normalize=False)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra = {
            "info": {name: {"value": values[name], "unit": unit} for name, unit in INFO},
            "raw": {name: raw[name] for name, _ in END_TO_END},
            "ref_ms_median": statistics.median(ms for r in rounds for ms in r["ref_ms"]),
        }
    attempted = sum(r["attempted"] for r in rounds)
    failures = [case for r in rounds for case in r["failures"]]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "case_samples": sum(len(r["case_ms"]) for r in rounds),
        "cases": attempted,
        "wall_s": time.monotonic() - start,
        "python": rounds[0]["python"],
        "numpy": rounds[0]["numpy"],
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": PINNED_ENV,
        "first_failures": failures[:10],
        **extra,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return {"record": record, "result": result}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUND_CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qfmass" / "__init__.py").is_file():
        print(f"error: no qfmass sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record, result = out["record"], out["result"]
    for name, m in {**result["metrics"], **record.get("info", {})}.items():
        print(f"{args.workload:15s} {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
