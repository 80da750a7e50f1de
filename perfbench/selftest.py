"""Self-test of the benchmark: every workload at a tiny size, untraced and
twice traced.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that no case fails, that the traced self times sum to no more than the
traced wall time, that the exact counts repeat between the two traced runs,
and that the benchmark refuses to run where the qfmass sources are absent.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

TINY = {"exact-sweep": 30, "lvalue-small": 4, "classify-large": 2}
EXACT_COUNTS = ("arith.sieve_builds", "arith.kronecker.calls", "forms.det_hessian.calls", "euler.genus_partition.calls")


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_bare_checkout(failures: list[str]) -> None:
    """In a directory with only BENCHMARK.json and perfbench/, the command
    must exit nonzero without printing a result."""
    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "lvalue-small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout, "bare checkout: nonzero exit, no result", failures)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list[str] = []
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.ROUND_CASES), "workloads match BENCHMARK.json", failures)
    for workload, n in TINY.items():
        plain = run.measure(workload, 1, 0, False, round_cases=n)["result"]
        traced = [run.measure(workload, 1, 0, True, round_cases=n) for _ in range(2)]
        for res in [plain] + [t["result"] for t in traced]:
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{workload}: no case failed", failures)
        units = {k: v["unit"] for k, v in plain["metrics"].items()}
        check(units == e2e_units, f"{workload}: end-to-end metrics and units", failures)
        for t in traced:
            units = {k: v["unit"] for k, v in t["result"]["metrics"].items()}
            check(units == layer_units, f"{workload}: per-layer metrics and units", failures)
            layers = t["result"]["metrics"]
            self_sum = sum(v["value"] for k, v in layers.items() if k.endswith(".self_s"))
            wall = t["record"]["traced_wall_s"]
            check(self_sum <= wall, f"{workload}: self times {self_sum:.4f} s <= traced wall {wall:.4f} s", failures)
        first, second = (t["result"]["metrics"] for t in traced)
        for name in EXACT_COUNTS:
            a, b = first[name]["value"], second[name]["value"]
            check(a == b, f"{workload}: {name} repeats ({a} == {b})", failures)
    check_bare_checkout(failures)
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
