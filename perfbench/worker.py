"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED ROUND CASES MODE SPANS

Set-up is `import qfmass`, the default `primes_below()` sieve and the input
generation.  The worker reports the monotonic clock reading at the end of
set-up, so the parent can time set-up from its own spawn time.  MODE is
"setup" to stop there, "plain" to run every case once, timed and checked,
or "trace" to do so with the public qfmass functions traced and the spans
written to SPANS.  The result is one JSON line on stdout.

Every REF_EVERY_S of case time, and after set-up, the worker times a fixed
pure-Python loop (`reference_ms`).  Its median in a round measures how fast
the host ran that round; the parent uses it to normalize the case times.
"""
from __future__ import annotations

import sys
import time

REF_EVERY_S = 0.25
REF_SETUP_SAMPLES = 5


def reference_ms() -> float:
    """Wall time in ms of a fixed integer loop, independent of qfmass."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def main(argv: list[str]) -> dict:
    workload, seed, rnd, n, mode, spans_path = argv[0], int(argv[1]), int(argv[2]), int(argv[3]), argv[4], argv[5]

    import qfmass
    import qfmass.cli
    import workloads

    qfmass.arith.primes_below()
    cases = workloads.generate(workload, seed, rnd, n)
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    if mode == "setup":
        ref_ms = [reference_ms() for _ in range(REF_SETUP_SAMPLES)]
        return {"ready_at": ready_at, "ref_ms": ref_ms, "qfmass_file": qfmass.__file__}

    import resource
    import traceback
    from pathlib import Path

    import numpy as np

    sieve, ab_coeff = qfmass.arith.primes_below, qfmass.euler._ab_coeff
    sieve_misses, ab_before = sieve.cache_info().misses, ab_coeff.cache_info()
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    case_ms, failures, worst_rel = [], [], 0.0
    ref_ms = [reference_ms()]
    clock = time.perf_counter
    next_ref = clock() + REF_EVERY_S
    try:
        for case in cases:
            if clock() >= next_ref:
                ref_ms.append(reference_ms())
                next_ref = clock() + REF_EVERY_S
            if tracer:
                tracer.case = case[1]
            t0 = clock()
            try:
                ok, rel = workloads.run_case(qfmass, case)
            except Exception:  # a raising case is a failed case; the round goes on
                ok, rel = False, 0.0
                traceback.print_exc(file=sys.stderr)
            case_ms.append((clock() - t0) * 1e3)
            worst_rel = max(worst_rel, rel)
            if not ok:
                failures.append(case[1])
    finally:
        if tracer:
            tracer.uninstall()
    ref_ms.append(reference_ms())

    out = {
        "ready_at": ready_at,
        "ref_ms": ref_ms,
        "case_ms": case_ms,
        "attempted": len(cases),
        "failures": failures,
        "worst_rel_err": worst_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "qfmass_file": qfmass.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer:
        ab_after = ab_coeff.cache_info()
        lookups = ab_after.hits + ab_after.misses - ab_before.hits - ab_before.misses
        layers = tracer.metrics()
        layers["arith.sieve_builds"] = sieve.cache_info().misses - sieve_misses
        layers["euler.ab_coeff_hit_ratio"] = (ab_after.hits - ab_before.hits) / lookups if lookups else 0.0
        out["layers"] = layers
        out["spans"] = tracer.save(Path(spans_path))
    return out


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv[1:])))
