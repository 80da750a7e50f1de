"""Span tracer for the public functions of the qfmass modules.

The package binds names with ``from .x import y``, so wrapping a function in
its defining module alone would miss most calls.  ``Tracer.install`` rebinds
every ``qfmass.*`` module attribute that holds a traced function, and
``Tracer.uninstall`` puts the originals back.

Each call records one span (name, start, end, parent span, case id).  Spans
are kept in flat arrays in memory and written out by ``save``.  Self time is
the span's duration minus the time covered by nested traced spans, and is
accumulated as calls return.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function) pairs traced, named "<module>.<function>" in the metrics.
TRACED = (
    ("arith", "primes_below"),
    ("arith", "is_prime"),
    ("arith", "factor"),
    ("arith", "valuation"),
    ("arith", "kronecker"),
    ("arith", "hilbert_symbol"),
    ("forms", "det_hessian"),
    ("forms", "hasse_invariant"),
    ("forms", "enumerate_classes"),
    ("forms", "automorphism_count"),
    ("forms", "proper_automorphism_count"),
    ("localgenus", "local_symbol"),
    ("localgenus", "genus_symbol_2"),
    ("localgenus", "jordan_split_odd"),
    ("mass", "density_ratio"),
    ("mass", "local_density_inverse"),
    ("mass", "genus_mass_ratio"),
    ("euler", "genus_partition"),
    ("euler", "decomposition_check"),
    ("globalmass", "genus_census"),
    ("globalmass", "l_value_truncated"),
    ("globalmass", "total_mass_numeric"),
    ("globalmass", "dirichlet_check"),
    ("globalmass", "report_json_obj"),
    ("cli", "main"),
)

NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


class Tracer:
    """Wraps the functions in ``TRACED`` while installed.

    ``case`` is the id stamped on new spans (S for a determinant, D for a
    discriminant); the benchmark loop sets it before each case.
    """

    def __init__(self) -> None:
        self.case = 0
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.classes_enumerated = 0
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_case = array("q")
        self._child_time: list[float] = []  # per open span: time of its traced children
        self._open_spans: list[int] = []  # indices of the open spans, innermost last
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn):
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, cases = self.span_parent, self.span_case
        child_time, open_spans = self._child_time, self._open_spans
        count_classes = TRACED[fid] == ("forms", "enumerate_classes")
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fid)
            parents.append(open_spans[-1] if open_spans else -1)
            cases.append(tracer.case)
            ends.append(0.0)
            open_spans.append(idx)
            child_time.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                ends[idx] = t1
                open_spans.pop()
                self_s[fid] += dur - child_time.pop()
                calls[fid] += 1
                if child_time:
                    child_time[-1] += dur
            if count_classes:
                tracer.classes_enumerated += len(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind each traced function in every loaded qfmass module."""
        modules = [m for name, m in sys.modules.items() if name == "qfmass" or name.startswith("qfmass.")]
        for fid, (mod, fn_name) in enumerate(TRACED):
            original = getattr(importlib.import_module(f"qfmass.{mod}"), fn_name)
            wrapper = self._wrap(fid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def metrics(self) -> dict[str, int | float]:
        out: dict[str, int | float] = {}
        for fid, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.self_s"] = self.self_s[fid]
        out["forms.classes_enumerated"] = self.classes_enumerated
        return out

    def save(self, path: Path) -> int:
        """Write the spans to an uncompressed ``.npz``; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(NAMES)),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            case=np.frombuffer(self.span_case, dtype=np.int64),
        )
        return len(self.span_start)

