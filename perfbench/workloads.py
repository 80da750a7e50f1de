"""The three verification workloads: seeded input generation, the calls
into the public qfmass API for one case, and the check of each result.

Inputs depend only on the seed and the round number; the program sees only
the generated determinants and constraints.  Every workload samples realizable
determinants only (S = 0, 3 mod 4), because an unrealizable S has no classes
and no L-value and would make the per-case cost bimodal.

A case runner returns (ok, rel_err): ok is the check's verdict and rel_err
the relative error of an L-value-based prediction, 0.0 on exact checks.
Runners look the qfmass functions up on their modules at call time, so a
tracer's rebinding is seen.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

# Cases per round, sized so one round takes about 6 s on a 2-core x86-64
# container at the commit that defined the benchmark.
ROUND_CASES = {"exact-sweep": 620, "lvalue-small": 78, "classify-large": 13}

# lvalue-small: |S|, |D| stay below 10^4, so every L-value uses M = 10^5.
LVALUE_MAX = 2000
# classify-large: determinants are drawn from [CLASSIFY_LO, CLASSIFY_HI).
CLASSIFY_LO, CLASSIFY_HI = 95_000, 105_000

# Tolerances of acceptance criteria 5 (total mass) and 6 (class number).
TOTAL_MASS_TOL = 2e-3
CLASS_NUMBER_TOL = 1e-3

REPORT_KEYS = {"schema", "det", "classes", "aut", "genera", "mass_exact", "kappa", "rhs_numeric", "rel_err"}


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division, independent of qfmass."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def _fundamental(D: int) -> bool:
    """Negative fundamental discriminant test, independent of qfmass."""
    if D % 4 == 1:
        return _squarefree(-D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(-m)
    return False


def _realizable(lo: int, hi: int) -> list[int]:
    return [S for S in range(lo, hi) if S % 4 in (0, 3)]


def generate(workload: str, seed: int, rnd: int, n: int) -> list[tuple]:
    """The n cases of round `rnd` of a workload, as (kind, id, extra) tuples."""
    rng = random.Random(f"{workload}/{seed}/{rnd}")
    if workload == "exact-sweep":
        cases = []
        for S in _realizable(1, 2 * n + 4)[:n]:
            # a seeded Hasse-constrained instance, drawn as in criterion 3
            pool = sorted({2, 3, 5} | set(_prime_factors(S)))
            primes = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            cases.append(("exact", S, {p: rng.choice((1, -1)) for p in primes}))
        return cases
    if workload == "lvalue-small":
        dets = rng.sample(_realizable(3, LVALUE_MAX + 1), n // 2)
        discs = rng.sample([D for D in range(-3, -LVALUE_MAX - 1, -1) if _fundamental(D)], n - n // 2)
        cases = [("mass", S, None) for S in dets] + [("dirichlet", D, None) for D in discs]
        rng.shuffle(cases)
        return cases
    if workload == "classify-large":
        return [("classify", S, None) for S in rng.sample(_realizable(CLASSIFY_LO, CLASSIFY_HI), n)]
    raise ValueError(f"unknown workload {workload!r}")


def run_exact(qf, S: int, constraints: dict[int, int]) -> tuple[bool, float]:
    """Siegel ratios of the census, then the decomposition identity
    unconstrained and under the seeded Hasse constraints; all exact."""
    rep = qf.globalmass.genus_census(S)
    ok = bool(rep.genera)
    base = rep.genera[0] if rep.genera else None
    for other in rep.genera[1:]:
        ok = ok and qf.mass.genus_mass_ratio(other.symbols, base.symbols) == other.mass / base.mass
    ok = ok and qf.euler.decomposition_check(S)["equal"] is True
    ok = ok and qf.euler.decomposition_check(S, constraints)["equal"] is True
    return ok, 0.0


def run_mass(qf, S: int) -> tuple[bool, float]:
    res = qf.globalmass.total_mass_numeric(S)
    rel = float(res["rel_err"])
    return res["census"] > 0 and rel <= TOTAL_MASS_TOL, rel


def run_dirichlet(qf, D: int) -> tuple[bool, float]:
    res = qf.globalmass.dirichlet_check(D)
    rel = float(res["rel_err"])
    return res["h"] >= 1 and rel <= CLASS_NUMBER_TOL, rel


def run_classify(qf, S: int) -> tuple[bool, float]:
    """`qfmass classify --det S` with stdout captured, parsed and checked
    against the schema-1 report layout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qf.cli.main(["classify", "--det", str(S)])
    if code != 0:
        return False, 0.0
    objs = json.loads(buf.getvalue())
    if not (isinstance(objs, list) and len(objs) == 1 and set(objs[0]) == REPORT_KEYS):
        return False, 0.0
    obj = objs[0]
    n = len(obj["classes"])
    indices = sorted(i for g in obj["genera"] for i in g)
    mass = Fraction(obj["mass_exact"])
    rel = float(obj["rel_err"])
    ok = (
        obj["schema"] == 1
        and obj["det"] == S
        and n >= 1
        and len(obj["aut"]) == n
        and indices == list(range(n))
        and mass > 0
        and rel <= TOTAL_MASS_TOL
        and abs(obj["rhs_numeric"] - float(mass)) <= TOTAL_MASS_TOL * float(mass)
    )
    return ok, rel


def run_case(qf, case: tuple) -> tuple[bool, float]:
    kind, ident, extra = case
    if kind == "exact":
        return run_exact(qf, ident, extra)
    if kind == "mass":
        return run_mass(qf, ident)
    if kind == "dirichlet":
        return run_dirichlet(qf, ident)
    return run_classify(qf, ident)
