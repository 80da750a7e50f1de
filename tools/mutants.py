"""The mutant kill matrix: planted one-line defects in `src/qfmass` and the
`verify` suites expected to catch each one.

    python3 tools/mutants.py

Each mutant is an exact replacement in one source file that must apply
exactly once.  The tool copies `src/` to a temporary directory per mutant,
applies the replacement there and runs every suite of SUITES against the
copy; a suite kills a mutant when it exits nonzero.  The unmutated source
must pass every suite.  One thread per CPU takes the unmutated source and
the mutants in turn, each running its suites one after another, and the
rows print in MUTANTS order.

Prints the matrix and exits 1 when the unmutated source fails a suite, a
replacement does not apply exactly once, or an expected kill comes back
live.  A kill that is not expected is reported and does not fail the run:
expectations are only ever added.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# suite name -> arguments of `qfmass verify`
SUITES = {
    "decomposition": ["decomposition", "--max-det", "2000"],
    "siegel": ["siegel", "--max-det", "2000"],
    "class-number": ["class-number", "--dmax", "500"],
    "euler-closed-forms": ["euler-closed-forms"],
}

# The oracle functions of `src/qfmass`: brute-force and reference code that
# the tests compare the engine with.  No suite runs them, so the suites can
# kill no mutant of them; `tests/test_mutants.py` holds that no other
# function of `src/qfmass` calls one.
ORACLES = (
    "enumerate_classes",
    "automorphism_count",
    "proper_automorphism_count",
    "_automorphisms",
    "_norm_vectors",
    "reduce_binary",
    "_is_reduced",
    "improper_classes",
    "mirror",
    "count_SO_mod_p",
    "aut_density_mod_pk",
    "jordan_split_odd",
    "genus_symbol_2",
    "local_symbol",
    "same_genus",
    "representative_form",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/qfmass
    old: str
    new: str
    kills: frozenset[str]  # the suites expected to kill it


MUTANTS = (
    Mutant(
        "2-adic nu = 0 density doubled",
        "mass.py",
        "return Fraction(2 * d, n)",
        "return Fraction(d, n)",
        frozenset({"euler-closed-forms"}),
    ),
    Mutant(
        "odd nu = 2 density times p",
        "mass.py",
        "Fraction(1, 2 * p**nu)",
        "Fraction(1, 2 * p**nu * (p if nu == 2 else 1))",
        frozenset({"euler-closed-forms"}),
    ),
    Mutant(
        "2-adic nu >= 5 density halved",
        "mass.py",
        "        return Fraction(1, 2 ** (nu + 1))\n",
        "        return Fraction(1, 2**nu)\n",
        frozenset({"euler-closed-forms"}),
    ),
    Mutant(
        "2-adic key reads u1 mod 4",
        "euler.py",
        ">> 1) & 3]",
        ">> 1) & 1]",
        frozenset({"decomposition", "siegel"}),
    ),
    Mutant(
        "lead unit mod 4 at nu >= 5",
        "localgenus.py",
        "        return u1 % 8\n",
        "        return u1 % 4\n",
        frozenset({"decomposition"}),
    ),
    Mutant(
        "2-adic label drops the sign of det",
        "localgenus.py",
        "hilbert_symbol(u1, -unit << nu, 2)",
        "hilbert_symbol(u1, unit << nu, 2)",
        frozenset({"decomposition", "siegel"}),
    ),
    Mutant(
        "last odd p dropped from the key",
        "euler.py",
        "        for p in odd:\n",
        "        for p in odd[:-1]:\n",
        frozenset({"decomposition"}),
    ),
    Mutant(
        "odd tag QR <-> NQR",
        "euler.py",
        "nqr if key & bit else qr",
        "qr if key & bit else nqr",
        frozenset({"decomposition"}),
    ),
    Mutant(
        "class count off by one",
        "forms.py",
        "    return j - i\n",
        "    return j - i + 1\n",
        frozenset({"class-number"}),
    ),
    # no suite reads |Aut| per class: only a golden digest of `classify` does
    Mutant(
        "a = b not counted ambiguous in aut_orders",
        "euler.py",
        "2 * w if b == 0 or a == b or a == c else w",
        "2 * w if b == 0 or a == c else w",
        frozenset(),
    ),
    Mutant(
        "series ignores the denominator's X^2 term",
        "euler.py",
        "enumerate(self.den[1:], 1)",
        "enumerate(self.den[1:2], 1)",
        frozenset({"euler-closed-forms"}),
    ),
    Mutant(
        "density_product drops one symbol",
        "mass.py",
        "    for sym in symbols.values():\n",
        "    for sym in list(symbols.values())[1:]:\n",
        frozenset({"decomposition"}),
    ),
    # every genus of one S has the same density product, so each Siegel
    # ratio is 1 and an inverted one is 1 too
    Mutant(
        "genus_mass_ratio inverted",
        "mass.py",
        "Fraction(n1 * d2, d1 * n2)",
        "Fraction(d1 * n2, n1 * d2)",
        frozenset(),
    ),
    # every genus of one S has the same density product, so each Siegel
    # ratio is 1 and a genus over itself is 1 too
    Mutant(
        "genus_mass_ratio reads the first genus twice",
        "mass.py",
        "n2, d2 = density_product(symbols2)",
        "n2, d2 = density_product(symbols1)",
        frozenset(),
    ),
    # an odd unit mod 4 is 1 or 3, still a valid tag at 2, so only the
    # suites that read the 2-adic square class can see it
    Mutant(
        "LocalSquareClass.of reads the 2-adic unit mod 4",
        "arith.py",
        "u % 8 if p == 2",
        "u % 4 if p == 2",
        frozenset({"decomposition", "siegel", "euler-closed-forms"}),
    ),
    # every genus mass and the total are scaled alike, so each Siegel ratio
    # is unchanged; tier-1's total-mass checks catch it
    Mutant(
        "census mass n/(3w)",
        "euler.py",
        "Fraction(n, 2 * w)",
        "Fraction(n, 3 * w)",
        frozenset(),
    ),
    # the as-printed B row at u = 3, 7 then equals the table row, so its
    # ledger positions at p = 2 change
    Mutant(
        "as-printed p = 2 B denominator -1/8 -> -1/4",
        "euler.py",
        "Fraction(-1, 8)",
        "Fraction(-1, 4)",
        frozenset({"euler-closed-forms"}),
    ),
    # B then equals A at every (p, unit, nu): the B closed forms and the
    # decomposition identity's B product both fail
    Mutant(
        "_ab_coeff drops the Hasse label from B",
        "euler.py",
        "r * sum(sym.label for sym in genera)",
        "r * len(genera)",
        frozenset({"decomposition", "euler-closed-forms"}),
    ),
    # wrong wherever B's denominator does not divide A's numerator, first
    # at S = 12 under {2: +1} in the constraint walk of `verify decomposition`
    Mutant(
        "constrained factor divides A by B's denominator",
        "euler.py",
        "kn *= a_n * b_d + c * b_n * a_d",
        "kn *= a_n // b_d + c * b_n * a_d",
        frozenset({"decomposition"}),
    ),
)


def run_suites(src: Path) -> dict[str, bool]:
    """Suite name -> True when the suite exits nonzero on the source tree `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    killed = {}
    for suite, args in SUITES.items():
        cmd = [sys.executable, "-m", "qfmass.cli", "verify", *args]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300)
        killed[suite] = proc.returncode != 0
    return killed


def mutate(src: Path, m: Mutant) -> None:
    target = src / "qfmass" / m.path
    text = target.read_text()
    count = text.count(m.old)
    if count != 1:
        raise ValueError(f"mutant {m.name!r}: replacement found {count} times in {m.path}, not once")
    target.write_text(text.replace(m.old, m.new))


def run_mutant(src: Path, m: Mutant) -> dict[str, bool]:
    """Copy `src/` to the new directory `src`, apply `m` there and run the
    suites against the copy."""
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    mutate(src, m)
    return run_suites(src)


def main() -> int:
    ok = True
    width = max(len(m.name) for m in MUTANTS)
    print(f"{'mutant':<{width}}  " + "  ".join(SUITES))
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        clean = pool.submit(run_suites, ROOT / "src")
        runs = [pool.submit(run_mutant, Path(tmp) / f"m{i}", m) for i, m in enumerate(MUTANTS)]
        clean = clean.result()
        print(f"{'(unmutated)':<{width}}  " + "  ".join(f"{'FAIL' if clean[s] else 'pass':<{len(s)}}" for s in SUITES))
        if any(clean.values()):
            ok = False
        for m, run in zip(MUTANTS, runs):
            try:
                killed = run.result()
            except ValueError as exc:
                print(exc)
                ok = False
                continue
            cells = []
            for s in SUITES:
                cell = "KILL" if killed[s] else "live"
                if s in m.kills and not killed[s]:
                    cell, ok = "LIVE!", False  # an expected kill came back live
                elif killed[s] and s not in m.kills:
                    cell = "KILL+"  # a kill beyond the expectations
                cells.append(f"{cell:<{len(s)}}")
            print(f"{m.name:<{width}}  " + "  ".join(cells))
    print("ok" if ok else "FAILED: see LIVE! cells, a failing unmutated suite or an unapplied mutant")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
