"""End-to-end verification over Q: the census report, exact total masses,
the closed total-mass formula with truncated L-values, and the analytic
class number formula for imaginary quadratic fields.

Census masses follow the Smith-Minkowski convention: one term 1/|Aut(Q)|
per GL_2(Z)-class with the full automorphism group, which equals
(1/2) sum of 1/|proper Aut| over proper classes.  That normalization is the
one the closed formula kappa(S) sqrt(S)/(4 pi) L(1, chi) reproduces.
"""
from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factor, kronecker, shared_primes
from .euler import GenusRecord, genus_partition
from .forms import QuadForm, automorphism_count, enumerate_classes

SCHEMA_VERSION = 1


@dataclass
class GenusReport:
    det: int
    genera: list[GenusRecord]
    total_mass: Fraction

    @property
    def classes(self) -> list[QuadForm]:
        return [f for g in self.genera for f in g.classes]


def genus_census(S: int) -> GenusReport:
    """The shared genus records of determinant S (see `genus_partition`)
    with their total mass, sum 1/(2 |proper Aut|) over proper classes."""
    if S <= 0:
        raise ValueError("determinant must be positive")
    genera = list(genus_partition(S))
    return GenusReport(det=S, genera=genera, total_mass=sum((g.mass for g in genera), Fraction(0)))


def kappa(S: int) -> int:
    """The {0, 1, 2}-valued constant of the closed total-mass formula.

    It differs from 1 only when S is a square whose normalized 2-adic unit
    is 3 mod 4.  Over Q that never happens: the odd part of a square S is an
    odd square, and odd squares are 1 mod 8.  So kappa(S) = 1 for all S > 0.
    """
    if S <= 0:
        raise ValueError("determinant must be positive")
    return 1


# ---------------------------------------------------------------------------
# Dirichlet L-values by truncated character sums

# Most terms an L-value may use.  M terms cost about 32 M bytes of float64
# arrays at peak and keep a sieve of the primes <= M for the process.
L_TERMS_MAX = 10**7


def _char_period(D: int) -> int:
    return abs(D) if D % 4 in (0, 1) else 4 * abs(D)


def _char_table(D: int) -> np.ndarray:
    P = _char_period(D)
    return np.array([kronecker(D, r) if r else kronecker(D, P) for r in range(P)], dtype=np.int8)


@dataclass
class LTruncation:
    """Truncated evaluation of L(1, (D|.)) = prod (1 - (D|p)/p)^-1.

    `value` is the Abel-summed character sum (the accurate estimate);
    `euler_value` is the raw Euler product over primes <= prime_bound.
    `error_estimate` = 4P^2/M^2 (character period P, M terms) is a heuristic
    size for the Abel tail, not a proven bound on |value - L(1, chi)|.
    """

    D: int
    prime_bound: int
    value: float
    euler_value: float
    error_estimate: float


def _euler_product(table: np.ndarray, M: int) -> float:
    """prod over primes p <= M of (1 - chi(p)/p)^-1, chi given by its table.

    `np.divide.reduce` divides left to right, as the scalar loop
    `euler /= 1 - chi(p)/p` does, and chi(p) = 0 gives an exact factor 1.0,
    so the result is the loop's to the last bit.
    """
    primes = shared_primes(M + 1)
    p = np.array(primes[: bisect_right(primes, M)], dtype=np.int64)
    factors = 1.0 - table[p % len(table)] / p
    return float(np.divide.reduce(np.concatenate(([1.0], factors))))


def _l_terms(D: int, prime_bound: int) -> int:
    """The number of terms M = max(prime_bound, 10 P) an L-value of chi_D
    uses; refuses bad arguments and any M above L_TERMS_MAX."""
    if D >= 0:
        raise ValueError("negative discriminant-like D required")
    if prime_bound < 100:
        raise ValueError("prime_bound must be at least 100")
    # the Abel correction needs several full periods of partial sums
    M = max(int(prime_bound), 10 * _char_period(D))
    if M > L_TERMS_MAX:
        raise ValueError(f"L-value needs {M} terms, more than the supported {L_TERMS_MAX}")
    return M


def l_value_truncated(D: int, prime_bound: int = 10**5) -> LTruncation:
    """Evaluate L(1, chi_D) for the Kronecker symbol chi_D = (D|.), D < 0.

    The character sum sum chi(m)/m is conditionally convergent; Abel
    summation against the periodic partial sums gives an O((P/bound)^2)
    tail, far below the raw-product error at the same bound.  The number of
    terms M = max(prime_bound, 10 P) is capped at L_TERMS_MAX: a larger M is
    refused before any table, array or sieve is built.
    """
    M = _l_terms(D, prime_bound)
    P = _char_period(D)
    table = _char_table(D)
    # before the Abel arrays, so the two peaks do not add up
    euler = _euler_product(table, M)
    m = np.arange(1, M + 1)
    chi_vals = table[m % P].astype(np.float64)
    partial = float(np.dot(chi_vals, 1.0 / m))
    T = np.cumsum(chi_vals)
    T_mean = float(T[:P].mean())
    abel = partial + (T_mean - float(T[-1])) / (M + 1)
    err = 4.0 * P * P / (M * M) + 1e-12
    return LTruncation(D=D, prime_bound=M, value=abel, euler_value=euler, error_estimate=err)


def total_mass_numeric(S: int, prime_bound: int = 10**5) -> dict:
    """Exact census total mass vs the closed formula
    kappa(S) sqrt(S)/(4 pi) * prod over p prime to S of gamma_p^-1."""
    rep = genus_census(S)
    census = rep.total_mass
    k = kappa(S)
    if rep.genera:
        trunc = l_value_truncated(-S, prime_bound)
        rhs = k * math.sqrt(S) / (4 * math.pi) * trunc.value
        rel = abs(rhs - float(census)) / float(census)
    else:
        # unrealizable S: both sides vanish (the 2-adic factor kills the formula)
        trunc = None
        rhs = 0.0
        rel = 0.0
    return {
        "det": S,
        "census": census,
        "kappa": k,
        "rhs": rhs,
        "rel_err": rel,
        "trunc": trunc,
    }


# ---------------------------------------------------------------------------
# class numbers of imaginary quadratic fields


def is_fundamental_discriminant(D: int) -> bool:
    if D >= 0:
        return False
    if D % 4 == 1:
        return all(e == 1 for _, e in factor(-D))
    if D % 4 == 0:
        m = D // 4
        if m % 4 in (2, 3):
            return all(e == 1 for _, e in factor(-m))
    return False


def _fundamental_classes(D: int) -> list[QuadForm]:
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a negative fundamental discriminant")
    return enumerate_classes(-D)


def class_number(D: int) -> int:
    """h(D) = number of proper classes of primitive forms with det_H = |D|,
    for a negative fundamental discriminant D (census based)."""
    return len(_fundamental_classes(D))


def mu_order(D: int) -> int:
    """Number of roots of unity in Q(sqrt(D))."""
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2


def dirichlet_check(D: int, prime_bound: int = 10**5) -> dict:
    """Compare the census class number against w sqrt(|D|)/(2 pi) L(1, chi_D)."""
    h = class_number(D)
    w = mu_order(D)
    trunc = l_value_truncated(D, prime_bound)
    predicted = w * math.sqrt(-D) / (2 * math.pi) * trunc.value
    return {
        "D": D,
        "h": h,
        "w": w,
        "predicted": predicted,
        "rel_err": abs(predicted - h) / h,
        "trunc": trunc,
    }


def prime_discriminant_count(D: int) -> int:
    """Number of prime discriminants in the factorization of a fundamental D."""
    t = len([p for p, _ in factor(-D) if p != 2])
    if D % 4 == 0:
        t += 1  # the 2-part contributes exactly one prime discriminant
    return t


def kneser_counts(D: int) -> dict:
    """Sizes in the ideal-class correspondence: |G(O_K)| counts classes over
    both definite signatures (2h by the negation bijection), with observed
    automorphism orders compared against the uniform claim 2|mu_K|."""
    forms = _fundamental_classes(D)
    h = len(forms)
    auts = [automorphism_count(f) for f in forms]
    w = mu_order(D)
    return {
        "D": D,
        "h": h,
        "G_order": 2 * h,
        "aut_orders": auts,
        "claimed_aut_order": 2 * w,
        "aut_discrepancies": [f.abc for f, a in zip(forms, auts) if a != 2 * w],
    }


# ---------------------------------------------------------------------------
# report serialization


def _format_float(x: float | None) -> float | None:
    return None if x is None else float(f"{x:.12g}")


def report_json_obj(S: int, prime_bound: int = 10**5) -> dict:
    if S > 0 and S % 4 in (0, 3):
        # a realizable S needs an L-value: refuse it before the O(S) class scan
        _l_terms(-S, prime_bound)
    rep = genus_census(S)
    numeric = total_mass_numeric(S, prime_bound)
    classes = sorted(rep.classes, key=lambda f: f.abc)
    aut = {f: n for g in rep.genera for f, n in zip(g.classes, g.aut_orders)}
    index = {f: i for i, f in enumerate(classes)}
    return {
        "schema": SCHEMA_VERSION,
        "det": S,
        "classes": [list(f.abc) for f in classes],
        "aut": [aut[f] for f in classes],
        "genera": [[index[f] for f in g.classes] for g in rep.genera],
        "mass_exact": str(rep.total_mass),
        "kappa": numeric["kappa"],
        "rhs_numeric": _format_float(numeric["rhs"]),
        "rel_err": _format_float(numeric["rel_err"]),
    }


CSV_FIELDS = ["det", "classes", "aut", "genera", "mass_exact", "kappa", "rhs_numeric", "rel_err"]


def report_csv_rows(objs: list[dict]) -> str:
    """Flat CSV with the JSON fields; list-valued cells are ;-joined."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for obj in objs:
        writer.writerow(
            {
                "det": obj["det"],
                "classes": ";".join("|".join(map(str, c)) for c in obj["classes"]),
                "aut": ";".join(map(str, obj["aut"])),
                "genera": ";".join("|".join(map(str, g)) for g in obj["genera"]),
                "mass_exact": obj["mass_exact"],
                "kappa": obj["kappa"],
                "rhs_numeric": f"{obj['rhs_numeric']:.12g}" if obj["rhs_numeric"] is not None else "",
                "rel_err": f"{obj['rel_err']:.12g}" if obj["rel_err"] is not None else "",
            }
        )
    return buf.getvalue()


def report_json_str(objs: list[dict]) -> str:
    return json.dumps(objs, indent=2, sort_keys=True) + "\n"
