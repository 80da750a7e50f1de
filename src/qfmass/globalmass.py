"""End-to-end verification over Q: the census report, exact total masses,
the closed total-mass formula with truncated L-values, and the analytic
class number formula for imaginary quadratic fields.

Census masses follow the Smith-Minkowski convention: one term 1/|Aut(Q)|
per GL_2(Z)-class with the full automorphism group, which equals
(1/2) sum of 1/|proper Aut| over proper classes.  That normalization is the
one the closed formula sqrt(S)/(4 pi) L(1, chi_-S) reproduces.
"""
from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple, TextIO

import numpy as np

from .arith import factor
from .euler import GenusRecord, genus_mass, genus_partition
from .forms import QuadForm, class_count, mu_order

SCHEMA_VERSION = 1


class GenusReport(NamedTuple):
    """The census of one determinant: its genus records and total mass."""

    det: int
    genera: list[GenusRecord]
    total_mass: Fraction

    @property
    def classes(self) -> list[QuadForm]:
        return [f for g in self.genera for f in g.classes]


def genus_census(S: int) -> GenusReport:
    """The shared genus records of determinant S (see `genus_partition`)
    with their total mass, sum 1/(2 |proper Aut|) over proper classes.
    Every proper class of det S has w = mu_order(-S) proper automorphisms,
    so the total is one Fraction, the class count over 2w, read from the
    `genus_mass` memo that also gives each genus's mass."""
    genera = list(genus_partition(S))
    total = genus_mass(sum(len(g.classes) for g in genera), mu_order(-S))
    return GenusReport(det=S, genera=genera, total_mass=total)


# ---------------------------------------------------------------------------
# Dirichlet L-values by truncated character sums

# Most terms an L-value may use.  M terms cost 8 M bytes: the float64 array
# 1/m, which `_M_TERMS` keeps at the largest M so far (rounded up, see
# `_M_TERMS_STEP`), so at most 80 MB stay held between L-values (see
# `_Reciprocals`).
L_TERMS_MAX = 10**7


def _char_period(D: int) -> int:
    """The period P of chi_D = (D|.): |D|, or 4|D| for D = 2 (mod 4).  The one
    place that refuses D = 3 (mod 4): there (D|2^k) = (D|2)^k and
    (D|2) != 0, so (D|.) has no period to sum over or tabulate."""
    if D % 4 == 3:
        raise ValueError(f"D = {D} is 3 mod 4, where (D|.) is not periodic")
    return abs(D) if D % 4 in (0, 1) else 4 * abs(D)


def _legendre_table(p: int) -> np.ndarray:
    """(r|p) for r = 0, ..., p - 1, p an odd prime, from the squares r^2 mod p
    of r = 1, ..., (p - 1)/2, taken in place in one int64 array."""
    leg = np.full(p, -1, dtype=np.int8)
    leg[0] = 0
    sq = np.arange(1, (p + 1) // 2, dtype=np.int64)
    sq *= sq
    sq %= p
    leg[sq] = 1
    return leg


def _char_table(D: int) -> np.ndarray:
    """chi_D = (D|.) over one period P as int8: entry r is kronecker(D, r)
    for 0 < r < P, and entry 0 is chi_D(P) = 0, as gcd(D, P) = |D| > 1, so
    table[m % P] = chi_D(m) for every m >= 1.  Built only for the D that
    `_l_terms` accepts, D < 0 and D != 3 (mod 4), where chi_D has a period.

    (D|r) is completely multiplicative in r.  Write |D| = 2^a prod p^e over
    odd primes p.  For odd r,
    (D|r) = (sign D|r) (2|r)^a prod (p|r)^e, where
    - (-1|r) = -1 iff r = 3 (mod 4), and (2|r) = -1 iff r = 3, 5 (mod 8);
    - for even e, (p|r)^e is 0 on the multiples of p and 1 elsewhere;
    - for odd e, reciprocity gives (p|r) = (r|p) (-1)^((p-1)/2 (r-1)/2).
      The reciprocity signs and the sign of D combine into one factor -1 on
      r = 3 (mod 4).
    Every factor is periodic in r with a period dividing P, so the odd
    entries come from tiling: the table, viewed as P/q rows of q, is
    multiplied by the Legendre table (r|p) of each p with odd e (q = p), and
    by one sign table of period q = 8, 4 or 1.  P is divisible by q: the
    (2|r) factor occurs for odd a, where 8 | D or D = 2 (mod 4), and the
    (-1|r) factor only for even D.  For D = 1 (mod 4) the tiling gives the
    even entries too: (D|r) = (r| |D|) for every r > 0.  For even D,
    (D|2) = 0, so every even entry is 0 and is set in one step.  No P-long
    index or remainder array is built.
    (Cohen, A Course in Computational Algebraic Number Theory, 1.4.)
    """
    P = _char_period(D)
    table = np.ones(P, dtype=np.int8)
    flip_3_mod_4 = D < 0
    flip_3_5_mod_8 = False
    for p, e in factor(abs(D)):
        if p == 2:
            flip_3_5_mod_8 = e % 2 == 1
        elif e % 2:
            table.reshape(-1, p)[:] *= _legendre_table(p)
            flip_3_mod_4 ^= p % 4 == 3
        else:
            table[::p] = 0
    sign = np.ones(8, dtype=np.int8)
    if flip_3_mod_4:
        sign[[3, 7]] = -1
    if flip_3_5_mod_8:
        sign[[3, 5]] *= -1
    q = 8 if flip_3_5_mod_8 else 4 if flip_3_mod_4 else 1
    table.reshape(-1, q)[:] *= sign[:q]
    if D % 2 == 0:
        table[::2] = 0
    table[0] = 0
    return table


class LTruncation(NamedTuple):
    """Truncated evaluation of L(1, (D|.)) = prod (1 - (D|p)/p)^-1.

    `value` is the Abel-summed character sum over M = `prime_bound` terms;
    `error_estimate` = e1 + e2 is a proven bound on |value - L(1, chi_D)|.
    Held as the tuple (D, prime_bound, value); `error_estimate` is a
    property, computed when read (see below).

    Truncation, e1.  Let T(m) = sum_{n<=m} chi(n) and T_bar its mean over a
    period P.  For D < 0, D != 3 (mod 4), chi_D is a nonprincipal character
    of period P, so T(P) = 0 and T has period P.  Abel summation gives
    L = sum_{m>=1} T(m)/(m(m+1)), and sum_{m>M} 1/(m(m+1)) = 1/(M+1), so for
    value = sum_{m<=M} chi(m)/m + (T_bar - T(M))/(M+1)
        L - value = sum_{m>M} g(m) w(m),  g = T - T_bar,  w(m) = 1/(m(m+1)).
    g sums to 0 over a period, so U(n) = sum_{m<=n} g(m) has period P too;
    let B = max |U|.  Summation by parts,
        sum_{m>M} g(m) w(m) = -U(M) w(M+1) + sum_{m>M} U(m) (w(m) - w(m+1)),
    with w decreasing to 0, gives |L - value| <= 2B w(M+1) = e1 =
    2B/((M+1)(M+2)).  B = max |P U| / P with P U exact in integers.

    Rounding, e2.  chi(m) fl(1/m) is within u = 2^-53 of chi(m)/m relatively,
    and summing M terms in any order adds at most gamma_{M-1} sum |chi(m)|/m,
    gamma_n = n u/(1 - n u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), where sum_{m<=M} 1/m <= ln M + 1.  The Abel correction
    (size < 0.1, as M >= 10P) and the final addition add a few roundings
    more.  All of it, and the rounding of e1 + e2 itself, lies within
    e2 = gamma_{M+2} (ln M + 2).

    One period.  Since T has period P and T(0) = 0, T(M) = T(M mod P), and
    T_bar, B and T(M) are all read from one period of chi.  The value needs
    two integers of the period: T(M), a partial sum of chi, and
    sum T = (P + 1) T(P) - sum_{r<=P} r chi(r) = -sum r chi(r), exact in
    integers (`_index_sum`).  The character sum is a one-period sum as well:
    chi(m) depends only on m mod P, so
        sum_{m<=M} chi(m)/m = sum_{r<=P} chi(r) w_r,
        w_r = sum_{m<=M, m = r (mod P)} 1/m,
    and only the period weights w_r run over all M terms.  Multiplying by
    chi(r) in {-1, 0, 1} is exact and each 1/m passes through fewer than M
    additions, so e2 bounds this order as it bounds any other.

    Every sum has an order fixed by M and P alone: numpy's row-by-row and
    pairwise sums, no BLAS, so the value is the same at any thread count and
    whether 1/m comes fresh or from the kept array of a longer earlier call.
    It is not bit-identical to the M-term dot product chi(1..M) . 1/m, which
    sums in another order; both lie within e2 of the exact sum.

    The value allocates no array of M entries: 1/m is read from the array
    kept across calls (`_Reciprocals`).  Its largest per-call arrays are
    the L period-weight sums, L = P for P >= 2^12, and the int8 table;
    sum r chi(r) is taken from row and column sums of that table, with no
    P-long index array.

    The bound needs B, and so all P partial sums T(1), ..., T(P), which the
    value does not.  `error_estimate` is therefore computed when read: each
    read rebuilds the character table and takes its partial sums.  The
    reports (`classify`, the total-mass and class-number checks) print the
    value alone and never pay for it.
    """

    D: int
    prime_bound: int
    value: float

    @property
    def error_estimate(self) -> float:
        table = _char_table(self.D)
        T = np.zeros(len(table), dtype=np.int64)  # T(1), ..., T(P); T(P) = 0
        np.cumsum(table[1:], dtype=np.int64, out=T[:-1])
        return _error_bound(T, self.prime_bound)


def _error_bound(T: np.ndarray, M: int) -> float:
    """e1 + e2 of `LTruncation` for M terms, with B exact from the partial
    sums T = T(1), ..., T(P) of one period."""
    P = len(T)
    # P U(n) = sum_{m<=n} (P T(m) - sum T), at most P^3 in size: P <= 10^6 fits
    # int64; built in place, one P-long temporary
    PU = T * P
    PU -= int(T.sum())
    np.cumsum(PU, out=PU)
    B_times_P = max(int(PU.max()), -int(PU.min()))
    e1 = 2 * (B_times_P / P) / ((M + 1) * (M + 2))
    nu = (M + 2) * 2.0**-53
    return e1 + nu / (1 - nu) * (math.log(M) + 2)


def _l_terms(D: int, prime_bound: int) -> int:
    """The number of terms M = max(prime_bound, 10 P) an L-value of chi_D
    uses; refuses D >= 0, D = 3 (mod 4) (through `_char_period`), a bound
    below 100 and any M above L_TERMS_MAX, in that order."""
    if D >= 0:
        raise ValueError("negative discriminant-like D required")
    P = _char_period(D)
    if prime_bound < 100:
        raise ValueError("prime_bound must be at least 100")
    # the Abel correction needs several full periods of partial sums
    M = max(int(prime_bound), 10 * P)
    if M > L_TERMS_MAX:
        raise ValueError(f"L-value needs {M} terms, more than the supported {L_TERMS_MAX}")
    return M


# The kept 1/m array grows to a multiple of this many terms (512 KiB): a
# rising --det-range asks for M = 10 S, a little more on every determinant,
# and one growth then serves some 6500 determinants.
_M_TERMS_STEP = 2**16

# The period weights are summed over rows of at least this many terms, a
# whole number of periods each: rows of one period would cost one numpy
# inner loop per P terms, which dominates at small P.
_ROW_TERMS_MIN = 2**12


class _Reciprocals:
    """1/1, ..., 1/N for N at least the largest M asked for, kept across
    L-values.

    The array grows only, to a multiple of `_M_TERMS_STEP` entries, so a
    call that needs no more terms than an earlier one computes no
    reciprocal.  On growth the old array is dropped before the new one is
    allocated, so the two are never held at once.  Calls from several
    threads at once could race on a growth; the package makes none.
    """

    def __init__(self) -> None:
        self.inv = np.empty(0)

    def view(self, M: int) -> np.ndarray:
        """The first M entries of 1/m, grown first if shorter than M
        (M <= L_TERMS_MAX, as `_l_terms` checks)."""
        if M > len(self.inv):
            N = min(-(-M // _M_TERMS_STEP) * _M_TERMS_STEP, L_TERMS_MAX)
            self.inv = np.empty(0)
            self.inv = np.arange(1, N + 1, dtype=np.float64)
            np.divide(1.0, self.inv, out=self.inv)
        return self.inv[:M]


_M_TERMS = _Reciprocals()


def _index_sum(table: np.ndarray) -> int:
    """sum r table[r] over 0 <= r < P, exactly, with no P-long array.

    With W = 2^12, r = W i + j over the (P // W, W) view of the int8 table,
    so its part of the sum is W sum i (row sum i) + sum j (column sum j);
    the tail r >= W (P // W), fewer than W entries, is one direct dot.  A
    row sum is at most W and a column sum at most P // W <= 244 in size
    (P <= L_TERMS_MAX / 10), so both are summed in int16, and the products
    in int64."""
    W = 2**12
    P = len(table)
    Q = P // W
    total = int(np.dot(table[Q * W :], np.arange(Q * W, P)))
    if Q:
        rows = table[: Q * W].reshape(Q, W)
        total += W * int(np.dot(rows.sum(1, dtype=np.int16), np.arange(Q)))
        total += int(np.dot(rows.sum(0, dtype=np.int16), np.arange(W)))
    return total


def l_value_truncated(D: int, prime_bound: int = 10**5) -> LTruncation:
    """Evaluate L(1, chi_D) for the Kronecker symbol chi_D = (D|.), D < 0.

    The character sum sum chi(m)/m is conditionally convergent; Abel
    summation against the periodic partial sums leaves a tail of at most
    2B/((M+1)(M+2)) (see `LTruncation`).  The number of terms
    M = max(prime_bound, 10 P) is capped at L_TERMS_MAX: a larger M is
    refused before any table or array is built.

    The character table and the Abel correction cover one period, and so
    does the character sum: sum chi(r) w_r over the period weights
    w_r = sum of 1/m over m <= M, m = r (mod P).  Summing the weights is
    the one M-term operation.  It reads 1/m from an array kept across calls
    (`_Reciprocals`, 8 bytes per term of the largest M so far, rounded up
    to a multiple of `_M_TERMS_STEP`, at most 80 MB), first adding rows of
    L terms, L a whole number of periods, then folding the L sums into P
    (skipped when L = P, where the one row is its own sum).  No array of M
    entries is allocated per call (see `LTruncation`); the largest per-call
    arrays are the L float64 weight sums, the int8 table and, for a prime
    p | D with odd exponent, its p-entry Legendre table with its (p - 1)/2
    int64 squares.  No BLAS call is made, so the value does not depend on
    the BLAS thread count.  The proven bound `error_estimate` is computed
    when read, not here; each read rebuilds the character table and takes
    its P partial sums.
    """
    M = _l_terms(D, prime_bound)
    table = _char_table(D)
    P = len(table)
    # chi_D is nonprincipal (D < 0), so T(P) = 0 and T has period P; and
    # table[0] = chi_D(P) = 0, as gcd(D, P) > 1
    assert int(table.sum(dtype=np.int64)) == 0, D
    # sum T = -sum r chi(r) (see `LTruncation`), exact in integers
    T_mean = -_index_sum(table) / P
    T_M = int(table[1 : M % P + 1].sum(dtype=np.int64))
    # w_r: K rows of L terms, then the tail, then the L sums folded into P
    # (K = 0 gives L zeros)
    inv = _M_TERMS.view(M)
    L = P * -(-_ROW_TERMS_MIN // P)
    K = M // L
    wl = inv[: K * L].reshape(K, L).sum(0)
    wl[: M - K * L] += inv[K * L :]
    # w[j] weighs chi(j + 1)
    w = wl if L == P else wl.reshape(-1, P).sum(0)
    np.multiply(w[:-1], table[1:], out=w[:-1])
    w[-1] = 0.0  # chi(P) = table[0] = 0
    partial = float(w.sum())
    abel = partial + (T_mean - T_M) / (M + 1)
    return LTruncation(D=D, prime_bound=M, value=abel)


def total_mass_numeric(S: int, prime_bound: int = 10**5) -> dict:
    """Exact census total mass vs the closed formula
    sqrt(S)/(4 pi) L(1, chi_-S), with the L-value from `l_value_truncated`.

    Its constant kappa is left out, as it is 1 for every S > 0: it differs
    from 1 only when S is a square with 2-adic unit 3 mod 4, but the odd part
    of a square is an odd square, and odd squares are 1 mod 8.

    The total mass reads only the class count: every proper class of det S
    has w = mu_order(-S) proper automorphisms, so it is h/(2w) with
    h = `class_count(S)`, read from `genus_mass`, the one mass formula, as
    `genus_census(S).total_mass` is, with no genus, form or symbol built.
    S = 1, 2 (mod 4) has no class and no L-value.  The L-value comes first,
    so a realizable S whose L-value would need more than L_TERMS_MAX terms
    is refused before the class scan."""
    if S <= 0:
        raise ValueError("determinant must be positive")
    if S % 4 in (0, 3):
        trunc = l_value_truncated(-S, prime_bound)
        census = genus_mass(class_count(S), mu_order(-S))
        rhs = math.sqrt(S) / (4 * math.pi) * trunc.value
        rel = abs(rhs - float(census)) / float(census)
    else:
        # unrealizable S: both sides vanish (the 2-adic factor kills the formula)
        census = Fraction(0)
        trunc = None
        rhs = 0.0
        rel = 0.0
    return {
        "det": S,
        "census": census,
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


def class_number(D: int) -> int:
    """h(D) = number of proper classes of primitive forms with det_H = |D|,
    for a negative fundamental discriminant D: `class_count(-D)`, read off
    the census's class window with no form built."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a negative fundamental discriminant")
    return class_count(-D)


def dirichlet_check(D: int, prime_bound: int = 10**5) -> dict:
    """Compare the census class number h against w sqrt(|D|)/(2 pi) L(1, chi_D):
    `total_mass_numeric` at S = -D, h/(2w) against sqrt(S)/(4 pi) L(1, chi_-S), scaled by 2w."""
    h, w = class_number(D), mu_order(D)
    numeric = total_mass_numeric(-D, prime_bound)
    predicted = 2 * w * numeric["rhs"]
    return {
        "D": D,
        "h": h,
        "w": w,
        "predicted": predicted,
        "rel_err": abs(predicted - h) / h,
        "trunc": numeric["trunc"],
    }


# ---------------------------------------------------------------------------
# report serialization


def _format_float(x: float) -> float:
    return float(f"{x:.12g}")


def report_json_obj(S: int, prime_bound: int = 10**5) -> dict:
    # refuses S <= 0, and an L-value too long before the O(S) class scan
    numeric = total_mass_numeric(S, prime_bound)
    records = genus_partition(S)
    # one row per class, sorted by its distinct (a, b, c) triple; each genus's
    # triples are in abc order, so its index list comes out ascending
    rows = sorted((abc, n, i) for i, g in enumerate(records) for abc, n in zip(g.classes, g.aut_orders))
    genera: list[list[int]] = [[] for _ in records]
    for k, (_, _, i) in enumerate(rows):
        genera[i].append(k)
    return {
        "schema": SCHEMA_VERSION,
        "det": S,
        "classes": [list(abc) for abc, _, _ in rows],
        "aut": [n for _, n, _ in rows],
        "genera": genera,
        "mass_exact": str(numeric["census"]),
        "kappa": 1,  # the closed formula's constant, 1 for every S over Q
        "rhs_numeric": _format_float(numeric["rhs"]),
        "rel_err": _format_float(numeric["rel_err"]),
    }


CSV_FIELDS = ["det", "classes", "aut", "genera", "mass_exact", "kappa", "rhs_numeric", "rel_err"]


def write_report_csv(objs: Iterable[dict], out: TextIO) -> None:
    """Flat CSV with the JSON fields, one row written per object as it comes;
    list-valued cells are ;-joined."""
    writer = csv.DictWriter(out, fieldnames=CSV_FIELDS, lineterminator="\n")
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
                "rhs_numeric": f"{obj['rhs_numeric']:.12g}",
                "rel_err": f"{obj['rel_err']:.12g}",
            }
        )


def _json_list(v: list) -> str:
    """A report's list, of ints or of int lists, as `json.dumps` with
    indent=2 lays out the value of a key of an object inside a list: one
    entry per line, an inner list's ints one per line below it, and [] for
    an empty list.  The first entry says which kind of list v is."""
    if not v:
        return "[]"
    if not isinstance(v[0], list):
        return "[\n      " + ",\n      ".join(map(int.__repr__, v)) + "\n    ]"
    rows = ["[\n        " + ",\n        ".join(map(int.__repr__, x)) + "\n      ]" if x else "[]" for x in v]
    return "[\n      " + ",\n      ".join(rows) + "\n    ]"


def write_report_json(objs: Iterable[dict], out: TextIO) -> None:
    """The bytes of `json.dumps(list(objs), indent=2, sort_keys=True)` and a
    newline, with each object written as it comes: a range of S holds one
    report at a time.

    The layout is written here from the shapes a report holds: a nonempty
    dict with str keys, whose values are scalars (int, str, float or None,
    each rendered by `json.dumps`), lists of ints or lists of int lists.
    Any `indent` makes `json.dumps` run its pure-Python encoder, one
    generator step per int, where this is one `join` per list."""
    sep = "[\n"
    for obj in objs:
        fields = [
            json.dumps(k) + ": " + (_json_list(v) if isinstance(v, list) else json.dumps(v))
            for k, v in sorted(obj.items())
        ]
        out.write(sep + "  {\n    " + ",\n    ".join(fields) + "\n  }")
        sep = ",\n"
    out.write("[]\n" if sep == "[\n" else "\n]\n")
