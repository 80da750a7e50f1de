"""The A/B Euler-factor coefficients from the normalized local mass sums, their
closed-form rational functions in X = q^(-s), and the exact global
decomposition identity for the total non-archimedean mass.

Ground truth is the enumeration pipeline (local genera -> local densities
-> density ratios); the closed forms are derived from it, and at p = 2 the
printed forms from the source tables are kept alongside as a comparison
target with a documented discrepancy report.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .arith import LocalSquareClass, chi, factor, gamma_factor, valuation
from .forms import QuadForm, mu_order, reduced_classes
from .localgenus import LocalGenusSymbol, enumerate_local_genera, two_adic_symbol
from .mass import density_product, density_ratio

# ---------------------------------------------------------------------------
# rational-function arithmetic over Q


class RationalFunction(NamedTuple):
    """Ratio of polynomials in one indeterminate X with exact rational
    coefficients: `den[0] == 1`, and the numerator is empty or ends nonzero.
    Held as the pair (num, den) of coefficient tuples, lowest degree first.

    Only the closed forms build these, and no closed-form numerator vanishes
    at a root of its denominator, so no common factor is cancelled.
    """

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    def series(self, terms: int) -> list[Fraction]:
        """First `terms` Taylor coefficients at X = 0 by long division."""
        out = []
        rem = list(self.num) + [Fraction(0)] * terms
        for k in range(terms):
            c = rem[k]
            out.append(c)
            for i, d in enumerate(self.den[1:], 1):
                if k + i < len(rem):
                    rem[k + i] -= c * d
        return out


def _row(num, den=(1,)) -> RationalFunction:
    """A closed-form row written as literals, its entries made `Fraction`s."""
    return RationalFunction(tuple(map(Fraction, num)), tuple(map(Fraction, den)))


# ---------------------------------------------------------------------------
# coefficient pipeline


@lru_cache(maxsize=None)
def _ab_coeff(p: int, unit: int, nu: int) -> tuple[Fraction, Fraction]:
    """(A, B) at the determinant class unit * p^nu.  The normalized mass sum
    M~^eps adds beta_generic/beta_G over the local genera of Hasse label
    eps, so M~^+- = (A +- B)/2.

    In rank 2 every genus of one class has the same ratio r: both densities
    read only the class's (p, nu, unit), never the genus's own data.  So A is
    r times the number of genera and B is r times the sum of their labels,
    with one `density_ratio` read per class; (0, 0) when it has no genus."""
    genera = enumerate_local_genera(LocalSquareClass(p, nu, unit))
    if not genera:
        return Fraction(0), Fraction(0)
    r = density_ratio(genera[0])
    return r * len(genera), r * sum(sym.label for sym in genera)


def a_coeff(p: int, u: int, nu: int) -> Fraction:
    """A_p(u * p^nu) = M~^+ + M~^-, from the enumeration pipeline.  Reads
    only u's unit class at p and ignores its p-part."""
    return _ab_coeff(p, LocalSquareClass.of(u, p).unit, nu)[0]


def b_coeff(p: int, u: int, nu: int) -> Fraction:
    """B_p(u * p^nu) = M~^+ - M~^-, from the enumeration pipeline.  Reads
    only u's unit class at p and ignores its p-part."""
    return _ab_coeff(p, LocalSquareClass.of(u, p).unit, nu)[1]


def closed_form(p: int, u: int, which: str, variant: str = "table") -> RationalFunction:
    """Closed-form A/B Euler factor at a prime p for the fixed unit class of
    the p-unit u, as a rational function of X = q^(-s); any other (p, u) is
    refused, as `qfmass euler` refuses it.

    variant="table" reconstructs the series the enumeration actually sums
    (the authoritative one); variant="as-printed" returns the literal stated
    forms, which at p = 2 disagree with the table in documented ways.
    """
    if which not in ("A", "B"):
        raise ValueError("which must be 'A' or 'B'")
    if variant not in ("table", "as-printed"):
        raise ValueError("variant must be 'table' or 'as-printed'")
    if valuation(u, p):  # which also refuses u = 0 and a p that is not prime
        raise ValueError(f"u must be a unit at {p}, got {u}")
    x = chi(u, p)
    q = Fraction(p)
    if p != 2:
        # both variants agree at odd p
        if which == "A":
            return _row((1, -x / q**2), (1, -1 / q))
        return _row((1, 0, -x / q**3), (1, 0, -1 / q**2))
    g = gamma_factor(u, 2)
    if variant == "as-printed":
        if which == "A":
            return _row((1, Fraction(-x, 8)), (1, Fraction(-1, 2)))
        if u % 4 == 1:
            return _row(())
        return _row((-1, 0, Fraction(4 - x, 8)), (1, 0, Fraction(-1, 8)))
    if which == "A":
        head = (1, Fraction(-1, 2), g / 4) if u % 4 == 3 else (0, 0, g / 4)
        return _row(head, (1, Fraction(-1, 2)))
    if u % 4 == 1:
        return _row(())
    return _row((-1, 0, Fraction(4 - x, 8)), (1, 0, Fraction(-1, 4)))


def closed_form_report(p: int, u: int, which: str, terms: int = 12) -> dict:
    """Compare the pipeline coefficients at nu < terms against both
    closed-form variants, and list the nu where the as-printed one differs."""
    table = closed_form(p, u, which, "table").series(terms)
    printed = closed_form(p, u, which, "as-printed").series(terms)
    coeff = a_coeff if which == "A" else b_coeff
    pipeline = [coeff(p, u, nu) for nu in range(terms)]
    return {
        "table_matches": pipeline == table,
        "printed_matches": pipeline == printed,
        "printed_mismatch_at": [i for i in range(terms) if pipeline[i] != printed[i]],
    }


# ---------------------------------------------------------------------------
# the global decomposition identity


class GenusRecord(NamedTuple):
    """One genus of primitive proper classes of a determinant: its classes as
    the class source hands them over, `QuadForm`s in (a, b, c) order, with its
    local symbols (each carrying its Hasse label) at p | 2S and its mass, sum
    over the classes of 1/(2 |proper Aut|).  `aut_orders` is computed when
    read; only `classify`, the tests and the demos read it.  Records are
    shared through the `genus_partition` memo, so no caller may mutate the
    symbols dict.
    """

    classes: tuple[QuadForm, ...]
    symbols: dict[int, LocalGenusSymbol]
    mass: Fraction

    @property
    def aut_orders(self) -> list[int]:
        """|Aut f| per class, from the closed form for a reduced primitive
        form of discriminant -S: w = mu_order(-S) proper automorphisms, and
        2w when the form is ambiguous (b = 0, a = b or a = c).
        `forms.automorphism_count` is the oracle the tests hold this to."""
        a, b, c = self.classes[0]
        w = mu_order(b * b - 4 * a * c)
        return [2 * w if b == 0 or a == b or a == c else w for a, b, c in self.classes]


# GenusRecord from a tuple of its fields without the NamedTuple's
# Python-level __new__, as `forms._new_form` builds each class
_new_record = partial(tuple.__new__, GenusRecord)


@lru_cache(maxsize=256)
def genus_mass(n: int, w: int) -> Fraction:
    """n/(2w), the mass of n proper classes of w proper automorphisms each:
    a genus's mass in `genus_partition` and a census total in
    `globalmass.genus_census`.  Memoized on (n, w), so the census of one S
    and of the next reuse each small mass built once."""
    return Fraction(n, 2 * w)


@lru_cache(maxsize=1)
def _local_split(S: int) -> dict[int, LocalSquareClass]:
    """S's valuation and unit class, `LocalSquareClass.of(S, p)`, at p = 2
    and at each odd p | S in increasing order: split once per S for the
    census and both decomposition checks.  The valuations are the exponents
    of `factor(S)`, so no prime is tested or divided out again, and each
    class comes from `LocalSquareClass._of_unit`, the builder that `of`
    calls.  Shared, so no caller may mutate it."""
    exponents = dict(factor(S))
    v2 = exponents.pop(2, 0)
    split = {2: LocalSquareClass._of_unit(2, v2, S >> v2)}
    for p, v in exponents.items():
        split[p] = LocalSquareClass._of_unit(p, v, S // p**v)
    return split


@lru_cache(maxsize=1)
def genus_partition(S: int) -> tuple[GenusRecord, ...]:
    """Primitive proper classes of determinant S grouped into genera, the
    only enumeration behind the census.  The classes come from the class
    source `reduced_classes` as (a, b, c) int triples in `abc` order, kept
    within and across genera.  Memoized for the latest S: the census and
    both decomposition checks of one S share one build.  A record holds no
    density product; `decomposition_check` forms it where it reads it.

    A genus is its tuple of local symbols at p | 2S, and classes are grouped
    by that tuple, read off plain ints: the census builds no form,
    automorphism order or symbol per class.  The key of a class is one int:
    two bits for its 2-adic symbol, then one bit per odd p | S, set when its
    tag at p is NQR.  Both parts read values the form represents.

    - At 2 the symbol is `two_adic_symbol` at ord_2(S), the unit of S mod 8
      and the odd value u1 = a, or c when a is even (b = S (mod 2), so a and
      c are not both even), and it reads only u1 mod 8.  So the four symbols
      at u1 = 1, 3, 5, 7 are built once per S, and the two key bits of a
      class are the first index in that list of the symbol at
      (u1 >> 1) & 3, where a genus reads its symbol back.
    - At an odd p | S the tag is t_p = (a|p), or (c|p) when p | a.
      A primitive f = (a, b, c) with 4ac - b^2 = S cannot have p | a and
      p | c (p would divide b too), and it splits over Z_p as
      <u1> + <S/u1> with u1 = a or c the p-unit; so its Jordan symbol is
      OddGenusSymbol(p, v, d, t_p) with (v, d) = `LocalSquareClass.of(S, p)`,
      fixed by S and split once per S by `_local_split`.  Equal t_p thus
      means an equal odd symbol.  At v >= 1 `enumerate_local_genera`
      lists exactly the QR and the NQR symbol, read once per S, and a
      genus's symbol at p is the one its key bit picks.
      The bit is t_p = -1 by Euler's criterion, u1^((p-1)/2) mod p != 1,
      the rule `LocalSquareClass.of` tags units by.

    Every class has w = mu_order(-S) proper automorphisms, so a genus of n
    classes has mass n/(2w), read from the `genus_mass` memo;
    `GenusRecord.aut_orders` gives |Aut| per class when read.  Records are
    built from their field tuples by `tuple.__new__`, which skips only the
    NamedTuple's argument parsing: the values and their types are those the
    constructor would give.
    """
    if S <= 0:
        raise ValueError("determinant must be positive")
    if S % 4 in (1, 2):
        return ()  # 4ac - b^2 is 0 or 3 mod 4: no form, so no scan or split
    split = _local_split(S)
    odd = list(split)[1:]
    w = mu_order(-S)
    sq2 = split[2]
    syms = [two_adic_symbol(sq2.val, sq2.unit, u1) for u1 in (1, 3, 5, 7)]
    key_2 = [syms.index(sym) for sym in syms]

    groups: dict[int, list[QuadForm]] = {}
    for f in reduced_classes(S):
        a, _, c = f
        key = key_2[((a if a & 1 else c) >> 1) & 3]
        bit = 1 << 2
        for p in odd:
            if pow(a if a % p else c, p >> 1, p) != 1:
                key |= bit
            bit <<= 1
        groups.setdefault(key, []).append(f)
    odd_syms = [enumerate_local_genera(split[p]) for p in odd]
    # insertion order is the order of each genus's first class
    records = []
    for key, classes in groups.items():
        symbols: dict[int, LocalGenusSymbol] = {2: syms[key & 3]}
        bit = 1 << 2
        for p, (qr, nqr) in zip(odd, odd_syms):
            symbols[p] = nqr if key & bit else qr
            bit <<= 1
        records.append(_new_record((tuple(classes), symbols, genus_mass(len(classes), w))))
    return tuple(records)


def decomposition_check(S: int, hasse_constraints: dict[int, int] | None = None) -> dict:
    """Exact coefficient-level check of the mass decomposition at S.

    LHS: sum over global genera of det S (filtered by any Hasse constraints)
    of the product over p in T = {2} u supp(S) of beta_gen/beta_G.
    RHS: [prod M~^{c_p} over constrained p] * (1/2)[prod A + C prod B] over
    the unconstrained p in T, with C = eps_infty * (-1)^[2 did not divide S]
    * prod c_p.  The (-1) factor mirrors the sign convention of the 2-adic
    unimodular row; with it the identity is exact for every S and constraint.

    Both sides are accumulated as unreduced integer pairs (numerator,
    denominator) from the numerators and denominators of the memoized
    `density_ratio` and `_ab_coeff` values, so no gcd is taken per multiply
    or add; each genus's product is `mass.density_product` of its symbols,
    the one product loop.  Every denominator is positive, so
    cross-multiplication decides `equal`.  Returns {"lhs", "rhs", "equal"},
    with `lhs` and `rhs` as reduced `Fraction`s: `lhs` is reduced once and,
    when `equal`, returned as `rhs` too; `rhs` is reduced on its own only on
    a mismatch, the one case where the two differ.  S's split at p | 2S
    comes from `_local_split`, shared with the census.
    """
    constraints = hasse_constraints or {}
    if any(eps not in (1, -1) for eps in constraints.values()):
        raise ValueError("eps must be +-1")
    split = _local_split(S)
    T = sorted(set(split) | set(constraints))
    # a constrained prime not dividing 2S is split here, which also refuses a non-prime
    local = {p: split[p] if p in split else LocalSquareClass.of(S, p) for p in T}

    ln, ld = 0, 1
    for rec in genus_partition(S):
        symbols = rec.symbols
        for p, want in constraints.items():
            # good primes carry label +1
            if (symbols[p].label if p in symbols else 1) != want:
                break
        else:
            n, d = density_product(symbols)
            ln, ld = ln * d + n * ld, ld * d

    eps_infty = 1  # positive-definite binary forms
    C = eps_infty * (-1 if S % 2 else 1)
    kn = kd = an = ad = bn = bd = 1  # K, prod A and prod B
    for p in T:
        A, B = _ab_coeff(p, local[p].unit, local[p].val)
        (a_n, a_d), (b_n, b_d) = A.as_integer_ratio(), B.as_integer_ratio()
        if p in constraints:
            # a constrained p contributes M~^{c_p} = (A + c_p B)/2
            c = constraints[p]
            kn *= a_n * b_d + c * b_n * a_d
            kd *= 2 * a_d * b_d
            C *= c
        else:
            an *= a_n
            ad *= a_d
            bn *= b_n
            bd *= b_d
    # rhs = K (prod A + C prod B) / 2
    rn = kn * (an * bd + C * bn * ad)
    rd = 2 * kd * ad * bd
    lhs = Fraction(ln, ld)
    equal = ln * rd == rn * ld
    return {"lhs": lhs, "rhs": lhs if equal else Fraction(rn, rd), "equal": equal}


def sign_tuple_identity(t_size: int, c: int) -> bool:
    """Check sum over sign tuples with product c of prod(X_i + e_i Y_i)
    = 2^(|T|-1) (prod X_i + c prod Y_i) exactly, monomial by monomial: the
    coefficient of prod_{i in I} Y_i prod_{i not in I} X_i on the left is the
    sum of prod_{i in I} e_i over the tuples, and on the right 2^(|T|-1) times
    1 at I = {}, c at I = T and 0 otherwise."""
    if not 1 <= t_size <= 4:
        raise ValueError("t_size must be between 1 and 4")
    if c not in (1, -1):
        raise ValueError("c must be +-1")
    tuples = [e for e in itertools.product((1, -1), repeat=t_size) if math.prod(e) == c]
    for subset in itertools.product((False, True), repeat=t_size):
        lhs = sum(math.prod(s for s, inside in zip(e, subset) if inside) for e in tuples)
        rhs = 1 if not any(subset) else c if all(subset) else 0
        if lhs != 2 ** (t_size - 1) * rhs:
            return False
    return True
