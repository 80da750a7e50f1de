"""p-adic integral invariants of binary forms: Jordan symbols at odd p, the
five 2-adic block shapes, same-genus tests, and enumeration of all local
genera with a given determinant squareclass.  Every symbol is read off a
primitive form: `jordan_split_odd` and `genus_symbol_2` refuse a form whose
content is divisible by p, at every prime.

At an odd p a primitive binary form splits over Z_p as <t> + <p^nu u t>,
with nu = ord_p(det_H), u the unit class of det_H / p^nu and t the class of
the p-unit coefficient a, or c when p | a (at nu = 0 only u is an invariant,
and t is fixed to QR).  `OddGenusSymbol` holds exactly (p, nu, u, t).

The rank-2 shape at 2 is a function of nu = ord_2(det_H) alone:
nu = 0 -> (2bar), nu = 2 -> (2), nu = 3 -> (1,1), nu = 4 -> (1;1),
nu >= 5 -> (1::1); nu = 1 cannot occur (4ac - b^2 is 0 or 3 mod 4).

Each symbol carries its Hasse label as `label`, the only place a label
lives.  Labels c_2 at 2 follow the sign convention of the 2-adic distribution
table: on the even-unimodular row (nu = 0) the label is -1 for both unit
classes, which differs from the pairwise Hilbert-symbol value +1 of the
underlying spaces.  The global bookkeeping compensates; see euler.py.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Union

from .arith import (
    NQR,
    QR,
    LocalSquareClass,
    factor,
    hilbert_symbol,
    is_prime,
    kronecker,
    smallest_nonresidue,
)
from .forms import QuadForm, content, det_hessian

SHAPE_BAR2 = "(2bar)"
SHAPE_I2 = "(2)"
SHAPE_11 = "(1,1)"
SHAPE_1_1 = "(1;1)"
SHAPE_TRAINS = "(1::1)"

_SHAPE_BY_NU = {0: SHAPE_BAR2, 2: SHAPE_I2, 3: SHAPE_11, 4: SHAPE_1_1}


def shape_for_nu(nu: int) -> str:
    if nu in _SHAPE_BY_NU:
        return _SHAPE_BY_NU[nu]
    if nu >= 5:
        return SHAPE_TRAINS
    raise ValueError(f"no rank-2 shape with ord_2(det) = {nu}")


class OddGenusSymbol(NamedTuple):
    """Jordan symbol at an odd prime of the primitive form <t> + <p^nu u t>:
    `unit` u is the class of det_H / p^nu and `tag` t the class of the p-unit
    coefficient a, or c when p | a.  At nu = 0 the tag is QR.  Held as the
    int tuple (p, nu, unit, tag): it compares and hashes as that tuple."""

    p: int
    nu: int
    unit: int
    tag: int

    def unit_rep(self) -> int:
        """Integer representing the determinant unit class (for chi/gamma)."""
        return _tag_rep(self.p, self.unit)

    @property
    def label(self) -> int:
        """Hasse invariant of any form in the genus (tag^nu)."""
        return self.tag if self.nu % 2 else 1


class TwoAdicGenusSymbol(NamedTuple):
    """2-adic invariant: ord_2(det), determinant unit mod 8, Hasse label c_2,
    and (for scale gaps >= 2) the leading-block unit class.  Held as the
    tuple (nu, unit, label, lead_unit, 2): five entries, so it never equals
    an `OddGenusSymbol`, which has four."""

    nu: int
    unit: int
    label: int
    lead_unit: int | None

    p: int = 2

    @property
    def shape(self) -> str:
        return shape_for_nu(self.nu)

    def unit_rep(self) -> int:
        return self.unit


LocalGenusSymbol = Union[OddGenusSymbol, TwoAdicGenusSymbol]


def _tag_rep(p: int, tag: int) -> int:
    """The least positive integer of unit class `tag` at an odd prime p."""
    return 1 if tag == QR else smallest_nonresidue(p)


def _canonical_lead(nu: int, u1: int) -> int | None:
    """Leading-unit invariant: mod 4 at nu = 4 (sign walking identifies
    u1 and 5*u1), mod 8 once the scale gap is at least 3; None below."""
    if nu >= 5:
        return u1 % 8
    if nu == 4:
        return u1 % 4
    return None


def jordan_split_odd(f: QuadForm, p: int) -> OddGenusSymbol:
    """Jordan symbol of a p-adically primitive binary form, p odd."""
    if p == 2 or not is_prime(p):
        raise ValueError("jordan_split_odd needs an odd prime")
    if content(f) % p == 0:
        raise ValueError("jordan_split_odd needs a p-adically primitive form")
    det = det_hessian(f)
    if det == 0:
        raise ValueError("degenerate form")
    d = LocalSquareClass.of(det, p)
    if d.val == 0:
        return OddGenusSymbol(p, 0, d.unit, QR)
    # a or c is a p-unit u1, and f splits over Z_p as <u1> + <det_H / u1>
    a, _, c = f
    return OddGenusSymbol(p, d.val, d.unit, kronecker(a if a % p else c, p))


@lru_cache(maxsize=None)
def two_adic_symbol(nu: int, unit: int, u1: int) -> TwoAdicGenusSymbol:
    """The 2-adic symbol of a primitive binary form with ord_2(det_H) = nu,
    det_H / 2^nu = unit (mod 8) and odd coefficient u1 (mod 8), a, or c when
    a is even: these three residues are all the symbol reads.  The label is
    the Hasse invariant (u1, -det_H)_2, since any value the form takes gives
    it, and the Hilbert symbol of a unit u1 reads only u1 and the class of
    -det_H mod squares.

    The only 2-adic genus rule the census reads: `euler.genus_partition`
    calls it at the four odd u1 (mod 8) once per S and keys each class by
    the index of its symbol.  `enumerate_local_genera` keeps its own table,
    so a defect here shows as a genus the table lacks.  Memoized: a census
    adds at most 4 entries per (nu, unit)."""
    if nu == 0:
        # even-unimodular row: table label, not the pairwise-symbol value
        return TwoAdicGenusSymbol(0, unit, -1, None)
    return TwoAdicGenusSymbol(nu, unit, hilbert_symbol(u1, -unit << nu, 2), _canonical_lead(nu, u1))


def genus_symbol_2(f: QuadForm) -> TwoAdicGenusSymbol:
    """2-adic genus invariant of a primitive integral binary form."""
    if content(f) % 2 == 0:
        raise ValueError("genus_symbol_2 needs a 2-adically primitive form")
    d = det_hessian(f)
    if d == 0:
        raise ValueError("degenerate form")
    sq = LocalSquareClass.of(d, 2)
    a, _, c = f
    return two_adic_symbol(sq.val, sq.unit, (a if a % 2 else c) % 8)


def local_symbol(f: QuadForm, p: int) -> LocalGenusSymbol:
    return genus_symbol_2(f) if p == 2 else jordan_split_odd(f, p)


def same_genus(f: QuadForm, g: QuadForm) -> bool:
    """True iff the primitive forms f and g have equal local invariants at 2
    and at every odd prime dividing the (shared) determinant."""
    df, dg = det_hessian(f), det_hessian(g)
    if df != dg:
        raise ValueError("same_genus needs equal determinants")
    for fm in (f, g):
        if not fm.is_positive_definite():
            raise ValueError("same_genus needs positive-definite forms")
    if genus_symbol_2(f) != genus_symbol_2(g):
        return False
    for p, _ in factor(df):
        if p != 2 and jordan_split_odd(f, p) != jordan_split_odd(g, p):
            return False
    return True


def enumerate_local_genera(S_p: LocalSquareClass) -> list[LocalGenusSymbol]:
    """All local genera of primitive binary p-integral forms of determinant
    class S_p, at its prime p = S_p.p.  Empty when no genus exists."""
    if S_p.val < 0:
        return []
    p, nu, u = S_p.p, S_p.val, S_p.unit
    if p != 2:
        return [OddGenusSymbol(p, nu, u, t) for t in ((QR,) if nu == 0 else (QR, NQR))]
    if nu == 0:
        if u % 4 != 3:
            return []
        return [TwoAdicGenusSymbol(0, u, -1, None)]
    if nu == 1:
        return []
    if nu == 2:
        if u % 4 == 1:
            return [TwoAdicGenusSymbol(nu, u, hilbert_symbol(u1, u1 * u % 8, 2), None) for u1 in (1, 3)]
        return [TwoAdicGenusSymbol(nu, u, 1, None)]
    if nu == 3:
        return [TwoAdicGenusSymbol(nu, u, c, None) for c in (1, -1)]
    out = []
    for u1 in (1, 3) if nu == 4 else (1, 3, 5, 7):
        u2 = u1 * u % 8
        # 2^(nu % 2) * u2 is in the squareclass of 2^(nu - 2) * u2
        c = hilbert_symbol(u1, 2 ** (nu % 2) * u2, 2)
        out.append(TwoAdicGenusSymbol(nu, u, c, _canonical_lead(nu, u1)))
    return out


def representative_form(sym: LocalGenusSymbol) -> QuadForm:
    """An explicit p-integral binary form lying in the given local genus;
    used to cross-validate the enumeration tables."""
    if isinstance(sym, OddGenusSymbol):
        p, t = sym.p, sym.tag
        return QuadForm(_tag_rep(p, t), 0, p**sym.nu * _tag_rep(p, sym.unit * t))
    nu, u = sym.nu, sym.unit
    if nu == 0:
        return QuadForm(1, 1, 1) if u % 8 == 3 else QuadForm(1, 1, 2)
    if nu == 2:
        if u % 4 == 3 or sym.label == 1:
            return QuadForm(1, 0, u)
        return QuadForm(3, 0, 3 * u % 8)
    if nu == 3:
        for u1 in (1, 3, 5, 7):
            if hilbert_symbol(u1, 2 * (u1 * u % 8), 2) == sym.label:
                return QuadForm(u1, 0, 2 * (u1 * u % 8))
        raise ValueError("no representative found")  # unreachable for valid symbols
    for u1 in (1, 3, 5, 7):
        if _canonical_lead(nu, u1) == sym.lead_unit:
            return QuadForm(u1, 0, 2 ** (nu - 2) * (u1 * u % 8))
    raise ValueError("no representative found")
