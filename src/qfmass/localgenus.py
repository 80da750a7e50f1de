"""p-adic integral invariants of binary forms: Jordan symbols at odd p, the
five 2-adic block shapes, same-genus tests, and enumeration of all local
genera with a given determinant squareclass.

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

from dataclasses import dataclass
from typing import Union

from .arith import (
    NQR,
    QR,
    LocalSquareClass,
    _valuation,
    factor,
    hilbert_symbol,
    is_prime,
    kronecker,
    smallest_nonresidue,
)
from .forms import QuadForm, content, det_hessian, hasse_invariant

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


@dataclass(frozen=True)
class OddGenusSymbol:
    """Jordan symbol at an odd prime: ordered (scale, dim, unit tag) blocks."""

    p: int
    blocks: tuple[tuple[int, int, int], ...]

    @property
    def nu(self) -> int:
        return sum(scale * dim for scale, dim, _ in self.blocks)

    def det_tag(self) -> int:
        t = 1
        for _, _, tag in self.blocks:
            t *= tag
        return t

    def unit_rep(self) -> int:
        """Integer representing the determinant unit class (for chi/gamma)."""
        return _tag_rep(self.p, self.det_tag())

    @property
    def label(self) -> int:
        """Hasse invariant of any form in the genus (leading tag^nu)."""
        if len(self.blocks) == 1:
            return 1
        (_, _, tag1), (scale2, _, _) = self.blocks
        return tag1 if scale2 % 2 else 1


@dataclass(frozen=True)
class TwoAdicGenusSymbol:
    """2-adic invariant: ord_2(det), determinant unit mod 8, Hasse label c_2,
    and (for scale gaps >= 2) the leading-block unit class."""

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
    """Jordan splitting of a nondegenerate binary form over Z_p, p odd."""
    if p == 2 or not is_prime(p):
        raise ValueError("jordan_split_odd needs an odd prime")
    if det_hessian(f) == 0:
        raise ValueError("degenerate form")
    k = _valuation(content(f), p)
    a, b, c = (x // p**k for x in f.abc)
    d = LocalSquareClass.of(4 * a * c - b * b, p)
    if d.val == 0:
        return OddGenusSymbol(p, ((k, 2, d.unit),))
    # primitive at p with positive valuation: a or c is a p-unit
    tag1 = kronecker(a if a % p else c, p)
    return OddGenusSymbol(p, ((k, 1, tag1), (k + d.val, 1, d.unit * tag1)))


def genus_symbol_2(f: QuadForm) -> TwoAdicGenusSymbol:
    """2-adic genus invariant of a primitive integral binary form."""
    if content(f) % 2 == 0:
        raise ValueError("genus_symbol_2 needs a 2-adically primitive form")
    d = det_hessian(f)
    if d == 0:
        raise ValueError("degenerate form")
    sq = LocalSquareClass.of(d, 2)
    nu, unit = sq.val, sq.unit
    if nu == 0:
        # even-unimodular row: table label, not the pairwise-symbol value
        return TwoAdicGenusSymbol(0, unit, -1, None)
    a, _, c = f.abc
    u1 = a if a % 2 else c
    return TwoAdicGenusSymbol(nu, unit, hasse_invariant(f, 2), _canonical_lead(nu, u1 % 8))


def local_symbol(f: QuadForm, p: int) -> LocalGenusSymbol:
    return genus_symbol_2(f) if p == 2 else jordan_split_odd(f, p)


def same_genus(f: QuadForm, g: QuadForm) -> bool:
    """True iff f and g have equal local invariants at 2 and at every odd
    prime dividing the (shared) determinant."""
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


def enumerate_local_genera(
    p: int, S_p: LocalSquareClass
) -> list[LocalGenusSymbol]:
    """All local genera of primitive binary p-integral forms of determinant
    class S_p.  Empty when no genus exists."""
    if S_p.p != p:
        raise ValueError("squareclass prime mismatch")
    if S_p.val < 0:
        return []
    nu, u = S_p.val, S_p.unit
    if p != 2:
        if nu == 0:
            return [OddGenusSymbol(p, ((0, 2, u),))]
        return [OddGenusSymbol(p, ((0, 1, eps1), (nu, 1, u * eps1))) for eps1 in (QR, NQR)]
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
        p = sym.p
        if len(sym.blocks) == 1:
            scale, _, tag = sym.blocks[0]
            return QuadForm(p**scale, 0, p**scale * _tag_rep(p, tag))
        (s1, _, t1), (s2, _, t2) = sym.blocks
        return QuadForm(p**s1 * _tag_rep(p, t1), 0, p**s2 * _tag_rep(p, t2))
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
