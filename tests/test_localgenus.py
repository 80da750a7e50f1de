from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfmass.arith import NQR, QR, LocalSquareClass, factor, legendre
from qfmass.forms import QuadForm, content, det_hessian, enumerate_classes, hasse_invariant
from qfmass.localgenus import (
    SHAPE_11,
    SHAPE_1_1,
    SHAPE_BAR2,
    SHAPE_I2,
    SHAPE_TRAINS,
    OddGenusSymbol,
    TwoAdicGenusSymbol,
    enumerate_local_genera,
    genus_symbol_2,
    jordan_split_odd,
    local_symbol,
    representative_form,
    same_genus,
    shape_for_nu,
    two_adic_symbol,
)

from .test_forms import random_posdef, random_sl2


# ---------------------------------------------------------------------------
# jordan splitting at odd p


def test_jordan_unimodular():
    sym = jordan_split_odd(QuadForm(1, 0, 1), 5)
    assert (sym.nu, sym.unit, sym.tag) == (0, legendre(4, 5), QR)


def test_jordan_split_examples():
    sym = jordan_split_odd(QuadForm(1, 1, 1), 3)
    assert (sym.nu, sym.unit, sym.tag) == (1, QR, QR)
    sym = jordan_split_odd(QuadForm(1, 0, 5), 5)
    assert (sym.nu, sym.unit, sym.tag) == (1, QR, QR)
    # det_H = 40 with unit part 8 ~ NQR mod 5, and a = 2 ~ NQR mod 5
    sym = jordan_split_odd(QuadForm(2, 0, 5), 5)
    assert (sym.nu, sym.unit, sym.tag) == (1, NQR, NQR)


def test_jordan_hasse_consistent_with_direct_invariant():
    rng = random.Random(9)
    for _ in range(80):
        f = random_posdef(rng)
        d = det_hessian(f)
        for p in (3, 5, 7):
            if d % p:
                continue
            if content(f) % p == 0:
                with pytest.raises(ValueError):
                    jordan_split_odd(f, p)
                continue
            assert jordan_split_odd(f, p).label == hasse_invariant(f, p)


def test_jordan_rejects_bad_input():
    with pytest.raises(ValueError):
        jordan_split_odd(QuadForm(1, 0, 1), 2)
    with pytest.raises(ValueError):
        jordan_split_odd(QuadForm(1, 2, 1), 3)


def test_local_symbols_refuse_imprimitive_forms_at_every_prime():
    # p | content(f): the label read off the scaled form would disagree with
    # the Hasse invariant, e.g. (3, 0, 3) at 3 has Hasse invariant -1
    for abc, p in (((3, 0, 3), 3), ((5, 0, 10), 5), ((9, -9, 6), 3)):
        with pytest.raises(ValueError, match="primitive"):
            jordan_split_odd(QuadForm(*abc), p)
    with pytest.raises(ValueError, match="primitive"):
        genus_symbol_2(QuadForm(2, 0, 2))


# ---------------------------------------------------------------------------
# the 2-adic symbol


def test_genus_symbol_2_examples():
    sym = genus_symbol_2(QuadForm(1, 1, 1))
    assert (sym.shape, sym.unit, sym.label) == (SHAPE_BAR2, 3, -1)
    sym = genus_symbol_2(QuadForm(1, 0, 1))
    assert (sym.shape, sym.nu, sym.unit, sym.label) == (SHAPE_I2, 2, 1, 1)
    sym = genus_symbol_2(QuadForm(1, 0, 2))
    assert (sym.shape, sym.nu, sym.unit) == (SHAPE_11, 3, 1)
    assert sym.label == hasse_invariant(QuadForm(1, 0, 2), 2) == 1


def test_symbols_are_immutable_tuples():
    odd = jordan_split_odd(QuadForm(1, 1, 1), 3)
    two = genus_symbol_2(QuadForm(1, 1, 2))
    assert repr(odd) == "OddGenusSymbol(p=3, nu=1, unit=1, tag=1)"
    assert repr(two) == "TwoAdicGenusSymbol(nu=0, unit=7, label=-1, lead_unit=None, p=2)"
    assert odd == (3, 1, 1, 1) and two == (0, 7, -1, None, 2)
    assert TwoAdicGenusSymbol(0, 7, -1, None) == two
    for sym, field in ((odd, "tag"), (odd, "p"), (two, "label"), (two, "p")):
        with pytest.raises(AttributeError):
            setattr(sym, field, 1)


def test_shape_is_determined_by_nu():
    assert shape_for_nu(0) == SHAPE_BAR2
    assert shape_for_nu(2) == SHAPE_I2
    assert shape_for_nu(3) == SHAPE_11
    assert shape_for_nu(4) == SHAPE_1_1
    assert shape_for_nu(7) == SHAPE_TRAINS
    with pytest.raises(ValueError):
        shape_for_nu(1)


def test_no_primitive_form_has_nu_one():
    # 4ac - b^2 is 0 mod 4 (b even) or 3 mod 4 (b odd): ord_2 = 1 cannot occur
    for a in range(1, 30):
        for b in range(-a, a + 1):
            for c in range(a, 30):
                d = 4 * a * c - b * b
                if d > 0:
                    assert not (d % 4 == 2), (a, b, c)


def test_genus_symbol_2_requires_primitive():
    with pytest.raises(ValueError):
        genus_symbol_2(QuadForm(2, 0, 2))


# ---------------------------------------------------------------------------
# same_genus


def test_same_genus_examples():
    f = QuadForm(2, 1, 3)
    g = QuadForm(2, -1, 3)
    assert same_genus(f, g)
    assert same_genus(f, f)
    # det 23 is a prime discriminant: a single genus holds all three classes
    assert same_genus(QuadForm(1, 1, 6), f)


def test_same_genus_splits_det_36():
    f, g = QuadForm(1, 0, 9), QuadForm(2, 2, 5)
    assert not same_genus(f, g)


def test_same_genus_splits_det_48_by_lead_unit():
    # both genera share (shape, unit, label) at 2; the leading unit separates them
    f, g = QuadForm(1, 0, 12), QuadForm(3, 0, 4)
    s1, s2 = genus_symbol_2(f), genus_symbol_2(g)
    assert (s1.shape, s1.unit, s1.label) == (s2.shape, s2.unit, s2.label)
    assert s1.lead_unit != s2.lead_unit
    assert not same_genus(f, g)


def test_same_genus_rejects_mismatched_determinants():
    with pytest.raises(ValueError):
        same_genus(QuadForm(1, 1, 1), QuadForm(1, 0, 1))


def test_same_genus_equivalence_relation_and_proper_invariance():
    rng = random.Random(2)
    for S in (23, 36, 48, 75, 99, 120):
        forms = enumerate_classes(S)
        for f in forms:
            t = random_sl2(rng)
            g = f.transform(t)
            from qfmass.forms import reduce_binary

            assert same_genus(f, reduce_binary(g))
        for f in forms:
            for g in forms:
                assert same_genus(f, g) == same_genus(g, f)
        for f in forms:
            for g in forms:
                for h in forms:
                    if same_genus(f, g) and same_genus(g, h):
                        assert same_genus(f, h)


# ---------------------------------------------------------------------------
# enumeration of local genera


def test_enumerate_odd_p_counts():
    for p in (3, 5, 7, 11, 13, 17):
        for u in (QR, NQR):
            got = enumerate_local_genera(LocalSquareClass(p, 0, u))
            assert len(got) == 1 and got[0].label == 1
            for nu in range(1, 9):
                got = enumerate_local_genera(LocalSquareClass(p, nu, u))
                counts = Counter(sym.label for sym in got)
                if nu % 2:
                    assert counts == Counter({1: 1, -1: 1})
                else:
                    assert counts == Counter({1: 2})


def test_enumerate_two_adic_counts_match_distribution_table():
    expected = {}
    for u in (1, 3, 5, 7):
        expected[(0, u)] = {3: (0, 1), 7: (0, 1), 1: (0, 0), 5: (0, 0)}[u]
        expected[(1, u)] = (0, 0)
        expected[(2, u)] = (1, 1) if u % 4 == 1 else (1, 0)
        expected[(3, u)] = (1, 1)
        expected[(4, u)] = (1, 1) if u % 4 == 1 else (2, 0)
        for nu in (5, 6, 7, 8):
            if nu % 2 == 0 and u % 4 == 3:
                expected[(nu, u)] = (4, 0)
            else:
                expected[(nu, u)] = (2, 2)
    for (nu, u), (plus, minus) in expected.items():
        got = enumerate_local_genera(LocalSquareClass(2, nu, u))
        counts = Counter(sym.label for sym in got)
        assert (counts[1], counts[-1]) == (plus, minus), (nu, u)
    # the per-form rule `two_adic_symbol` meets every genus of the table and
    # no other, on each realizable (nu, u)
    realizable = 0
    for nu in range(16):
        for u in (1, 3, 5, 7):
            got = enumerate_local_genera(LocalSquareClass(2, nu, u))
            if got:
                realizable += 1
                assert {two_adic_symbol(nu, u, u1) for u1 in (1, 3, 5, 7)} == set(got), (nu, u)
    assert realizable == 58


def test_representatives_realize_their_symbols():
    for p in (3, 5, 2):
        for u in ((QR, NQR) if p != 2 else (1, 3, 5, 7)):
            for nu in range(0, 8):
                for sym in enumerate_local_genera(LocalSquareClass(p, nu, u)):
                    f, label = representative_form(sym), sym.label
                    assert local_symbol(f, p) == sym
                    if p != 2:
                        assert hasse_invariant(f, p) == label
                    elif nu >= 2:
                        assert hasse_invariant(f, 2) == label
                    else:
                        # unimodular-row convention: label -1, pairwise symbol +1
                        assert hasse_invariant(f, 2) == 1 and label == -1


@st.composite
def primitive_posdef_forms(draw):
    """Primitive positive-definite forms with coefficients up to 10^3, not
    reduced."""
    a = draw(st.integers(1, 1000))
    c = draw(st.integers(1, 1000))
    b = draw(st.integers(-1000, 1000))
    f = QuadForm(a, b, c)
    assume(4 * a * c - b * b > 0 and content(f) == 1)
    return f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(primitive_posdef_forms())
def test_local_symbol_lies_in_its_table_and_carries_the_hasse_invariant(f):
    d = det_hessian(f)
    for p in sorted({2} | {p for p, _ in factor(d)}):
        sym = local_symbol(f, p)
        assert sym in enumerate_local_genera(LocalSquareClass.of(d, p)), (f, p)
        if p == 2 and sym.nu == 0:
            # unimodular-row convention: label -1, pairwise symbol +1
            assert (sym.label, hasse_invariant(f, 2)) == (-1, 1)
        else:
            assert sym.label == hasse_invariant(f, p), (f, p)


def test_completeness_census():
    """Every global class's local symbol appears among the enumerated local
    genera, and the genus labels multiply to the expected global sign."""
    for S in range(1, 2001):
        for f in enumerate_classes(S):
            label_prod = 1
            plain_prod = 1
            for p in sorted({2} | {p for p, _ in factor(S)}):
                sym = local_symbol(f, p)
                table = enumerate_local_genera(LocalSquareClass.of(S, p))
                match = [s.label for s in table if s == sym]
                assert len(match) == 1, (S, f, p)
                label_prod *= match[0]
                plain_prod *= hasse_invariant(f, p)
            assert plain_prod == 1, (S, f)
            assert label_prod == (-1 if S % 2 else 1), (S, f)


def test_uniqueness_at_good_odd_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for u in (QR, NQR):
            assert len(enumerate_local_genera(LocalSquareClass(p, 0, u))) == 1
