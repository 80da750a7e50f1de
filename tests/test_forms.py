from __future__ import annotations

import itertools
import random
import tracemalloc
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfmass import forms as forms_module
from qfmass.arith import OO, factor, hilbert_symbol, legendre
from qfmass.forms import (
    QuadForm,
    automorphism_count,
    class_count,
    det_hessian,
    enumerate_classes,
    hasse_invariant,
    is_primitive,
    proper_automorphism_count,
    reduce_binary,
    reduced_classes,
    scale_hasse,
)
from qfmass.localgenus import local_symbol


# ---------------------------------------------------------------------------
# oracles


def reduce_by_search(f: QuadForm, bound: int = 10) -> QuadForm:
    """Brute-force reduction: scan unimodular changes of variable with
    entries bounded by `bound` and return the reduced image."""
    best = None
    for p, q, r, s in itertools.product(range(-bound, bound + 1), repeat=4):
        if p * s - q * r != 1:
            continue
        g = f.transform(((p, q), (r, s)))
        aa, bb, cc = g
        if abs(bb) <= aa <= cc and (bb >= 0 or (aa < cc and aa != abs(bb))):
            assert best is None or best == g, "two reduced images"
            best = g
    assert best is not None
    return best


def aut_by_search(f: QuadForm, bound: int = 6) -> tuple[int, int]:
    """(full, proper) automorphism counts by exhaustive matrix scan."""
    full = proper = 0
    for p, q, r, s in itertools.product(range(-bound, bound + 1), repeat=4):
        det = p * s - q * r
        if det not in (1, -1):
            continue
        if f.transform(((p, q), (r, s))) == f:
            full += 1
            if det == 1:
                proper += 1
    return full, proper


def classes_by_rescan(S: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms of determinant S by a redundant full scan
    plus reduction-based deduplication."""
    seen = set()
    for a in range(1, isqrt(S) + 1):
        for b in range(-2 * a, 2 * a + 1):
            num = S + b * b
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c > 0 and 4 * a * c - b * b == S:
                    f = QuadForm(a, b, c)
                    if is_primitive(f):
                        seen.add(reduce_binary(f))
    return sorted(seen)


def random_sl2(rng: random.Random, steps: int = 8):
    m = [[1, 0], [0, 1]]

    def mul(x, y):
        return [
            [x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
            [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]],
        ]

    for _ in range(steps):
        k = rng.randint(-3, 3)
        g = [[1, k], [0, 1]] if rng.random() < 0.5 else [[0, -1], [1, 0]]
        if rng.random() < 0.5:
            g = [[1, 0], [k, 1]]
        m = mul(m, g)
    return ((m[0][0], m[0][1]), (m[1][0], m[1][1]))


def random_posdef(rng: random.Random) -> QuadForm:
    a = rng.randint(1, 12)
    c = rng.randint(1, 12)
    b = rng.randint(-2 * isqrt(a * c) + 1, 2 * isqrt(a * c) - 1) if a * c > 0 else 0
    if 4 * a * c - b * b <= 0:
        return random_posdef(rng)
    return QuadForm(a, b, c)


# ---------------------------------------------------------------------------
# construction and determinant


def test_det_hessian_examples():
    assert det_hessian(QuadForm(1, 1, 1)) == 3
    assert det_hessian(QuadForm(1, 0, 1)) == 4
    assert det_hessian(QuadForm(2, 1, 3)) == 23


def test_values_and_coefficients():
    f = QuadForm(2, 1, 3)
    assert f(1, 0) == 2 and f(0, 1) == 3 and f(1, 1) == 6
    assert f == (2, 1, 3) and (f.a, f.b, f.c) == (2, 1, 3)


def test_is_primitive():
    assert is_primitive(QuadForm(1, 1, 1))
    assert not is_primitive(QuadForm(2, 0, 2))
    assert is_primitive(QuadForm(2, 1, 3))


# ---------------------------------------------------------------------------
# reduction


def test_reduce_examples():
    assert reduce_binary(QuadForm(1, 3, 3)) == (1, 1, 1)
    assert reduce_by_search(QuadForm(1, 3, 3)) == (1, 1, 1)
    assert reduce_binary(QuadForm(1, 0, 1)) == (1, 0, 1)
    assert reduce_binary(QuadForm(2, -1, 3)) == (2, -1, 3)
    assert reduce_by_search(QuadForm(2, -1, 3)) == (2, -1, 3)


def test_reduce_rejects_indefinite():
    with pytest.raises(ValueError):
        reduce_binary(QuadForm(1, 3, 1))
    with pytest.raises(ValueError):
        reduce_binary(QuadForm(-1, 0, -1))


def test_reduce_idempotent_and_equivalence_invariant():
    rng = random.Random(20)
    for _ in range(200):
        f = random_posdef(rng)
        red = reduce_binary(f)
        assert reduce_binary(red) == red
        for _ in range(20):
            t = random_sl2(rng)
            assert reduce_binary(f.transform(t)) == red


# ---------------------------------------------------------------------------
# automorphisms


@pytest.mark.parametrize(
    "abc,full,proper",
    [
        ((1, 1, 1), 12, 6),
        ((1, 0, 1), 8, 4),
        ((2, 1, 3), 2, 2),
        ((1, 1, 6), 4, 2),  # ambiguous class: (x, y) -> (x + y, -y) preserves it
        ((1, 0, 5), 4, 2),
    ],
)
def test_automorphism_counts(abc, full, proper):
    f = QuadForm(*abc)
    assert automorphism_count(f) == full
    assert proper_automorphism_count(f) == proper
    assert aut_by_search(f) == (full, proper)


def test_automorphism_invariance_and_parity():
    rng = random.Random(5)
    for _ in range(40):
        f = random_posdef(rng)
        n = automorphism_count(f)
        assert n % 2 == 0
        t = random_sl2(rng)
        assert automorphism_count(f.transform(t)) == n


def test_automorphism_rejects_indefinite():
    with pytest.raises(ValueError):
        automorphism_count(QuadForm(1, 3, 1))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_examples():
    assert enumerate_classes(3) == [(1, 1, 1)]
    assert enumerate_classes(23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert enumerate_classes(9) == []


def test_enumerate_empty_iff_1_or_2_mod_4():
    for S in range(1, 200):
        forms = enumerate_classes(S)
        if S % 4 in (1, 2):
            assert forms == []
        else:
            assert forms, S


def test_enumerate_matches_rescan_oracle():
    for S in range(1, 101):
        assert enumerate_classes(S) == classes_by_rescan(S)


@pytest.mark.parametrize("S", [999996, 999999])
def test_class_source_equals_the_oracle_beyond_the_golden_range(S):
    classes = reduced_classes(S)
    assert classes == enumerate_classes(S)
    # a plain (a, b, c) tuple would compare equal too
    assert all(type(f) is QuadForm for f in classes)


def test_class_source_blocks_join_in_abc_order(monkeypatch):
    # blocks of at most 7 pairs, or of one a: from a = 4 on, each a is a block of its own
    monkeypatch.setattr(forms_module, "SCAN_BLOCK_PAIRS", 7)
    for S in list(range(1, 400)) + [99999, 100000]:
        assert reduced_classes(S) == enumerate_classes(S), S


def test_class_source_memory_stays_bounded():
    # S/6 ~ 1.7 * 10^7 candidate pairs: one unblocked int64 array of them is 133 MB
    S = 10**8 + 3
    tracemalloc.start()
    try:
        classes = reduced_classes(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert classes[0] == QuadForm(1, 1, (S + 1) // 4)
    assert all(4 * f.a * f.c - f.b * f.b == S and is_primitive(f) for f in classes)


def _buckets(lo: int, hi: int) -> list[list[tuple[int, int, int]]]:
    """The forms of each S in [lo, hi) as one `_window` scan returns them."""
    a, b, c, start = forms_module._window(lo, hi)
    assert len(start) == hi - lo + 1 and start[-1] == len(a) == len(b) == len(c)
    forms = list(zip(a.tolist(), b.tolist(), c.tolist()))
    return [forms[start[i] : start[i + 1]] for i in range(hi - lo)]


@pytest.fixture
def fresh_window(monkeypatch):
    """A class source holding no window yet, so no earlier test decides
    the width of the first window."""
    window = forms_module._ClassWindow()
    monkeypatch.setattr(forms_module, "_CLASSES", window)
    return window


def test_class_source_equals_the_oracle_on_a_forward_walk(fresh_window):
    widths = set()
    for S in list(range(1, 2001)) + list(range(99000, 99040)):
        assert reduced_classes(S) == enumerate_classes(S), S
        widths.add(fresh_window.hi - fresh_window.lo)
    assert max(widths) >= 64  # the walk read ahead


def test_class_source_equals_the_oracle_in_shuffled_order(fresh_window):
    dets = list(range(1, 2001))
    random.Random(11).shuffle(dets)
    for S in dets:
        assert reduced_classes(S) == enumerate_classes(S), S


def test_class_source_width_resets_after_a_jump_back(fresh_window):
    for S in range(1000, 1400):
        assert reduced_classes(S) == enumerate_classes(S), S
    assert fresh_window.hi - fresh_window.lo > 1
    assert reduced_classes(500) == enumerate_classes(500)
    assert (fresh_window.lo, fresh_window.hi) == (500, 501)
    for S in range(501, 600):
        assert reduced_classes(S) == enumerate_classes(S), S


@pytest.mark.parametrize("lo", [1, 1000, 99000])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 64])
def test_window_buckets_equal_the_oracle(lo, width):
    # at width 64 every a < 16 has 4a < width: such a pair can give several c
    expected = [enumerate_classes(S) for S in range(lo, lo + width)]
    assert _buckets(lo, lo + width) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5000), st.integers(1, 64))
def test_window_buckets_equal_the_oracle_property(lo, width):
    expected = [enumerate_classes(S) for S in range(lo, lo + width)]
    assert _buckets(lo, lo + width) == expected


def test_held_window_stays_within_the_forms_cap(monkeypatch, fresh_window):
    def walk(dets, check):
        for S in dets:
            classes = reduced_classes(S)
            assert len(fresh_window.a) <= forms_module.WINDOW_FORMS, S
            if check:
                assert classes == enumerate_classes(S), S

    walk(range(10**6, 10**6 + 400), check=False)
    assert fresh_window.hi - fresh_window.lo > 1
    monkeypatch.setattr(forms_module, "WINDOW_FORMS", 1 << 12)
    walk(list(range(1, 3000)) + list(range(99000, 99400)), check=True)


_COUNT_DETS = list(range(1, 2001)) + list(range(99000, 99040))


@pytest.mark.parametrize("order", ["forward", "backward", "shuffled"])
def test_class_count_equals_the_oracle(fresh_window, order):
    dets = list(_COUNT_DETS)
    if order == "backward":
        dets.reverse()
    elif order == "shuffled":
        random.Random(12).shuffle(dets)
    widths = set()
    for S in dets:
        assert class_count(S) == len(enumerate_classes(S)), S
        widths.add(fresh_window.hi - fresh_window.lo)
    # a forward walk reads ahead; backward and random access scan one S at a time
    assert (max(widths) >= 64) == (order == "forward")


def test_class_count_and_the_classes_share_the_held_window(fresh_window):
    for S in range(1000, 1200):
        assert class_count(S) == len(reduced_classes(S)), S
        assert fresh_window.lo <= S < fresh_window.hi
    lo, hi, held = fresh_window.lo, fresh_window.hi, fresh_window.a
    for S in range(lo, hi):
        class_count(S)
        reduced_classes(S)
    # no window was scanned again
    assert (fresh_window.lo, fresh_window.hi) == (lo, hi) and fresh_window.a is held


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 5000), min_size=1, max_size=8))
def test_class_count_equals_the_oracle_property(dets):
    for S in dets:
        assert class_count(S) == len(enumerate_classes(S)), S


@pytest.mark.parametrize("S", [0, -1, -23])
def test_class_count_refuses_a_nonpositive_determinant(S):
    with pytest.raises(ValueError, match="positive"):
        class_count(S)


def test_enumerate_pairwise_inequivalent_and_reduced():
    rng = random.Random(3)
    for S in (23, 32, 36, 48, 75):
        forms = enumerate_classes(S)
        assert len(set(forms)) == len(forms)
        for f in forms:
            a, b, c = f
            assert abs(b) <= a <= c and a <= isqrt(S // 3)
            assert reduce_binary(f) == f
            t = random_sl2(rng)
            assert reduce_binary(f.transform(t)) == f


def test_improper_class_grouping():
    from fractions import Fraction

    from qfmass.forms import improper_classes

    groups = improper_classes(23)
    assert [tuple(g) for g in groups] == [
        ((1, 1, 6),),
        ((2, -1, 3), (2, 1, 3)),
    ]
    # a GL2(Z)-class is a singleton exactly when it is ambiguous, and the
    # full-Aut mass over these classes halves the proper-Aut mass
    for S in (23, 32, 36, 48, 75):
        total = Fraction(0)
        for g in improper_classes(S):
            total += Fraction(1, automorphism_count(g[0]))
        proper_total = sum(
            (Fraction(1, proper_automorphism_count(f)) for f in enumerate_classes(S)),
            Fraction(0),
        )
        assert total == proper_total / 2


# ---------------------------------------------------------------------------
# hasse invariants


def test_hasse_examples():
    # 2xy ~ <1, -1>: the pairwise symbol is trivial at 2
    hyperbolic = QuadForm(0, 2, 0)
    assert hasse_invariant(hyperbolic, 2) == 1
    for p, u1, u2 in [(3, 1, 1), (3, 2, 1), (5, 2, 3), (7, 3, 5)]:
        f = QuadForm(u1, 0, p * u2)
        assert hasse_invariant(f, p) == legendre(u1, p)


def test_hasse_rejects_degenerate():
    with pytest.raises(ValueError):
        hasse_invariant(QuadForm(1, 2, 1), 2)


def test_hasse_product_formula_over_enumerated_forms():
    for S in (3, 4, 23, 36, 48, 60, 75):
        for f in enumerate_classes(S):
            prod = 1
            for p in {2} | {p for p, _ in factor(S)}:
                prod *= hasse_invariant(f, p)
            assert prod == 1, f


def test_scale_hasse_by_one_is_identity():
    f = QuadForm(2, 1, 3)
    for place in (2, 3, 23, OO):
        assert scale_hasse(1, f, place) == hasse_invariant(f, place)


def test_scale_hasse_matches_direct_recomputation():
    rng = random.Random(11)
    for _ in range(50):
        f = random_posdef(rng)
        for u in (-1, 2, 3, 5):
            scaled = QuadForm(*(u * x for x in f))
            for place in (2, 3, 5, OO):
                assert scale_hasse(u, f, place) == hasse_invariant(scaled, place)


# ---------------------------------------------------------------------------
# hasse invariants: properties independent of the diagonalizing value

PLACES = (2, 3, 5, 7, OO)
coeff = st.integers(-40, 40)
entry = st.integers(-6, 6)
nonzero = st.integers(-60, 60).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coeff, coeff, coeff, entry, entry, entry, entry)
@example(0, 3, 5, 1, 2, 0, 1)  # a = 0
@example(0, 1, 0, 2, 1, 1, 3)  # a = c = 0: the hyperbolic plane xy
@example(0, 6, 0, 1, 0, 0, -1)
def test_hasse_invariant_is_a_rational_isometry_invariant(a, b, c, p, q, r, s):
    f = QuadForm(a, b, c)
    assume(det_hessian(f) != 0 and p * s - q * r != 0)
    g = f.transform(((p, q), (r, s)))
    for v in PLACES:
        assert hasse_invariant(g, v) == hasse_invariant(f, v), (f, g, v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nonzero, nonzero)
def test_hasse_invariant_of_diagonal_form_is_the_hilbert_symbol(u1, u2):
    f = QuadForm(u1, 0, u2)
    for v in PLACES:
        assert hasse_invariant(f, v) == hilbert_symbol(u1, u2, v)


# ---------------------------------------------------------------------------
# proper-equivalence invariants: reduction, local symbols, automorphisms


@st.composite
def reduced_primitive_forms(draw):
    a = draw(st.integers(1, 12))
    b = draw(st.integers(-a + 1, a))
    c = draw(st.integers(a, 30))
    assume(not (b < 0 and a == c))
    f = QuadForm(a, b, c)
    assume(is_primitive(f))
    return f


@st.composite
def sl2z_matrices(draw):
    """Words in the generators ((1, k), (0, 1)) and ((0, -1), (1, 0))."""
    t = ((1, 0), (0, 1))
    for k in draw(st.lists(st.integers(-2, 2), max_size=3)):
        (p, q), (r, s) = t
        t = ((p * k + q, -p), (r * k + s, -r))  # t @ ((1, k), (0, 1)) @ ((0, -1), (1, 0))
    return t


@settings(max_examples=150, deadline=None, derandomize=True)
@given(reduced_primitive_forms(), sl2z_matrices())
def test_proper_equivalence_keeps_reduction_symbols_and_automorphisms(f, t):
    (p, q), (r, s) = t
    assert p * s - q * r == 1
    g = f.transform(t)
    assert reduce_binary(g) == f
    for prime in sorted({2} | {pr for pr, _ in factor(det_hessian(f))}):
        assert local_symbol(g, prime) == local_symbol(f, prime), (f, g, prime)
    assert automorphism_count(g) == automorphism_count(f)
    assert proper_automorphism_count(g) == proper_automorphism_count(f)
