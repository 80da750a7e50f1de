from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qfmass import cli, euler, forms, globalmass, localgenus
from qfmass.arith import LocalSquareClass, factor, gamma_factor, legendre, valuation
from qfmass.euler import (
    GenusRecord,
    RationalFunction,
    a_coeff,
    b_coeff,
    closed_form,
    closed_form_report,
    decomposition_check,
    genus_partition,
    sign_tuple_identity,
)
from qfmass.forms import automorphism_count, class_count, mu_order, proper_automorphism_count
from qfmass.globalmass import genus_census, report_json_obj
from qfmass.localgenus import OddGenusSymbol, TwoAdicGenusSymbol, genus_symbol_2, local_symbol
from qfmass.mass import density_product, density_ratio, genus_mass_ratio, local_density_inverse

from .test_arith import time_limit


def nonresidue(p: int) -> int:
    return min(r for r in range(2, p) if legendre(r, p) == -1)


# ---------------------------------------------------------------------------
# rational functions


def test_closed_form_rows_keep_the_invariant():
    for p in (2, 3, 5, 7, 11, 13):
        units = (1, 3, 5, 7) if p == 2 else (1, nonresidue(p))
        for u in units:
            for which in ("A", "B"):
                for variant in ("table", "as-printed"):
                    rf = closed_form(p, u, which, variant)
                    at = (p, u, which, variant)
                    assert isinstance(rf, RationalFunction), at
                    assert rf.den[0] == 1, at
                    assert all(type(c) is Fraction for c in rf.num + rf.den), at
                    assert not rf.num or rf.num[-1] != 0, at
                    assert all(type(c) is Fraction for c in rf.series(6)), at


def test_rational_function_is_an_immutable_pair():
    rf = closed_form(5, 1, "A")
    num, den = rf
    assert (num, den) == (rf.num, rf.den) == ((1, Fraction(-1, 25)), (1, Fraction(-1, 5)))
    with pytest.raises(AttributeError):
        rf.num = ()
    # a genus record is a plain triple too
    rec = genus_partition(23)[0]
    assert isinstance(rec, tuple) and GenusRecord._fields == ("classes", "symbols", "mass")
    assert rec == (rec.classes, rec.symbols, rec.mass)
    for field in GenusRecord._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)


# ---------------------------------------------------------------------------
# normalized mass sums M~^+- = (A +- B)/2 and coefficients


def test_hasse_split_mass_unimodular_odd():
    for p in (3, 5, 7):
        for u in (1, nonresidue(p)):
            A, B = a_coeff(p, u, 0), b_coeff(p, u, 0)
            assert (A + B) / 2 == 1
            assert (A - B) / 2 == 0


def test_hasse_split_mass_nu_one_odd():
    for p in (3, 5):
        for u in (1, nonresidue(p)):
            A, B = a_coeff(p, u, 1), b_coeff(p, u, 1)
            want = Fraction(1, 2 * p) * gamma_factor(u, p)
            assert (A + B) / 2 == want
            assert (A - B) / 2 == want


def test_coefficient_examples():
    for p in (3, 5, 7):
        for u in (1, nonresidue(p)):
            assert a_coeff(p, u, 1) == gamma_factor(u, p) / p
            assert b_coeff(p, u, 1) == 0
    assert a_coeff(2, 3, 0) == 1
    assert b_coeff(2, 3, 0) == -1
    assert a_coeff(2, 7, 0) == 1 and b_coeff(2, 7, 0) == -1
    assert a_coeff(2, 1, 0) == 0 and b_coeff(2, 1, 0) == 0
    for u in (1, 3, 5, 7):
        assert a_coeff(2, u, 1) == 0 and b_coeff(2, u, 1) == 0


def test_high_valuation_coefficients_at_two():
    # criterion-2 table rows: A = gamma_2(u) / 2^nu, B = A if u = 3 (mod 4) else 0
    nu = 20000
    with time_limit(1.0):
        for u in (1, 3, 5, 7):
            a = gamma_factor(u, 2) / 2**nu
            assert a_coeff(2, u, nu) == a, u
            assert b_coeff(2, u, nu) == (a if u % 4 == 3 else 0), u


def test_coefficient_positivity_and_b_padding():
    for p in (2, 3, 5):
        units = (1, 3, 5, 7) if p == 2 else (1, nonresidue(p))
        for u in units:
            for nu in range(9):
                a = a_coeff(p, u, nu)
                b = b_coeff(p, u, nu)
                assert a >= 0
                assert a >= abs(b)
                if nu % 2 and p != 2:
                    assert b == 0


def test_b_vanishing_criterion_globally():
    """The product of b-coefficients over the support of S vanishes unless
    every valuation is even and the 2-adic unit is 3 mod 4; over the
    integers that combination is impossible, so the product is always 0
    for realizable determinants."""
    for S in range(1, 401):
        prod = Fraction(1)
        facs = dict(factor(S))
        nu2 = facs.pop(2, 0)
        unit2 = (S >> nu2) % 8
        prod *= b_coeff(2, unit2, nu2)
        for p, e in facs.items():
            strip = S // p**e
            prod *= b_coeff(p, strip, e)
        if prod != 0:
            assert all(e % 2 == 0 for e in dict(factor(S)).values())
            assert unit2 % 4 == 3
        if S % 4 in (0, 3):  # realizable
            assert prod == 0, S


# ---------------------------------------------------------------------------
# closed forms


def test_odd_closed_forms_match_pipeline_exactly():
    for p in (3, 5, 7, 11, 13):
        for u in (1, nonresidue(p)):
            for which in ("A", "B"):
                rep = closed_form_report(p, u, which, 11)
                assert rep["table_matches"], (p, u, which)
                assert rep["printed_matches"], (p, u, which)


def test_odd_closed_form_shape():
    # constant term 1, and the A-series has the geometric tail q^-nu gamma
    for p in (3, 5):
        rf = closed_form(p, 1, "A")
        s = rf.series(6)
        assert s[0] == 1
        for nu in range(1, 6):
            assert s[nu] == gamma_factor(1, p) / p**nu


def test_two_adic_table_variant_matches_pipeline():
    for u in (1, 3, 5, 7):
        for which in ("A", "B"):
            rep = closed_form_report(2, u, which, 11)
            assert rep["table_matches"], (u, which)


def test_two_adic_printed_discrepancies_documented():
    # u = 1 (mod 4): printed A has constant term 1, the table has no genus
    rep = closed_form_report(2, 1, "A", 8)
    assert not rep["printed_matches"]
    assert 0 in rep["printed_mismatch_at"]
    # u = 3 (mod 4): printed B denominator has q^3 where the sums give q^2
    rep = closed_form_report(2, 3, "B", 8)
    assert not rep["printed_matches"]
    assert rep["printed_mismatch_at"] and min(rep["printed_mismatch_at"]) >= 2
    # B vanishes identically for u = 1 (mod 4) in both variants
    assert closed_form(2, 1, "B", "as-printed").series(8) == [0] * 8
    assert closed_form(2, 5, "B", "table").series(8) == [0] * 8


def test_closed_form_argument_validation():
    with pytest.raises(ValueError):
        closed_form(3, 1, "C")
    with pytest.raises(ValueError):
        closed_form(3, 1, "A", "other")
    # p must be prime and u a unit at p, as `qfmass euler` requires
    for p, u in ((4, 1), (1, 1), (0, 1), (-3, 1), (3, 3), (2, 2)):
        with pytest.raises(ValueError):
            closed_form(p, u, "A")
    with pytest.raises(ValueError):
        closed_form_report(3, 3, "A", 4)


# ---------------------------------------------------------------------------
# decomposition identity


def test_decomposition_single_class():
    res = decomposition_check(3)
    assert res["equal"]
    assert res["lhs"] == Fraction(2, 9) == Fraction(1, 2) * a_coeff(2, 3, 0) * a_coeff(3, 3, 1)


def test_decomposition_unrealizable():
    for S in (9, 45, 2, 6, 25):
        res = decomposition_check(S)
        assert res["equal"] and res["lhs"] == 0 and res["rhs"] == 0


def test_decomposition_with_constraints():
    res = decomposition_check(23, {23: 1})
    assert res["equal"] and res["lhs"] == Fraction(12, 529)
    res = decomposition_check(23, {23: -1})
    assert res["equal"] and res["lhs"] == 0
    res = decomposition_check(3, {2: -1})
    assert res["equal"] and res["lhs"] == Fraction(2, 9)
    res = decomposition_check(3, {2: 1})
    assert res["equal"] and res["lhs"] == 0
    # constraint at a prime away from the support
    res = decomposition_check(3, {5: -1})
    assert res["equal"] and res["lhs"] == 0
    res = decomposition_check(3, {5: 1})
    assert res["equal"] and res["lhs"] == Fraction(2, 9)
    res = decomposition_check(3, {7: -1})
    assert res["equal"] and res["lhs"] == 0
    res = decomposition_check(3, {7: 1})
    assert res["equal"] and res["lhs"] == Fraction(2, 9)
    for eps in (0, 2):
        with pytest.raises(ValueError):
            decomposition_check(3, {5: eps})


def _decomposition_reference(S, cons):
    """Both sides of the decomposition identity in `Fraction` arithmetic,
    reduced at every multiply and add: the reference for the integer
    cross-multiplication in `decomposition_check`."""
    T = sorted({2} | {p for p, _ in factor(S)} | set(cons))
    lhs = Fraction(0)
    for rec in euler.genus_partition(S):
        if any((rec.symbols[p].label if p in rec.symbols else 1) != want for p, want in cons.items()):
            continue
        term = Fraction(1)
        for p in T:
            if p in rec.symbols:
                term *= density_ratio(rec.symbols[p])
        lhs += term
    C = -1 if S % 2 else 1
    K = prodA = prodB = Fraction(1)
    for p in T:
        local = LocalSquareClass.of(S, p)
        A, B = euler._ab_coeff(p, local.unit, local.val)
        if p in cons:
            K *= (A + cons[p] * B) / 2
            C *= cons[p]
        else:
            prodA *= A
            prodB *= B
    rhs = K * (prodA + C * prodB) / 2
    return lhs, rhs, lhs == rhs


def _mass_ratio_reference(symbols1, symbols2):
    out = Fraction(1)
    for p in symbols1:
        out *= local_density_inverse(symbols1[p]) / local_density_inverse(symbols2[p])
    return out


def _check_against_references(S, cons):
    res = decomposition_check(S, cons)
    got = (res["lhs"], res["rhs"], res["equal"])
    assert got == _decomposition_reference(S, cons), (S, cons)
    assert all(type(x) is Fraction for x in got[:2]), (S, cons)
    genera = genus_partition(S)
    # every ordered pair, a genus with itself included: pairs that differ at
    # 2 only, at odd p only and nowhere all occur
    for g1 in genera:
        for g2 in genera:
            ratio = genus_mass_ratio(g1.symbols, g2.symbols)
            assert ratio == _mass_ratio_reference(g1.symbols, g2.symbols), S
            assert type(ratio) is Fraction, S


def test_integer_checks_equal_the_fraction_references():
    rng = random.Random(20240)
    for S in range(1, 1501):
        _check_against_references(S, {})
    for _ in range(200):
        S = rng.randint(1, 1500)
        pool = sorted({2, 3, 5, 7} | {p for p, _ in factor(S)})
        primes = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        _check_against_references(S, {p: rng.choice((1, -1)) for p in primes})
    for S in list(range(99000, 99040)) + [1021020]:
        _check_against_references(S, {})
    assert len(genus_partition(1021020)) == 32


def test_census_masses_over_a_range():
    """Each genus mass is its class count over 2w, the masses sum to the
    census total and to the class count over 2w, and every record and odd
    symbol is an instance of its own type, not a bare tuple (which would
    compare equal)."""
    for S in list(range(1, 3001)) + list(range(99000, 99040)):
        two_w = 2 * mu_order(-S)
        genera = genus_partition(S)
        for rec in genera:
            assert type(rec) is GenusRecord, S
            assert type(rec.mass) is Fraction and rec.mass == Fraction(len(rec.classes), two_w), S
            for p, sym in rec.symbols.items():
                assert type(sym) is (TwoAdicGenusSymbol if p == 2 else OddGenusSymbol), (S, p)
        total = genus_census(S).total_mass
        assert type(total) is Fraction, S
        assert sum(rec.mass for rec in genera) == total == Fraction(class_count(S), two_w), S


def test_decomposition_check_fails_when_a_genus_is_missing(monkeypatch):
    full = genus_partition
    monkeypatch.setattr(euler, "genus_partition", lambda S: full(S)[:-1])
    for S in (48, 231, 4620):
        assert len(full(S)) >= 2, S
        res = decomposition_check(S)
        assert res["equal"] is False and res["lhs"] != res["rhs"], S
        assert (res["lhs"], res["rhs"], res["equal"]) == _decomposition_reference(S, {}), S


def test_genus_partition_labels_consistent():
    for S in (23, 36, 48, 75):
        for rec in genus_partition(S):
            prod = 1
            for sym in rec.symbols.values():
                prod *= sym.label
            assert prod == (-1 if S % 2 else 1)


@pytest.mark.parametrize("S", range(0, -9, -1))
def test_census_refuses_a_determinant_below_1(S):
    """S <= 0 is refused whatever S mod 4 is, before the shortcut that
    returns no genus for S = 1, 2 (mod 4)."""
    for check in (genus_partition, genus_census, decomposition_check):
        with pytest.raises(ValueError):
            check(S)


def test_genus_partition_builds_once_per_determinant():
    genus_partition.cache_clear()
    for S, cons in ((48, {2: -1, 3: 1}), (75, {5: -1}), (23, {3: 1})):
        before = genus_partition.cache_info()
        genus_census(S)
        decomposition_check(S)
        decomposition_check(S, cons)
        after = genus_partition.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 2), S


def test_census_and_both_checks_split_S_once(monkeypatch):
    """S is split at 2 and at each odd p | S once, for the census and both
    decomposition checks; only a constraint prime not dividing 2S is split
    by the check itself.  Every split, `_local_split`'s and
    `LocalSquareClass.of`'s alike, goes through the builder `_of_unit`."""
    calls = []
    build = LocalSquareClass._of_unit

    def counting(p, v, u):
        calls.append((p, v, u))
        return build(p, v, u)

    monkeypatch.setattr(LocalSquareClass, "_of_unit", staticmethod(counting))
    for S, cons in ((4620, {7: -1, 13: 1}), (99960, {3: 1, 5: -1}), (75, {2: -1, 5: -1})):
        for _ in range(2):  # the first round fills the memos of the local coefficients
            euler._local_split.cache_clear()
            genus_partition.cache_clear()
            calls.clear()
            genus_census(S)
            decomposition_check(S)
            decomposition_check(S, cons)
        primes = [2] + [p for p, _ in factor(S) if p != 2]
        outside = [p for p in sorted(cons) if p not in primes]
        assert calls == [(p, valuation(S, p), S // p ** valuation(S, p)) for p in primes + outside], S


def test_local_split_equals_the_squareclasses_of_S():
    """The split read off `factor(S)` is `LocalSquareClass.of(S, p)` at 2 and
    at each odd p | S, in that order."""
    for S in [*range(1, 5000), *range(99000, 99400)]:
        split = euler._local_split.__wrapped__(S)
        primes = [2] + [p for p, _ in factor(S) if p != 2]
        assert list(split.items()) == [(p, LocalSquareClass.of(S, p)) for p in primes], S


def test_unrealizable_S_is_neither_scanned_nor_split(monkeypatch):
    """S = 1, 2 (mod 4) has no form: its census is empty, and S is not
    factored or split."""

    def refused(*args):
        raise AssertionError("unrealizable S split")

    monkeypatch.setattr(euler, "_local_split", refused)
    for S in (1, 2, 5, 6, 99997, 99998):
        genus_partition.cache_clear()
        assert genus_partition(S) == () and genus_census(S).total_mass == 0, S


def test_density_product_is_computed_once_per_genus(monkeypatch):
    """The census reads no density; one unconstrained decomposition check of
    S reads each genus's symbols once, one product per genus."""
    calls = []

    def counting(sym):
        calls.append(sym)
        return density_ratio(sym)

    monkeypatch.setattr("qfmass.mass.density_ratio", counting)
    for S in (231, 1560, 4620):
        genus_partition.cache_clear()
        calls.clear()
        genera = genus_census(S).genera
        assert calls == []
        assert decomposition_check(S)["equal"], S
        assert calls == [sym for rec in genera for sym in rec.symbols.values()], S
        for rec in genera:
            n, d = density_product(rec.symbols)
            expected = Fraction(1)
            for sym in rec.symbols.values():
                expected *= density_ratio(sym)
            assert d > 0 and Fraction(n, d) == expected, S


def _per_class_partition(S):
    """The census grouping with `local_symbol` run on every class at every
    p | 2S: the elementary oracle for `genus_partition`."""
    primes = sorted({2} | {p for p, _ in factor(S)})
    groups = {}
    for f in forms.enumerate_classes(S):
        syms = {p: local_symbol(f, p) for p in primes}
        groups.setdefault(tuple(syms.values()), (syms, []))[1].append(f)
    return [(tuple(classes), syms) for syms, classes in groups.values()]


def test_genus_partition_equals_the_per_class_symbol_oracle():
    for S in list(range(1, 2001)) + list(range(99000, 99040)):
        got = [(rec.classes, rec.symbols) for rec in genus_partition(S)]
        assert got == _per_class_partition(S), S


# Gauss's 2-adic assigned characters at an odd u, as their values at
# u = 1, 3, 5, 7 (mod 8), indexed by (u >> 1) & 3
_DELTA = (1, -1, 1, -1)  # (-1)^((u-1)/2)
_EPSILON = (1, -1, -1, 1)  # (-1)^((u^2-1)/8)
_DELTA_EPSILON = (1, 1, -1, -1)


def _assigned_two_adic_characters(S):
    """The assigned 2-adic characters of discriminant -S, S = 0, 3 (mod 4),
    by S mod 32 with n = S/4 (Cox, Primes of the form x^2 + ny^2, §3)."""
    n = S // 4
    if S % 4 == 3 or n % 4 == 3:
        return ()
    if n % 4 == 1 or n % 8 == 4:
        return (_DELTA,)
    if n % 8 == 2:
        return (_DELTA_EPSILON,)
    if n % 8 == 6:
        return (_EPSILON,)
    return (_DELTA, _EPSILON)  # n = 0 (mod 8)


def _assigned_character_partition(S):
    """The classes of S grouped by Gauss's assigned characters: the 2-adic
    ones at the odd value u = a, or c when a is even, and (u|p) at each odd
    p | S with u = a, or c when p | a.  An oracle for `genus_partition`
    that shares none of its 2-adic code."""
    chars = _assigned_two_adic_characters(S)
    odd = [p for p, _ in factor(S) if p != 2]
    groups = {}
    for f in forms.enumerate_classes(S):
        a, _, c = f
        key = tuple(ch[((a if a % 2 else c) >> 1) & 3] for ch in chars)
        key += tuple(legendre(a if a % p else c, p) for p in odd)
        groups.setdefault(key, []).append(f)
    return [tuple(classes) for classes in groups.values()]


def test_genus_partition_equals_the_assigned_character_oracle():
    for S in list(range(1, 3001)) + list(range(99000, 99100)):
        assert [rec.classes for rec in genus_partition(S)] == _assigned_character_partition(S), S


@pytest.mark.parametrize("S", [231, 1560, 4620, 99960])
def test_genus_partition_builds_local_symbols_once_per_genus(monkeypatch, S):
    """Each S has several genera of several classes, so per-class or
    per-genus symbol work would show in the count.  The odd symbols are
    built once per S, the QR and the NQR one at each odd p | S, and picked
    by the grouping key, with no symbol call at all; the 2-adic ones come
    from four `two_adic_symbol` calls per S, one per odd u1 (mod 8)."""
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    for name in ("local_symbol", "jordan_split_odd", "genus_symbol_2"):
        monkeypatch.setattr(localgenus, name, counting(name, getattr(localgenus, name)))
    genus_partition.cache_clear()
    localgenus.two_adic_symbol.cache_clear()
    genera = genus_partition(S)
    n_classes = sum(len(rec.classes) for rec in genera)
    assert 1 < len(genera) < n_classes
    assert calls == []
    info = localgenus.two_adic_symbol.cache_info()
    assert info.hits + info.misses == 4
    for p in genera[0].symbols:
        if p != 2:
            assert len({id(rec.symbols[p]) for rec in genera}) <= 2, p


def _genus_symbol_2_reference(f):
    """The 2-adic symbol computed per form, with its label the Hasse
    invariant `hasse_invariant(f, 2)` at a: the reference for the memo key
    of `two_adic_symbol`, which reads only nu_2(S), S/2^nu mod 8 and u1 mod 8."""
    sq = LocalSquareClass.of(forms.det_hessian(f), 2)
    if sq.val == 0:
        return TwoAdicGenusSymbol(0, sq.unit, -1, None)
    a, _, c = f
    u1 = a if a % 2 else c
    return TwoAdicGenusSymbol(sq.val, sq.unit, forms.hasse_invariant(f, 2), localgenus._canonical_lead(sq.val, u1 % 8))


def test_two_adic_symbol_memo_equals_the_per_form_reference():
    """On every class, not only the first of each genus, the memoized 2-adic
    symbol equals the per-form reference and the census's symbol at 2."""
    for S in list(range(1, 3001)) + list(range(99000, 99040)):
        for rec in genus_partition(S):
            for f in rec.classes:
                assert genus_symbol_2(f) == _genus_symbol_2_reference(f) == rec.symbols[2], (S, f)


def test_census_groups_triples_and_builds_no_form(monkeypatch):
    """The census, the Siegel ratios and both decomposition checks read the
    records' triples, counts and symbols: neither `euler` nor `globalmass`
    builds a `QuadForm`.  The records' `classes` and `aut_orders` equal the
    oracles."""

    def refuse(*args):
        raise AssertionError(f"QuadForm{args} built")

    realizable = [S for S in range(1, 501) if S % 4 in (0, 3)]
    for mod in (euler, globalmass):
        monkeypatch.setattr(mod, "QuadForm", refuse)
    genus_partition.cache_clear()
    for S in realizable:
        rep = genus_census(S)
        base = rep.genera[0]
        for other in rep.genera[1:]:
            assert genus_mass_ratio(other.symbols, base.symbols) == other.mass / base.mass, S
        assert decomposition_check(S)["equal"], S
        assert decomposition_check(S, {2: -1, 3: 1})["equal"], S
    monkeypatch.undo()
    for S in realizable:
        genera = genus_partition(S)
        assert sorted(f for rec in genera for f in rec.classes) == forms.enumerate_classes(S), S
        for rec in genera:
            assert list(rec.classes) == sorted(rec.classes), S
            assert rec.aut_orders == [automorphism_count(f) for f in rec.classes], S


def _patch_automorphism_scans(monkeypatch, scan):
    for mod in (forms, euler, globalmass, cli):
        for name in ("_automorphisms", "automorphism_count", "proper_automorphism_count"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, scan)


@pytest.fixture
def no_automorphism_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"automorphism scan of {args}")

    _patch_automorphism_scans(monkeypatch, refuse)
    genus_partition.cache_clear()


def test_decomposition_check_runs_no_automorphism_scan(no_automorphism_scan):
    for S in range(1, 121):
        assert decomposition_check(S)["equal"], S
        assert decomposition_check(S, {2: -1, 3: 1})["equal"], S


def test_census_scans_automorphisms_once_per_class(monkeypatch):
    """The census fills one |Aut| per class and scans no class more than
    once; with the closed-form orders it scans none at all."""
    scanned = []

    def counting(*args):
        scanned.append(args)
        raise AssertionError(f"automorphism scan of {args}")

    _patch_automorphism_scans(monkeypatch, counting)
    genus_partition.cache_clear()
    for S in list(range(1, 121)) + [231]:
        rep = genus_census(S)
        report_json_obj(S)
        for g in rep.genera:
            assert len(g.aut_orders) == len(g.classes), S
    assert scanned == []


def test_report_and_verify_siegel_run_no_automorphism_scan(no_automorphism_scan, capsys):
    for S in range(1, 121):
        report_json_obj(S)
    assert cli.main(["verify", "siegel", "--max-det", "120"]) == 0
    assert capsys.readouterr().out.startswith("PASS siegel")


def test_census_aut_orders_equal_the_oracle_counts():
    """The census's closed-form |Aut| and masses equal the automorphism scan
    on every class with S <= 2000."""
    for S in range(1, 2001):
        w = mu_order(-S)
        for g in genus_partition(S):
            proper = [proper_automorphism_count(f) for f in g.classes]
            assert g.aut_orders == [automorphism_count(f) for f in g.classes], S
            assert proper == [w] * len(g.classes), S
            assert g.mass == sum((Fraction(1, 2 * so) for so in proper), Fraction(0)), S


# ---------------------------------------------------------------------------
# sign-tuple identity


def test_sign_tuple_identity():
    for t in (1, 2, 3, 4):
        for c in (1, -1):
            assert sign_tuple_identity(t, c)


def test_sign_tuple_identity_small_cases_symbolic():
    # |T| = 2, c = -1: (X1+Y1)(X2-Y2) + (X1-Y1)(X2+Y2) = 2(X1X2 - Y1Y2)
    rng = random.Random(4)
    for _ in range(20):
        x1, x2, y1, y2 = (Fraction(rng.randint(-9, 9)) for _ in range(4))
        lhs = (x1 + y1) * (x2 - y2) + (x1 - y1) * (x2 + y2)
        assert lhs == 2 * (x1 * x2 - y1 * y2)


def test_sign_tuple_identity_validation():
    with pytest.raises(ValueError):
        sign_tuple_identity(5, 1)
    with pytest.raises(ValueError):
        sign_tuple_identity(2, 0)
