"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion lines,
or via `qfmass verify ...` for the CLI equivalents.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from qfmass import cli
from qfmass.arith import (
    OO,
    QR,
    NQR,
    LocalSquareClass,
    factor,
    gamma_factor,
    hilbert_symbol,
    legendre,
)
from qfmass.euler import (
    a_coeff,
    b_coeff,
    closed_form,
    closed_form_report,
    decomposition_check,
    sign_tuple_identity,
)
from qfmass.forms import QuadForm, det_hessian, enumerate_classes, hasse_invariant, scale_hasse
from qfmass.globalmass import (
    class_number,
    dirichlet_check,
    genus_census,
    is_fundamental_discriminant,
    total_mass_numeric,
)
from qfmass.localgenus import enumerate_local_genera, jordan_split_odd
from qfmass.mass import count_SO_mod_p, genus_mass_ratio, local_density_inverse

from .test_forms import random_posdef


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def nonresidue(p: int) -> int:
    return min(r for r in range(2, p) if legendre(r, p) == -1)


@pytest.fixture(scope="module", autouse=True)
def warm_prime_sieve():
    from qfmass.arith import primes_below

    primes_below()


def test_criterion_1_odd_closed_forms():
    """Series coefficients of the odd-p closed forms equal the enumeration
    pipeline exactly for p in {3,5,7,11,13}, both unit classes, nu <= 10."""
    t0 = time.time()
    ok = True
    for p in (3, 5, 7, 11, 13):
        for u in (1, nonresidue(p)):
            for which in ("A", "B"):
                series = closed_form(p, u, which).series(11)
                coeff = a_coeff if which == "A" else b_coeff
                pipeline = [coeff(p, u, nu) for nu in range(11)]
                ok = ok and series == pipeline
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 1.0, f"odd-p closed forms exact, {elapsed:.2f}s")


def test_criterion_2_two_adic_table_fidelity(capsys):
    """Pipeline coefficients at p = 2 match the distribution/mass tables
    row-by-row on the allowed nu set {0,2,3,4,>=5}; the as-printed closed
    forms' discrepancies are emitted as ledger lines without failing."""
    t0 = time.time()

    def expected_a(u, nu):
        if nu == 0:
            return Fraction(1) if u % 4 == 3 else Fraction(0)
        if nu == 1:
            return Fraction(0)
        return gamma_factor(u, 2) / 2**nu

    def expected_b(u, nu):
        if nu == 0:
            return Fraction(-1) if u % 4 == 3 else Fraction(0)
        if nu % 2 or u % 4 == 1:
            return Fraction(0)
        return gamma_factor(u, 2) / 2**nu

    ok = True
    for u in (1, 3, 5, 7):
        for nu in range(11):
            ok = ok and a_coeff(2, u, nu) == expected_a(u, nu)
            ok = ok and b_coeff(2, u, nu) == expected_b(u, nu)
    ledger = []
    for u in (1, 3, 5, 7):
        for which in ("A", "B"):
            rep = closed_form_report(2, u, which, 11)
            ok = ok and rep["table_matches"]
            if not rep["printed_matches"]:
                ledger.append(
                    f"  ledger: p=2 u={u} {which} as-printed form deviates at nu={rep['printed_mismatch_at']}"
                )
    elapsed = time.time() - t0
    for line in ledger:
        print(line)
    assert ledger, "the documented as-printed discrepancies should be detected"
    _report(2, ok and elapsed < 1.0, f"p=2 table fidelity exact, {len(ledger)} ledger lines, {elapsed:.2f}s")


def test_criterion_3_decomposition_theorem():
    """W(S) = (1/2)[prod A + C prod B] exactly for every S <= 2000, and under
    every Hasse constraint of the walk that `verify decomposition` checks
    (`cli._constrained_cases`): every S <= 2000 under every sign vector on
    every 1-, 2- or 3-subset of {2, 3, 5} u {p | S}."""
    t0 = time.time()
    ok = all(decomposition_check(S)["equal"] for S in range(1, 2001))
    cases, first_fail = 0, ""
    for S, cons in cli._constrained_cases(2000):
        cases += 1
        if not first_fail and not decomposition_check(S, cons)["equal"]:
            first_fail = f"; first fails at S={S} {cons}"
    elapsed = time.time() - t0
    ok = ok and not first_fail and elapsed < 120.0
    _report(3, ok, f"decomposition exact on S<=2000 + {cases} constrained, {elapsed:.1f}s{first_fail}")


def test_criterion_4_siegel_ratio_identity():
    """Census mass ratios equal local-density-product ratios exactly for
    every multi-genus S <= 2000."""
    t0 = time.time()
    ok = True
    multi = 0
    for S in range(1, 2001):
        rep = genus_census(S)
        if len(rep.genera) < 2:
            continue
        multi += 1
        base = rep.genera[0]
        for g in rep.genera[1:]:
            ok = ok and genus_mass_ratio(g.symbols, base.symbols) == g.mass / base.mass
    elapsed = time.time() - t0
    _report(4, ok and elapsed < 120.0, f"siegel ratios exact on {multi} multi-genus S<=2000, {elapsed:.1f}s")


def test_criterion_5_total_mass_numerics():
    """Census total mass vs sqrt(S)/(4 pi) L(1, chi_-S) (Abel-summed,
    bound 1e5) within 2e-3 for every realizable S <= 500.

    Spot anchors: S=3 -> 1/12 and S=4 -> 1/8 as stated.  At S = 23 the
    census evaluates to 3/4 in the Smith-Minkowski normalization that the
    formula reproduces (the class x^2+xy+6y^2 has automorphism order 4, not
    2); the figure 3/2 quoted alongside the criterion belongs to the
    doubled proper-class convention and is corrected in the ledger.
    """
    t0 = time.time()
    ok = True
    worst = 0.0
    realizable = 0
    for S in range(1, 501):
        res = total_mass_numeric(S, 10**5)
        if res["census"] == 0:
            continue
        realizable += 1
        worst = max(worst, res["rel_err"])
        ok = ok and res["rel_err"] <= 2e-3
    anchors = (
        genus_census(3).total_mass == Fraction(1, 12)
        and genus_census(4).total_mass == Fraction(1, 8)
        and genus_census(23).total_mass == Fraction(3, 4)
    )
    print("  note: S=23 census-exact total is 3/4 (= formula value); see decisions ledger")
    elapsed = time.time() - t0
    _report(
        5,
        ok and anchors and elapsed < 60.0,
        f"total-mass formula numerics on {realizable} realizable S<=500, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_class_number_formula():
    """Census h(D) matches w sqrt(|D|)/(2 pi) L(1, chi_D) within 1e-3 for
    all fundamental D with |D| <= 500, with the stated spot values."""
    t0 = time.time()
    ok = True
    worst = 0.0
    checked = 0
    for D in range(-3, -501, -1):
        if not is_fundamental_discriminant(D):
            continue
        res = dirichlet_check(D, 10**5)
        checked += 1
        worst = max(worst, res["rel_err"])
        ok = ok and res["rel_err"] <= 1e-3
    spots = (
        class_number(-3) == 1
        and class_number(-4) == 1
        and class_number(-23) == 3
        and class_number(-163) == 1
    )
    elapsed = time.time() - t0
    _report(
        6,
        ok and spots and elapsed < 60.0,
        f"class-number formula on {checked} fundamental |D|<=500, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_structural_invariants():
    """Hilbert product formula census; Hasse scaling law vs recomputation;
    Hensel SO-count consistency (good odd p <= 23); uniqueness of normalized
    local genera at odd p; B-vanishing; sign-tuple identity |T| <= 4."""
    t0 = time.time()
    reps = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 30, -30]
    hilbert_ok = True
    for a, b in itertools.product(reps, reps):
        places = {OO} | {p for p, _ in factor(abs(2 * a * b))}
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        hilbert_ok = hilbert_ok and prod == 1

    rng = random.Random(77)
    scaling_ok = True
    for _ in range(50):
        f = random_posdef(rng)
        for u in (-1, 2, 3, 5):
            scaled = QuadForm(*(u * x for x in f))
            for place in (2, 3, 5, OO):
                scaling_ok = scaling_ok and scale_hasse(u, f, place) == hasse_invariant(
                    scaled, place
                )

    hensel_ok = True
    for _ in range(20):
        f = random_posdef(rng)
        d = det_hessian(f)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            if d % p == 0:
                continue
            hensel_ok = hensel_ok and local_density_inverse(
                jordan_split_odd(f, p)
            ) == Fraction(p, count_SO_mod_p(f, p))

    unique_ok = all(
        len(enumerate_local_genera(LocalSquareClass(p, 0, u))) == 1
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        for u in (QR, NQR)
    )

    bvanish_ok = True
    for p in (2, 3, 5, 7):
        units = (1, 3, 5, 7) if p == 2 else (1, nonresidue(p))
        for u in units:
            for nu in (1, 3, 5, 7):
                bvanish_ok = bvanish_ok and b_coeff(p, u, nu) == 0
    for S in range(1, 501):
        prod = Fraction(1)
        facs = dict(factor(S))
        nu2 = facs.pop(2, 0)
        prod *= b_coeff(2, (S >> nu2) % 8, nu2)
        for p, e in facs.items():
            prod *= b_coeff(p, S // p**e, e)
        if prod != 0:
            bvanish_ok = bvanish_ok and all(e % 2 == 0 for e in dict(factor(S)).values())
            bvanish_ok = bvanish_ok and ((S >> nu2) % 4 == 3)

    sign_ok = all(sign_tuple_identity(t, c) for t in (1, 2, 3, 4) for c in (1, -1))

    ok = hilbert_ok and scaling_ok and hensel_ok and unique_ok and bvanish_ok and sign_ok
    elapsed = time.time() - t0
    _report(
        7,
        ok and elapsed < 30.0,
        "structural suites (hilbert product, hasse scaling, hensel counts, "
        f"uniqueness, B-vanishing, sign tuples), {elapsed:.1f}s",
    )
