from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from qfmass.arith import NQR, QR, LocalSquareClass, chi, factor, gamma_factor
from qfmass.euler import _ab_coeff, genus_partition
from qfmass.forms import QuadForm, det_hessian
from qfmass.globalmass import genus_census
from qfmass.localgenus import enumerate_local_genera, jordan_split_odd, local_symbol, representative_form
from qfmass.mass import (
    AUT_SCAN_MAX,
    aut_density_mod_pk,
    count_SO_mod_p,
    density_product,
    density_ratio,
    generic_density_inverse,
    genus_mass_ratio,
    local_density_inverse,
)

from .test_forms import random_posdef


def _sym(p, nu, u, pick=0):
    return enumerate_local_genera(LocalSquareClass(p, nu, u))[pick]


def _local_genera(p, nu_max):
    """Every local genus at p with nu <= nu_max, over all unit classes."""
    for nu in range(nu_max + 1):
        for u in (1, 3, 5, 7) if p == 2 else (QR, NQR):
            yield from enumerate_local_genera(LocalSquareClass(p, nu, u))


# ---------------------------------------------------------------------------
# the paper's rank-2 p-mass table, kept as data: the closed density rows are
# this table converted by beta^-1 = 2 m_p q^(-3 nu/2 + 3 ord_p(2))


def _paper_p_mass(sym) -> tuple[Fraction, int]:
    """(r, k) of the p-mass m_p = r * p^(k/2) of a rank-2 local genus, as in
    the rank-2 mass table: odd p and the five 2-adic rows."""
    p, nu = sym.p, sym.nu
    if p != 2:
        if nu == 0:
            return Fraction(1, 2) / gamma_factor(sym.unit_rep(), p), 0
        return Fraction(1, 4), nu
    if nu == 0:
        return Fraction(1, 4) / gamma_factor(sym.unit, 2), 0
    if nu == 2:
        return (Fraction(1, 8) if sym.unit % 4 == 1 else Fraction(1, 4)), 0
    if nu == 3:
        return Fraction(1), -5
    if nu == 4:
        return Fraction(1, 4), 0
    assert nu >= 5, sym
    return Fraction(1, 32), nu


def _density_inverse_from_p_mass(sym) -> Fraction:
    r, k = _paper_p_mass(sym)
    p, nu = sym.p, sym.nu
    half = k - 3 * nu + (6 if p == 2 else 0)
    assert half % 2 == 0, sym  # every half power of p cancels
    out = 2 * r * Fraction(p) ** (half // 2)
    # the generic-density convention at 2 halves the even-unimodular row
    return out / 2 if p == 2 and nu == 0 else out


def test_p_mass_odd_rows():
    syms = [sym for p in (3, 5, 7, 11) for sym in _local_genera(p, 12)]
    assert len(syms) == 200
    for sym in syms:
        assert local_density_inverse(sym) == _density_inverse_from_p_mass(sym), sym


def test_p_mass_two_adic_rows():
    syms = list(_local_genera(2, 12))
    assert len(syms) == 152
    for sym in syms:
        assert local_density_inverse(sym) == _density_inverse_from_p_mass(sym), sym


# ---------------------------------------------------------------------------
# local densities


def test_local_density_inverse_examples():
    for p in (3, 5, 7):
        for u in (QR, NQR):
            sym = _sym(p, 0, u)
            assert local_density_inverse(sym) == 1 / gamma_factor(sym.unit_rep(), p)
            assert local_density_inverse(_sym(p, 1, u)) == Fraction(1, 2 * p)
    assert local_density_inverse(_sym(2, 3, 1)) == Fraction(1, 8)
    # even-unimodular 2-adic row: 2/gamma_2(u), the generic-density convention at 2
    assert local_density_inverse(_sym(2, 0, 3)) == 2 / gamma_factor(3, 2)


def test_densities_always_rational():
    for p in (2, 3, 5):
        units = (1, 3, 5, 7) if p == 2 else (QR, NQR)
        for u in units:
            for nu in range(9):
                for sym in enumerate_local_genera(LocalSquareClass(p, nu, u)):
                    assert isinstance(local_density_inverse(sym), Fraction)


def test_generic_density_examples():
    assert generic_density_inverse(5, 1) == Fraction(5, 4)  # chi = +1: p/(p-1)
    assert generic_density_inverse(2, 3) == Fraction(4, 3)
    assert generic_density_inverse(2, 7) == 4
    assert generic_density_inverse(2, 1) == 4
    assert generic_density_inverse(2, 5) == Fraction(4, 3)


# ---------------------------------------------------------------------------
# finite orthogonal group counts (Hensel consistency)


def test_count_SO_examples():
    f = QuadForm(1, 0, 1)
    assert count_SO_mod_p(f, 5) == 4  # split torus: q - 1
    assert count_SO_mod_p(f, 3) == 4  # nonsplit torus: q + 1


def test_count_SO_rejects_bad_reduction():
    with pytest.raises(ValueError):
        count_SO_mod_p(QuadForm(1, 1, 1), 3)
    with pytest.raises(ValueError):
        count_SO_mod_p(QuadForm(1, 0, 1), 2)


def test_hensel_consistency():
    """At good odd p the unimodular genus has 1/beta = p / |SO(F_p)|."""
    rng = random.Random(17)
    forms = [random_posdef(rng) for _ in range(20)]
    for f in forms:
        d = det_hessian(f)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            if d % p == 0:
                continue
            count = count_SO_mod_p(f, p)
            assert count in (p - 1, p + 1)
            sym = jordan_split_odd(f, p)
            assert local_density_inverse(sym) == Fraction(p, count)
            # O(F_p) is SO(F_p) and one reflection coset
            assert aut_density_mod_pk(f, p, 1) == Fraction(2 * count, p)


# ---------------------------------------------------------------------------
# the mod-p^k automorphism count pins each density row on its own


def _stable_alpha(f, p, nu):
    """alpha_p(f, k) at k = nu + 3 at p = 2 and nu + 2 at odd p, asserted
    equal to its value at k - 1."""
    k = nu + (3 if p == 2 else 2)
    alpha = aut_density_mod_pk(f, p, k)
    assert aut_density_mod_pk(f, p, k - 1) == alpha, (f, p, k)
    return alpha


def test_aut_count_pins_every_local_density_row():
    syms = [sym for p, nu_max in ((2, 6), (3, 3), (5, 2), (7, 1)) for sym in _local_genera(p, nu_max)]
    assert len(syms) == 86
    for sym in syms:
        f = representative_form(sym)
        assert local_symbol(f, sym.p) == sym
        alpha = _stable_alpha(f, sym.p, sym.nu)
        assert alpha * local_density_inverse(sym) == (4 if sym.p == 2 else 2), sym


def test_aut_count_pins_the_census_densities():
    """The first class of each census genus of S < 400, at each p | 2S with
    p^2k <= 2^20: p = 2 with nu <= 7, p = 3 with nu <= 4, p = 5 with nu <= 2
    and p = 7 with nu = 1.  The count reads only the coefficients mod p^k, so
    it is made once per residue."""
    alphas = {}
    checked = set()
    for S in range(3, 400):
        for rec in genus_partition(S):
            f = rec.classes[0]
            for p, sym in rec.symbols.items():
                k = sym.nu + (3 if p == 2 else 2)
                if p ** (2 * k) > 2**20:
                    continue
                key = (p, tuple(x % p**k for x in f))
                if key not in alphas:
                    alphas[key] = _stable_alpha(f, p, sym.nu)
                assert alphas[key] * local_density_inverse(sym) == (4 if p == 2 else 2), (S, f, p)
                checked.add((p, sym.nu))
    assert checked == {(2, nu) for nu in (0, 2, 3, 4, 5, 6, 7)} | {(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1)}


def test_aut_count_examples_and_refusals():
    # x^2 + y^2 at p = 3 is unimodular with 1/beta = 1/gamma_3(1) = 3/4
    assert aut_density_mod_pk(QuadForm(1, 0, 1), 3, 1) == Fraction(8, 3)
    assert aut_density_mod_pk(QuadForm(1, 0, 1), 3, 3) == Fraction(8, 3)
    for k in (0, -1):
        with pytest.raises(ValueError):
            aut_density_mod_pk(QuadForm(1, 0, 1), 3, k)
    with pytest.raises(ValueError):
        aut_density_mod_pk(QuadForm(1, 0, 1), 4, 2)
    k = 1
    while 3 ** (2 * k) <= AUT_SCAN_MAX:
        k += 1
    with pytest.raises(ValueError):
        aut_density_mod_pk(QuadForm(1, 0, 1), 3, k)


# ---------------------------------------------------------------------------
# genus mass ratios


def test_genus_mass_ratio_trivial():
    rep = genus_census(23)
    g = rep.genera[0]
    assert genus_mass_ratio(g.symbols, g.symbols) == 1


@pytest.mark.parametrize("S", [32, 36, 48, 96, 160])
def test_genus_mass_ratio_matches_census(S):
    rep = genus_census(S)
    assert len(rep.genera) >= 2, S
    base = rep.genera[0]
    for other in rep.genera[1:]:
        assert genus_mass_ratio(other.symbols, base.symbols) == other.mass / base.mass


def test_genus_mass_ratio_rejects_mismatch():
    g23 = genus_census(23).genera[0]
    g32 = genus_census(32).genera[0]
    with pytest.raises(ValueError):
        genus_mass_ratio(g23.symbols, g32.symbols)


def test_genus_mass_ratio_is_the_ratio_of_the_density_products():
    # every genus of S has the same density product, since beta_p reads only
    # (p, nu, unit): each ratio is 1, so `verify siegel` checks the grouping
    for S in range(1, 2001):
        genera = genus_partition(S)
        for g1, g2 in itertools.product(genera, repeat=2):
            (n1, d1), (n2, d2) = density_product(g1.symbols), density_product(g2.symbols)
            ratio = genus_mass_ratio(g1.symbols, g2.symbols)
            assert ratio == Fraction(n1 * d2, d1 * n2) == 1, S
    # supports {2, 23} and {2, 7}: as many primes, not the same ones
    g23, g7 = genus_partition(23)[0], genus_partition(7)[0]
    with pytest.raises(ValueError):
        genus_mass_ratio(g23.symbols, g7.symbols)


def test_density_ratio_table_values():
    # odd p, nu >= 1: ratio = q^-nu gamma / 2 per genus
    for p in (3, 5):
        for u in (QR, NQR):
            for nu in (1, 2, 3):
                for sym in enumerate_local_genera(LocalSquareClass(p, nu, u)):
                    g = gamma_factor(sym.unit_rep(), p)
                    assert density_ratio(sym) == Fraction(1, 2) * g / p**nu
    # 2-adic rows
    assert density_ratio(_sym(2, 0, 3)) == 1
    assert density_ratio(_sym(2, 2, 3)) == gamma_factor(3, 2) / 4
    assert density_ratio(_sym(2, 3, 1)) == gamma_factor(1, 2) / 16


def test_density_memos_return_the_unmemoized_values():
    """Equal symbols must have equal densities: once every symbol below has
    passed through the memo of `density_ratio`, each memoized value equals a
    fresh one."""
    symbols = [sym for p in (2, 3, 5, 7, 11) for sym in _local_genera(p, 12)]
    for S in range(1, 501):
        for g in genus_census(S).genera:
            symbols += g.symbols.values()
    memo = [density_ratio(sym) for sym in symbols]
    assert memo == [density_ratio.__wrapped__(sym) for sym in symbols]


# ---------------------------------------------------------------------------
# the integer-pair builds against the plain `Fraction` formulas


def _gamma_reference(u, p):
    return 1 - Fraction(chi(u, p), p)


def _local_density_inverse_reference(g):
    p, nu = g.p, g.nu
    if p != 2:
        return 1 / _gamma_reference(g.unit_rep(), p) if nu == 0 else Fraction(1, 2 * p**nu)
    if nu == 0:
        return 2 / _gamma_reference(g.unit, 2)
    if nu == 2:
        return Fraction(1, 4) if g.unit % 4 == 1 else Fraction(1, 2)
    if nu in (3, 4):
        return Fraction(1, 2**nu)
    return Fraction(1, 2 ** (nu + 1))


def _generic_density_inverse_reference(p, u):
    return (2 if p == 2 else 1) / _gamma_reference(u, p)


def _density_ratio_reference(g):
    return _local_density_inverse_reference(g) / _generic_density_inverse_reference(g.p, g.unit_rep())


def _ab_coeff_reference(p, unit, nu):
    A = B = Fraction(0)
    for sym in enumerate_local_genera(LocalSquareClass(p, nu, unit)):
        r = _density_ratio_reference(sym)
        A += r
        B += sym.label * r
    return A, B


def test_integer_pair_densities_equal_the_fraction_formulas():
    """Every density of every local genus at p <= 13, nu <= 12, and every
    (A, B), equals the formula written with `Fraction` operators, and is a
    `Fraction`.  All genera of one determinant class share one
    `density_ratio`, the rank-2 fact `_ab_coeff` reads one ratio by."""
    for p in (2, 3, 5, 7, 11, 13):
        for g in _local_genera(p, 12):
            u = g.unit_rep()
            pairs = [
                (local_density_inverse(g), _local_density_inverse_reference(g)),
                (generic_density_inverse(p, u), _generic_density_inverse_reference(p, u)),
                (density_ratio(g), _density_ratio_reference(g)),
                (density_ratio.__wrapped__(g), _density_ratio_reference(g)),
            ]
            for got, want in pairs:
                assert got == want and type(got) is Fraction, (g, got, want)
        for nu in range(13):
            for unit in (1, 3, 5, 7) if p == 2 else (QR, NQR):
                ratios = {density_ratio(g) for g in enumerate_local_genera(LocalSquareClass(p, nu, unit))}
                assert len(ratios) <= 1, (p, unit, nu, ratios)
                got = _ab_coeff.__wrapped__(p, unit, nu)
                assert got == _ab_coeff_reference(p, unit, nu), (p, unit, nu)
                assert all(type(x) is Fraction for x in got), (p, unit, nu)


def test_gamma_factor_equals_the_fraction_formula():
    for p in (2, 3, 5, 7, 11, 13, 97):
        for u in range(-40, 41):
            if u:
                got = gamma_factor(u, p)
                assert got == _gamma_reference(u, p) and type(got) is Fraction, (u, p)
