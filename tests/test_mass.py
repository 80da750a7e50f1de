from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qfmass.arith import NQR, QR, LocalSquareClass, factor, gamma_factor
from qfmass.forms import QuadForm, det_hessian
from qfmass.globalmass import genus_census
from qfmass.localgenus import enumerate_local_genera, jordan_split_odd, local_symbol
from qfmass.mass import (
    HalfPower,
    count_SO_mod_p,
    density_ratio,
    generic_density_inverse,
    genus_mass_ratio,
    local_density_inverse,
    p_mass,
)

from .test_forms import random_posdef


def _sym(p, nu, u, pick=0):
    return enumerate_local_genera(p, LocalSquareClass(p, nu, u))[pick]


# ---------------------------------------------------------------------------
# p-mass table rows


def test_p_mass_odd_rows():
    for p in (3, 5, 7):
        for u in (QR, NQR):
            m = p_mass(_sym(p, 0, u))
            g = gamma_factor(_sym(p, 0, u).unit_rep(), p)
            assert m == HalfPower(p, Fraction(1, 2) / g, 0)
            assert p_mass(_sym(p, 1, u)) == HalfPower(p, Fraction(1, 4), 1)
            assert p_mass(_sym(p, 2, u)).as_fraction() == Fraction(p, 4)


def test_p_mass_two_adic_rows():
    assert p_mass(_sym(2, 0, 3)) == HalfPower(2, Fraction(1, 4) / gamma_factor(3, 2), 0)
    assert p_mass(_sym(2, 2, 1)).as_fraction() == Fraction(1, 8)
    assert p_mass(_sym(2, 2, 3)).as_fraction() == Fraction(1, 4)
    m = p_mass(_sym(2, 3, 1))
    assert m == HalfPower(2, Fraction(1), -5) and not m.is_rational()
    assert p_mass(_sym(2, 4, 1)).as_fraction() == Fraction(1, 4)
    assert p_mass(_sym(2, 6, 1)) == HalfPower(2, Fraction(1, 32), 6)


def test_half_power_arithmetic():
    x = HalfPower(2, Fraction(3), 1)
    y = x.scale(Fraction(1, 2)).times_power(3)
    assert y == HalfPower(2, Fraction(3, 2), 4)
    assert y.is_rational() and y.as_fraction() == Fraction(3, 2) * 4
    assert not x.is_rational()
    with pytest.raises(ValueError):
        x.as_fraction()


# ---------------------------------------------------------------------------
# local densities


def test_local_density_inverse_examples():
    for p in (3, 5, 7):
        for u in (QR, NQR):
            sym = _sym(p, 0, u)
            assert local_density_inverse(sym) == 1 / gamma_factor(sym.unit_rep(), p)
            assert local_density_inverse(_sym(p, 1, u)) == Fraction(1, 2 * p)
    assert local_density_inverse(_sym(2, 3, 1)) == Fraction(1, 8)
    # unimodular 2-adic row: the conversion carries the extra division by 2
    assert local_density_inverse(_sym(2, 0, 3)) == 2 / gamma_factor(3, 2)


def test_densities_always_rational():
    for p in (2, 3, 5):
        units = (1, 3, 5, 7) if p == 2 else (QR, NQR)
        for u in units:
            for nu in range(9):
                for sym in enumerate_local_genera(p, LocalSquareClass(p, nu, u)):
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


def test_density_ratio_table_values():
    # odd p, nu >= 1: ratio = q^-nu gamma / 2 per genus
    for p in (3, 5):
        for u in (QR, NQR):
            for nu in (1, 2, 3):
                for sym in enumerate_local_genera(p, LocalSquareClass(p, nu, u)):
                    g = gamma_factor(sym.unit_rep(), p)
                    assert density_ratio(sym) == Fraction(1, 2) * g / p**nu
    # 2-adic rows
    assert density_ratio(_sym(2, 0, 3)) == 1
    assert density_ratio(_sym(2, 2, 3)) == gamma_factor(3, 2) / 4
    assert density_ratio(_sym(2, 3, 1)) == gamma_factor(1, 2) / 16


def test_density_memos_return_the_unmemoized_values():
    """Equal symbols must have equal densities: once every symbol below has
    passed through the memos, each memoized value equals a fresh one."""
    symbols = []
    for p in (2, 3, 5, 7, 11):
        for nu in range(13):
            for u in (1, 3, 5, 7) if p == 2 else (QR, NQR):
                symbols += enumerate_local_genera(p, LocalSquareClass(p, nu, u))
    for S in range(1, 501):
        for g in genus_census(S).genera:
            symbols += g.symbols.values()
    for fn in (density_ratio, local_density_inverse):
        memo = [fn(sym) for sym in symbols]
        assert memo == [fn.__wrapped__(sym) for sym in symbols], fn.__name__
