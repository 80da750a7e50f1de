"""p-masses, local densities, generic local densities, and exact mass
comparisons between genera of binary forms.

p-masses are kept as exact values r * q^(k/2) so the sqrt-q factors never
become floats; converting to a local density must cancel every half power,
and a live half exponent is asserted away as a table error.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import gamma_factor
from .forms import QuadForm, det_hessian
from .localgenus import LocalGenusSymbol, OddGenusSymbol


@dataclass(frozen=True)
class HalfPower:
    """Exact value coeff * p^(half_exponent / 2)."""

    p: int
    coeff: Fraction
    half_exponent: int

    def times_power(self, half_exponent: int) -> "HalfPower":
        return HalfPower(self.p, self.coeff, self.half_exponent + half_exponent)

    def scale(self, r) -> "HalfPower":
        return HalfPower(self.p, self.coeff * Fraction(r), self.half_exponent)

    def is_rational(self) -> bool:
        return self.half_exponent % 2 == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"live half exponent {self.half_exponent} at p={self.p}")
        return self.coeff * Fraction(self.p) ** (self.half_exponent // 2)


def p_mass(g: LocalGenusSymbol) -> HalfPower:
    """The Conway-Sloane style p-mass of a rank-2 local genus, exactly as in
    the rank-2 mass table (odd p and the five 2-adic rows)."""
    if isinstance(g, OddGenusSymbol):
        p, nu = g.p, g.nu
        if nu == 0:
            return HalfPower(p, Fraction(1, 2) / gamma_factor(g.unit_rep(), p), 0)
        return HalfPower(p, Fraction(1, 4), nu)
    nu, u = g.nu, g.unit
    if nu == 0:
        return HalfPower(2, Fraction(1, 4) / gamma_factor(u, 2), 0)
    if nu == 2:
        return HalfPower(2, Fraction(1, 8) if u % 4 == 1 else Fraction(1, 4), 0)
    if nu == 3:
        return HalfPower(2, Fraction(1), -5)
    if nu == 4:
        return HalfPower(2, Fraction(1, 4), 0)
    if nu >= 5:
        return HalfPower(2, Fraction(1, 32), nu)
    raise ValueError(f"no rank-2 mass row for nu = {nu} at 2")


@lru_cache(maxsize=None)
def local_density_inverse(g: LocalGenusSymbol) -> Fraction:
    """Inverse local density 1/beta_p of the genus, via the conversion
    beta^-1 = 2 * m_p * q^(-3 nu / 2 + 3 ord_p(2)).

    At p = 2 the even-unimodular row (nu = 0) carries the generic-density
    convention's extra division by 2.  That placement is internally
    consistent but not independently checked: the Siegel ratios are all 1
    and the decomposition check reads `density_ratio` on both sides.
    Memoized per symbol: symbols are frozen and the value reads only their
    fields.
    """
    m = p_mass(g)
    p, nu = m.p, g.nu
    conv = m.scale(2).times_power(-3 * nu + (6 if p == 2 else 0))
    out = conv.as_fraction()
    if p == 2 and nu == 0:
        out /= 2
    return out


def generic_density_inverse(p: int, u) -> Fraction:
    """Inverse generic local density at p of the normalized unit class u:
    gamma_p(u)^-1 at odd p, and 2 * gamma_2(u)^-1 at p = 2 (one fixed
    convention for every unit class)."""
    g = gamma_factor(u, p)
    return (2 if p == 2 else 1) / g


@lru_cache(maxsize=None)
def density_ratio(g: LocalGenusSymbol) -> Fraction:
    """beta_generic / beta_G at the symbol's prime: the normalized density
    entering the local mass sums; memoized per symbol like
    `local_density_inverse`."""
    return local_density_inverse(g) / generic_density_inverse(g.p, g.unit_rep())


def count_SO_mod_p(f: QuadForm, p: int) -> int:
    """Brute-force count of determinant-1 matrices mod p preserving f;
    only valid (and only accepted) at odd primes of good reduction."""
    if p == 2 or det_hessian(f) % p == 0:
        raise ValueError("count_SO_mod_p needs an odd prime of good reduction")
    a, b, c = (x % p for x in f.abc)
    count = 0
    for m00 in range(p):
        for m01 in range(p):
            for m10 in range(p):
                for m11 in range(p):
                    if (m00 * m11 - m01 * m10) % p != 1:
                        continue
                    a2 = (a * m00 * m00 + b * m00 * m10 + c * m10 * m10) % p
                    if a2 != a:
                        continue
                    c2 = (a * m01 * m01 + b * m01 * m11 + c * m11 * m11) % p
                    if c2 != c:
                        continue
                    b2 = (2 * a * m00 * m01 + b * (m00 * m11 + m01 * m10) + 2 * c * m10 * m11) % p
                    if b2 == b % p:
                        count += 1
    return count


def genus_mass_ratio(symbols1: dict[int, LocalGenusSymbol], symbols2: dict[int, LocalGenusSymbol]) -> Fraction:
    """Ratio of Siegel masses of two genera with equal determinant, as the
    product over p | 2 det of their inverse-local-density ratios.

    The product runs over plain integers, the numerators and denominators of
    the memoized `local_density_inverse` values, and is reduced once into the
    returned `Fraction`."""
    if set(symbols1) != set(symbols2):
        raise ValueError("genus symbol supports differ")
    n = d = 1
    for p in symbols1:
        a, b = local_density_inverse(symbols1[p]), local_density_inverse(symbols2[p])
        n *= a.numerator * b.denominator
        d *= a.denominator * b.numerator
    return Fraction(n, d)
