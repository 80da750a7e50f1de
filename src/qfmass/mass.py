"""Local densities, generic local densities, and exact mass comparisons
between genera of binary forms.

The inverse local density 1/beta_p of a rank-2 local genus is a closed row
per valuation (`local_density_inverse`), exact and rational.  The rows are
the rank-2 p-mass table m_p converted by beta^-1 = 2 m_p q^(-3 nu/2 + 3
ord_p 2), where the half powers of q always cancel; the tests keep that
table and that conversion as data.  Each row is pinned on its own by the
mod-p^k automorphism count `aut_density_mod_pk`, an elementary oracle kept
out of every hot path, as `count_SO_mod_p` is.

`density_ratio`, the row over the generic density at the same (p, unit), is
the one memoized value per symbol: the local mass sums read it, and so does
`density_product`, the one product loop over a genus.  The decomposition
check calls that loop once per genus it sums, and `genus_mass_ratio` is the
quotient of two of its products.  No genus record keeps a product.

Each density is built from integer pairs and normalized once: a row reads
the numerator and denominator of `gamma_factor` (`as_integer_ratio`) and
returns one `Fraction`, and `density_ratio` combines the pairs of its two
densities into one `Fraction`, so no chain of `Fraction` operations takes a
gcd at every step.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import gamma_factor, is_prime
from .forms import QuadForm, det_hessian
from .localgenus import LocalGenusSymbol


def local_density_inverse(g: LocalGenusSymbol) -> Fraction:
    """Inverse local density 1/beta_p of a rank-2 local genus of valuation
    nu = ord_p(det_H) and determinant unit class u:

    - odd p: 1/gamma_p(u) at nu = 0, and p^-nu / 2 at nu >= 1;
    - p = 2: 2/gamma_2(u) at nu = 0 (the generic-density convention at 2);
      at nu = 2, 1/4 when u = 1 (mod 4), else 1/2; 1/8 at nu = 3, 1/16 at
      nu = 4, and 2^(-nu-1) at nu >= 5.

    What pins each row is the automorphism count: for any form f of the
    genus, alpha_p(f) * 1/beta_p = 4 at p = 2 and 2 at odd p, where
    alpha_p(f) = `aut_density_mod_pk(f, p, k)` for k large enough.
    Not memoized: the package reads it through the memo of `density_ratio`.
    """
    p, nu = g.p, g.nu
    if p != 2:
        if nu:
            return Fraction(1, 2 * p**nu)
        n, d = gamma_factor(g.unit_rep(), p).as_integer_ratio()
        return Fraction(d, n)  # 1/gamma_p(u)
    if nu == 0:
        n, d = gamma_factor(g.unit, 2).as_integer_ratio()
        return Fraction(2 * d, n)  # 2/gamma_2(u)
    if nu == 2:
        return Fraction(1, 4) if g.unit % 4 == 1 else Fraction(1, 2)
    if nu in (3, 4):
        return Fraction(1, 2**nu)
    if nu >= 5:
        return Fraction(1, 2 ** (nu + 1))
    raise ValueError(f"no rank-2 density row for nu = {nu} at 2")


def generic_density_inverse(p: int, u) -> Fraction:
    """Inverse generic local density at p of the normalized unit class u:
    gamma_p(u)^-1 at odd p, and 2 * gamma_2(u)^-1 at p = 2 (one fixed
    convention for every unit class)."""
    n, d = gamma_factor(u, p).as_integer_ratio()
    return Fraction(2 * d if p == 2 else d, n)


@lru_cache(maxsize=None)
def density_ratio(g: LocalGenusSymbol) -> Fraction:
    """beta_generic / beta_G at the symbol's prime: the normalized density
    entering the local mass sums.  Memoized per symbol, the only density
    memo: a symbol is an immutable tuple that hashes as its fields, and the
    value reads only those fields.  The quotient is taken on the integer
    pairs of the two densities and reduced once."""
    ln, ld = local_density_inverse(g).as_integer_ratio()
    gn, gd = generic_density_inverse(g.p, g.unit_rep()).as_integer_ratio()
    return Fraction(ln * gd, ld * gn)


def count_SO_mod_p(f: QuadForm, p: int) -> int:
    """Brute-force count of determinant-1 matrices mod p preserving f;
    only valid (and only accepted) at odd primes of good reduction."""
    if p == 2 or det_hessian(f) % p == 0:
        raise ValueError("count_SO_mod_p needs an odd prime of good reduction")
    a, b, c = (x % p for x in f)
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


# Most vectors (p^2k) `aut_density_mod_pk` scans: one int64 array of 32 MiB.
AUT_SCAN_MAX = 2**22

# Most (automorphism column, vector) pairs tested at once.
_AUT_PAIR_BLOCK = 2**20


def aut_density_mod_pk(f: QuadForm, p: int, k: int) -> Fraction:
    """alpha_p(f, k) = p^-k #{X in M_2(Z/p^k) : f o X = f (mod p^k)}, the
    density of f representing itself, by brute force (Conway-Sloane,
    Low-dimensional lattices IV: the mass formula).  For k large enough it
    no longer depends on k, and alpha_p(f) * `local_density_inverse` is 4 at
    p = 2 and 2 at odd p.

    X has columns v, w with f(v) = a, f(w) = c and B(v, w) = b (mod q = p^k),
    where B(v, w) = v^T H w, H = [[2a, b], [b, 2c]] the Hessian.  All q^2
    values f(v) are computed at once; then B(v, w) = (H v) . w is tested on
    every pair, with the v of equal H v (mod q) counted together.  Refuses
    k < 1 and p^2k > AUT_SCAN_MAX."""
    if not is_prime(p):
        raise ValueError(f"aut_density_mod_pk needs a prime, not {p}")
    if k < 1:
        raise ValueError("aut_density_mod_pk needs k >= 1")
    if p ** (2 * k) > AUT_SCAN_MAX:
        raise ValueError(f"aut_density_mod_pk scans p^2k vectors, at most {AUT_SCAN_MAX}")
    q = p**k
    a, b, c = (x % q for x in f)
    x = np.arange(q, dtype=np.int64)
    values = np.outer(x, x)  # entries below q^3 <= 2^33
    values *= b
    values += (a * x * x)[:, None]
    values += c * x * x
    values %= q
    v0, v1 = np.nonzero(values == a)
    w0, w1 = np.nonzero(values == c)
    del values
    # H v (mod q) as one int key per v, each distinct key with its multiplicity
    keys, mult = np.unique((2 * a * v0 + b * v1) % q * q + (b * v0 + 2 * c * v1) % q, return_counts=True)
    h0, h1 = np.divmod(keys, q)
    count = 0
    step = max(1, _AUT_PAIR_BLOCK // len(w0))  # w = (0, 1) is one of them
    for s in range(0, len(keys), step):
        hits = (h0[s : s + step, None] * w0 + h1[s : s + step, None] * w1) % q == b
        count += int(np.count_nonzero(hits, axis=1) @ mult[s : s + step])
    return Fraction(count, q)


def density_product(symbols: dict[int, LocalGenusSymbol]) -> tuple[int, int]:
    """prod over the symbols of beta_gen/beta_G (`density_ratio`), as an
    unreduced pair (numerator, denominator) of positive integers: the one
    product loop over a genus, read by the decomposition check and by
    `genus_mass_ratio`."""
    n = d = 1
    for sym in symbols.values():
        rn, rd = density_ratio(sym).as_integer_ratio()
        n *= rn
        d *= rd
    return n, d


def genus_mass_ratio(symbols1: dict[int, LocalGenusSymbol], symbols2: dict[int, LocalGenusSymbol]) -> Fraction:
    """Ratio of Siegel masses of two genera with equal determinant, as the
    quotient of their `density_product`s over p | 2 det, reduced once.

    The two genera share the determinant, so at every p their symbols share
    (p, nu, unit) and hence the generic density, which cancels from the
    quotient."""
    if symbols1.keys() != symbols2.keys():
        raise ValueError("genus symbol supports differ")
    n1, d1 = density_product(symbols1)
    n2, d2 = density_product(symbols2)
    return Fraction(n1 * d2, d1 * n2)
