"""Exact integer/rational primitives: factorization, quadratic symbols,
Hilbert symbols, and local squareclasses of Q_p.

All results are exact (int / Fraction).  The functions are pure, except
that the module keeps one fixed sieve of the primes < 10^6 per process
(`primes_below()`, a tuple of Python ints built from an odd-only numpy
bitmap) and memoizes `is_prime` and `smallest_nonresidue`; these caches
change only speed and memory, never a result.  Each fact has one rule:
`factor` is the one trial division over that sieve, read by `is_prime`;
`valuation` is the one valuation loop; the unit tag of a squareclass, u mod 8
at 2 and at odd p the Legendre tag by Euler's criterion (as in the census
key), has one home, the (p, v, unit) builder `LocalSquareClass._of_unit`,
which `LocalSquareClass.of` calls after `valuation` and
`euler._local_split` after `factor`.  `kronecker`, the general symbol, is
the tests' oracle for that tag.  `gamma_factor` builds its one `Fraction`
from the pair (p - chi, p), and `hilbert_symbol` builds none for `int`
arguments, which already have a numerator and a denominator.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import isqrt
from typing import NamedTuple

import numpy as np

# Marker for the real place of Q in hilbert_symbol().
OO = float("inf")

_PRIME_LIMIT = 10**6
_FACTOR_LIMIT = _PRIME_LIMIT**2


@lru_cache(maxsize=1)
def primes_below() -> tuple[int, ...]:
    """All primes < 10^6, by sieve of Eratosthenes, as a tuple of Python
    ints (never numpy integers, which would overflow in `p**nu`).

    The sieve is an odd-only numpy bool bitmap: entry i stands for 2i + 1.
    Its entry 0, the number 1, is left set and read back as the prime 2.
    The primes are read off it with `np.flatnonzero`, so no int is built for
    a composite, and the bitmap and the index array are freed before the
    tuple is built: the build holds no more than the tuple, its ints and
    one list of them.  There is one sieve: the memo has one entry, so a
    process builds it once, and a smaller bound is a slice of it.
    """
    odd = np.ones(_PRIME_LIMIT // 2, dtype=bool)  # 1, 3, ..., 999999
    for p in range(3, isqrt(_PRIME_LIMIT - 1) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    idx = np.flatnonzero(odd)
    del odd
    idx *= 2
    idx += 1
    idx[0] = 2
    ps = idx.tolist()
    del idx
    return tuple(ps)


def check_factorable(n: int) -> None:
    """Refuse n past the supported factorization range, n >= 10^12."""
    if n >= _FACTOR_LIMIT:
        raise ValueError(f"{n} is beyond the supported factorization range")


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Primality of n < 10^12, read off `factor`: n is prime when it is its
    own factorization.  Memoized (errors are not)."""
    return n > 1 and factor(n) == [(n, 1)]


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n > 0 as a sorted list of (p, exponent).

    Trial division by primes < 10^6; larger inputs are rejected rather than
    silently mis-factored.
    """
    if n <= 0:
        raise ValueError("factor() requires a positive integer")
    check_factorable(n)
    out = []
    for p in primes_below():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def valuation(m: int, p: int) -> int:
    """Largest k with p^k | m.  Rejects m = 0 and p not prime, p <= 1
    included, where the loop would not end or would divide by zero."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    k = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        k += 1
    return k


def kronecker(a: int, m: int) -> int:
    """Kronecker symbol (a|m), m != 0.

    At 2 it is +1 for a = +-1 (mod 8), -1 for a = +-3 (mod 8), 0 for even a;
    completely multiplicative in both arguments.
    """
    if m == 0:
        raise ValueError("kronecker symbol needs m != 0")
    result = 1
    if m < 0:
        m = -m
        if a < 0:
            result = -result
    # split off the even part of m
    if m % 2 == 0:
        if a % 2 == 0:
            return 0
        tab = {1: 1, 7: 1, 3: -1, 5: -1}
        while m % 2 == 0:
            m //= 2
            result *= tab[a % 8]
    # Jacobi symbol for the remaining odd m via reciprocity
    a %= m
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return kronecker(a, p)


@lru_cache(maxsize=1024)
def smallest_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod an odd prime p.  Memoized (errors
    are not): every density of an NQR unit class at p reads it."""
    return next(r for r in count(2) if legendre(r, p) == -1)


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b)_v over Q; `place` is a prime or OO.

    The symbol depends only on the squareclasses of a and b, which it reads
    from `LocalSquareClass.of`: at odd p the closed formula in valuation
    parities and Legendre tags, at 2 the mod-8 epsilon/omega formula; at OO
    it is -1 iff both arguments are negative.  An `int` argument is read as
    it is; any other rational goes through `Fraction`.
    """
    if not isinstance(a, int):
        a = Fraction(a)
    if not isinstance(b, int):
        b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if place == OO:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not is_prime(p):
        raise ValueError(f"place must be a prime or OO, got {place!r}")
    # n/d and n*d differ by the square d^2, so they share a squareclass
    x = LocalSquareClass.of(a.numerator * a.denominator, p)
    y = LocalSquareClass.of(b.numerator * b.denominator, p)
    alpha, beta = x.val % 2, y.val % 2
    if p != 2:
        sign = -1 if alpha and beta and p % 4 == 3 else 1
        if beta:
            sign *= x.unit
        if alpha:
            sign *= y.unit
        return sign
    eps_u, eps_w = (x.unit - 1) // 2 % 2, (y.unit - 1) // 2 % 2
    om_u, om_w = (x.unit**2 - 1) // 8 % 2, (y.unit**2 - 1) // 8 % 2
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e % 2 else 1


def chi(u: int, p: int) -> int:
    """The character chi_u(p) = kronecker(-u, p); u an integer unit at p."""
    return kronecker(-u, p)


def gamma_factor(u: int, p: int) -> Fraction:
    """gamma_p(u) = 1 - chi_u(p)/p = (p - chi_u(p))/p, exactly."""
    return Fraction(p - chi(u, p), p)


# unit-class tags: odd p uses +1 (square) / -1 (non-square); p = 2 uses the
# residue mod 8.
QR, NQR = 1, -1


class _SquareClassFields(NamedTuple):
    p: int
    val: int
    unit: int


class LocalSquareClass(_SquareClassFields):
    """Element of SqCl(Q_p^x, Z_p^x): a valuation and a unit-class tag, held
    as the int triple (p, val, unit), so it compares, hashes and unpacks as
    that tuple.  The constructor checks the tag; the inherited `_make` and
    `_replace` do not, and the package never calls them."""

    __slots__ = ()

    def __new__(cls, p: int, val: int, unit: int) -> "LocalSquareClass":
        if p == 2:
            if unit % 8 != unit or unit % 2 == 0:
                raise ValueError("unit tag at 2 must be one of 1, 3, 5, 7")
        elif unit not in (QR, NQR):
            raise ValueError("unit tag at odd p must be +1 or -1")
        return tuple.__new__(cls, (p, val, unit))

    def __mul__(self, other: "LocalSquareClass") -> "LocalSquareClass":
        if self.p != other.p:
            raise ValueError("mismatched primes")
        if self.p == 2:
            tag = self.unit * other.unit % 8
        else:
            tag = self.unit * other.unit
        return LocalSquareClass(self.p, self.val + other.val, tag)

    @staticmethod
    def of(m: int, p: int) -> "LocalSquareClass":
        """The squareclass of a nonzero integer m at a prime p: m = p^v u with
        v = `valuation(m, p)`, which refuses m = 0 and p not prime, and the
        class of the p-unit u by `_of_unit`."""
        v = valuation(m, p)
        return LocalSquareClass._of_unit(p, v, m // p**v)  # exact for either sign: p^v divides m

    @staticmethod
    def _of_unit(p: int, v: int, u: int) -> "LocalSquareClass":
        """The squareclass of p^v u, for a prime p and a p-unit u: the one
        home of the tag rule, u mod 8 at 2, or at odd p QR or NQR by Euler's
        criterion, u^((p-1)/2) = 1 (mod p) or not.  It checks neither p nor
        u; `of` and `euler._local_split` pass a prime and a p-unit."""
        return LocalSquareClass(p, v, u % 8 if p == 2 else QR if pow(u, p >> 1, p) == 1 else NQR)
