from __future__ import annotations

import itertools
import random
import signal
from bisect import bisect_left
from contextlib import contextmanager
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmass.arith import (
    NQR,
    OO,
    QR,
    LocalSquareClass,
    chi,
    factor,
    gamma_factor,
    hilbert_symbol,
    is_prime,
    kronecker,
    legendre,
    primes_below,
    smallest_nonresidue,
    valuation,
)
from fractions import Fraction

from qfmass.forms import QuadForm
from qfmass.globalmass import l_value_truncated
from qfmass.localgenus import jordan_split_odd


# ---------------------------------------------------------------------------
# independent oracles


def euler_criterion(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion, independent of kronecker()."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def squarefree_part(n: int) -> int:
    out = 1 if n > 0 else -1
    for p, e in factor(abs(n)):
        if e % 2:
            out *= p
    return out


def hilbert_by_solvability(a: int, b: int, p: int) -> int:
    """Primitive solvability of a x^2 + b y^2 = z^2 over Z/p^k; the
    brute-force oracle for the Hilbert symbol at finite places."""
    a, b = squarefree_part(a), squarefree_part(b)
    k = 3 if p != 2 else 6
    mod = p**k
    squares: dict[int, bool] = {}
    for z in range(mod):
        key = z * z % mod
        squares[key] = squares.get(key, False) or bool(z % p)
    for x in range(mod):
        for y in range(mod):
            w = (a * x * x + b * y * y) % mod
            if w in squares and (x % p or y % p or squares[w]):
                return 1
    return -1


# ---------------------------------------------------------------------------
# valuation and factorization


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(7, 7) == 1
    assert valuation(45, 3) == 2


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        valuation(0, 5)


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError if the block runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_prime_checks_reject_non_primes_without_hanging():
    # each entry point checks p once; past the check, valuations loop on p | m
    # and would never end at p = 1
    f = QuadForm(1, 1, 3)
    calls = [
        lambda: valuation(12, 1),
        lambda: jordan_split_odd(f, 1),
        lambda: jordan_split_odd(f, 9),
        lambda: LocalSquareClass.of(12, 1),
        lambda: LocalSquareClass.of(12, 4),
    ]
    for call in calls:
        with time_limit(2.0), pytest.raises(ValueError):
            call()


def test_factor_roundtrip():
    for n in (1, 2, 60, 97, 2**10 * 3**4 * 101):
        prod = 1
        for p, e in factor(n):
            prod *= p**e
        assert prod == n


def test_factor_rejects_huge():
    with pytest.raises(ValueError):
        factor(10**13)


def test_is_prime_rejects_huge_every_time():
    # the memo does not cache errors
    for _ in range(2):
        with pytest.raises(ValueError):
            is_prime(10**12)


# ---------------------------------------------------------------------------
# the shared prime sieve


def primes_by_trial_division(limit: int) -> list[int]:
    return [n for n in range(2, limit) if all(n % d for d in range(2, isqrt(n) + 1))]


def sieve_builds() -> int:
    return primes_below.cache_info().misses


@pytest.fixture
def cold_sieve():
    """A fresh process's sieve state: nothing built, empty is_prime memo.
    The cache rebuilds on demand, so later tests see correct primes either
    way."""
    primes_below.cache_clear()
    is_prime.cache_clear()
    yield
    is_prime.cache_clear()


def test_sieve_is_shared_by_factor_is_prime_and_l_values(cold_sieve):
    primes_below()  # the warm-up a benchmark round or acceptance run makes
    before = sieve_builds()
    assert factor(2**10 * 999_983) == [(2, 10), (999_983, 1)]
    assert is_prime(97) and not is_prime(91)
    assert is_prime(1_000_003) and not is_prime(1_000_001)
    assert factor(1_000_003 * 999_983) == [(999_983, 1), (1_000_003, 1)]
    assert l_value_truncated(-23).prime_bound == 10**5
    assert factor(600_851_475_143) == [(71, 1), (839, 1), (1471, 1), (6857, 1)]
    assert l_value_truncated(-1996).prime_bound == 10**5
    assert is_prime(2**31 - 1)
    assert sieve_builds() == before


# The one sieve sliced at each limit: 0, 1 and 2 give no prime, 3 only 2,
# and at 4, 9, 10, 11, 25 and 26 the slice ends on or just below a prime or
# an odd square
@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 9, 10, 11, 25, 26, 100, 10**5 + 1])
def test_primes_below_matches_trial_division(cold_sieve, limit):
    expected = primes_by_trial_division(limit)
    if limit == 10**5 + 1:
        assert len(expected) == 9592  # pi(10^5)
    ps = primes_below()
    assert sieve_builds() == 1
    assert list(ps[: bisect_left(ps, limit)]) == expected


def test_primes_below_million(cold_sieve):
    ps = primes_below()
    # Python ints, not numpy integers: an np.int64 p would overflow in p**nu
    assert type(ps) is tuple and all(type(p) is int for p in ps)
    assert len(ps) == 78_498  # pi(10^6)
    assert all(a < b for a, b in zip(ps, ps[1:])) and ps[-1] == 999_983
    # every entry is prime: a composite below 10^6 has a prime factor < 1000
    small = primes_by_trial_division(1000)
    assert ps[: len(small)] == tuple(small)
    assert all(p in small or all(p % q for q in small) for p in ps)
    assert primes_below() is ps and sieve_builds() == 1


# ---------------------------------------------------------------------------
# kronecker symbol


def test_kronecker_examples():
    assert kronecker(-3, 2) == -1  # -3 = 5 (mod 8)
    for p in (3, 5, 7, 23):
        assert kronecker(1, p) == 1
    assert kronecker(2, 7) == euler_criterion(2, 7) == 1


def test_kronecker_at_two_table():
    values = {1: 1, 7: 1, 3: -1, 5: -1}
    for a in range(-40, 40):
        expected = 0 if a % 2 == 0 else values[a % 8]
        assert kronecker(a, 2) == expected


def test_kronecker_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            assert kronecker(a, p) == euler_criterion(a, p)


def test_kronecker_completely_multiplicative():
    rng = random.Random(1)
    for _ in range(2000):
        a1 = rng.randint(-500, 500)
        a2 = rng.randint(-500, 500)
        m = rng.randint(1, 500)
        assert kronecker(a1 * a2, m) == kronecker(a1, m) * kronecker(a2, m)
        m1 = rng.randint(1, 500)
        m2 = rng.randint(1, 500)
        a = rng.randint(-500, 500)
        assert kronecker(a, m1 * m2) == kronecker(a, m1) * kronecker(a, m2)


def test_smallest_nonresidue_is_the_least_nonresidue():
    # every NQR unit class at p is represented by it (`_tag_rep`)
    for p in primes_by_trial_division(10**4)[1:]:
        r = 2
        while legendre(r, p) != -1:
            r += 1
        assert smallest_nonresidue(p) == r, p


def test_smallest_nonresidue_refuses_non_odd_primes_and_memoizes_no_error():
    before = smallest_nonresidue.cache_info().currsize
    for n in (2, 1, 9, 2, 1, 9):
        with pytest.raises(ValueError):
            smallest_nonresidue(n)
    assert smallest_nonresidue.cache_info().currsize == before


# ---------------------------------------------------------------------------
# hilbert symbol

REPS = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10]


def test_hilbert_examples():
    for place in (2, 3, 5, OO):
        assert hilbert_symbol(1, -1, place) == 1
    assert hilbert_symbol(2, 5, 5) == -1
    assert hilbert_by_solvability(2, 5, 5) == -1
    assert hilbert_symbol(-1, -1, OO) == -1


def test_hilbert_against_solvability_oracle():
    # spot grid; the full representative set is covered at p = 2 and 3
    for p in (2, 3):
        for a, b in itertools.product(REPS, REPS):
            assert hilbert_symbol(a, b, p) == hilbert_by_solvability(a, b, p), (a, b, p)
    for a, b in [(2, 5), (5, 2), (-5, 10), (3, 35), (7, -7), (10, 10)]:
        for p in (5, 7):
            assert hilbert_symbol(a, b, p) == hilbert_by_solvability(a, b, p), (a, b, p)


def test_hilbert_symmetric_bimultiplicative():
    places = (2, 3, 5, 7, OO)
    for place in places:
        for a, b in itertools.product(REPS, REPS):
            assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
        for a, b, c in itertools.product((1, -1, 2, 3, 5), repeat=3):
            assert hilbert_symbol(a * b, c, place) == hilbert_symbol(
                a, c, place
            ) * hilbert_symbol(b, c, place)


def test_hilbert_norm_relations():
    for place in (2, 3, 5, OO):
        for a in REPS:
            assert hilbert_symbol(a, -a, place) == 1
            if a != 1:
                assert hilbert_symbol(a, 1 - a, place) == 1


def test_hilbert_product_formula():
    reps = REPS + [30, -30]
    for a, b in itertools.product(reps, reps):
        places = {OO} | {p for p, _ in factor(abs(2 * a * b))}
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


# random nonzero rationals with small numerators and denominators
nonzero_int = st.integers(-10**4, 10**4).filter(bool)
rational = st.builds(Fraction, nonzero_int, st.integers(1, 10**3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational, rational, rational)
def test_hilbert_on_rationals_symmetric_and_bimultiplicative(a, b, c):
    for place in (2, 3, 5, 7, OO):
        assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place), (a, b, place)
        assert hilbert_symbol(a * b, c, place) == hilbert_symbol(
            a, c, place
        ) * hilbert_symbol(b, c, place), (a, b, c, place)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational, rational)
def test_hilbert_product_formula_on_rationals(a, b):
    support = {OO, 2}
    for n in (a.numerator, a.denominator, b.numerator, b.denominator):
        support |= {p for p, _ in factor(abs(n))}
    prod = 1
    for v in support:
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1, (a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rational, rational, rational, st.sampled_from((2, 3, 5, 7)), st.integers(0, 3000))
def test_hilbert_depends_only_on_squareclasses(a, b, r, p, k):
    # a * r^2 * p^(2k) is in the squareclass of a, also at valuations in the thousands
    assert hilbert_symbol(a * r**2 * p ** (2 * k), b, p) == hilbert_symbol(a, b, p), (a, b, r, p, k)


def test_hilbert_accepts_fractions():
    assert hilbert_symbol(Fraction(1, 2), Fraction(3, 4), 2) == hilbert_symbol(2, 3, 2)


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 5)


def test_hilbert_on_ints_equals_hilbert_on_fractions():
    """Int arguments are read as they are, with no `Fraction` built: the
    same symbol as on their `Fraction`s, the same refusals."""
    grid = [n for n in range(-60, 61) if n] + [-2**31, 3 * 2**40, 5**20, -(7**15)]
    for place in (2, 3, 5, 7, 13, OO):
        for a in grid:
            for b in grid[::3]:
                assert hilbert_symbol(a, b, place) == hilbert_symbol(Fraction(a), Fraction(b), place), (a, b, place)
    for a, b, place in ((0, 3, 5), (3, 0, 2), (0, 0, OO), (3, 5, 1), (3, 5, 4), (3, 5, 0), (3, 5, -3)):
        with pytest.raises(ValueError):
            hilbert_symbol(a, b, place)


# ---------------------------------------------------------------------------
# chi and gamma


def test_chi_examples():
    assert chi(3, 2) == -1  # -3 = 5 (mod 8)
    assert chi(1, 5) == euler_criterion(-1, 5) == 1
    assert chi(1, 3) == euler_criterion(-1, 3) == -1


def test_gamma_examples():
    assert gamma_factor(3, 2) == Fraction(3, 2)
    assert gamma_factor(1, 5) == Fraction(4, 5)
    assert gamma_factor(5, 5) == 1  # chi vanishes when p | u


def test_chi_depends_only_on_tag_at_odd_p():
    for p in (3, 5, 7, 11):
        squares = {a * a % p for a in range(1, p)}
        qr = [a for a in range(1, p) if a in squares]
        nqr = [a for a in range(1, p) if a not in squares]
        assert len({chi(u, p) for u in qr}) == 1
        assert len({chi(u, p) for u in nqr}) == 1
        assert len({gamma_factor(u, p) for u in qr}) == 1


# ---------------------------------------------------------------------------
# squareclasses


def test_local_squareclass_tags():
    with pytest.raises(ValueError):
        LocalSquareClass(2, 0, 2)
    with pytest.raises(ValueError):
        LocalSquareClass(2, 1, 6)
    with pytest.raises(ValueError):
        LocalSquareClass(3, 0, 3)
    with pytest.raises(ValueError):
        LocalSquareClass(3, 1, 5)
    assert LocalSquareClass.of(12, 2) == LocalSquareClass(2, 2, 3)
    assert LocalSquareClass.of(12, 3) == LocalSquareClass(3, 1, legendre(4, 3))


def test_local_squareclass_of_equals_the_validating_constructor():
    # the constructor, fed the valuation and the unit tag computed here by
    # other means, builds the same square class as `of`
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 3000):
            for n in (m, -m):
                v = valuation(n, p)
                u = n // p**v
                expected = LocalSquareClass(p, v, u % 8 if p == 2 else legendre(u, p))
                got = LocalSquareClass.of(n, p)
                assert type(got) is LocalSquareClass and got == expected, (n, p)


def test_local_squareclass_is_an_immutable_triple():
    x = LocalSquareClass.of(360, 2)
    assert repr(x) == "LocalSquareClass(p=2, val=3, unit=5)"
    assert x == (2, 3, 5) and hash(x) == hash((2, 3, 5))
    p, val, unit = x
    assert (p, val, unit) == (x.p, x.val, x.unit)
    with pytest.raises(AttributeError):
        x.unit = 1
    assert not hasattr(x, "__dict__")


def test_local_squareclass_of_negative_integers():
    # -1 is not a square in Q_2, nor in Q_p for p = 3 (mod 4)
    assert LocalSquareClass.of(-1, 2) == LocalSquareClass(2, 0, 7)
    assert LocalSquareClass.of(-12, 2) == LocalSquareClass(2, 2, 5)
    assert LocalSquareClass.of(-3, 5) == LocalSquareClass(5, 0, NQR)
    assert LocalSquareClass.of(-1, 3) == LocalSquareClass(3, 0, NQR)
    assert LocalSquareClass.of(-1, 5) == LocalSquareClass(5, 0, QR)


def test_local_squareclass_group_law():
    x = LocalSquareClass.of(6, 2)
    y = LocalSquareClass.of(10, 2)
    assert x * y == LocalSquareClass.of(60, 2)
    sq = x * x
    assert sq.val % 2 == 0 and sq.unit == 1
    a = LocalSquareClass.of(6, 3)
    assert (a * a).unit == QR


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nonzero_int, nonzero_int, st.sampled_from((2, 3, 5, 7, 11)))
def test_local_squareclass_of_is_multiplicative(m, n, p):
    assert LocalSquareClass.of(m * n, p) == LocalSquareClass.of(m, p) * LocalSquareClass.of(n, p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nonzero_int, st.sampled_from((2, 3, 5, 7, 11)))
def test_local_squareclass_of_negation(m, p):
    assert LocalSquareClass.of(-m, p) == LocalSquareClass.of(-1, p) * LocalSquareClass.of(m, p)
