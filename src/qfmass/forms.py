"""Integral binary quadratic forms a*x^2 + b*x*y + c*y^2 held by their three
coefficients: reduction and equivalence of positive-definite forms,
automorphism counting, and exhaustive enumeration by determinant.

The Hessian [[2a, b], [b, 2c]] has determinant det_H = 4ac - b^2.  Only binary
forms occur, so determinants and Hasse invariants are closed forms:
a nondegenerate binary space is <x, det_G/x> for any value x != 0 it
takes, hence c_v = (x, -det_H/4)_v = (x, -det_H)_v, since 4 is a square.

The census reads its classes from `reduced_classes`, a numpy scan over
windows of consecutive determinants; the total mass and the class number
read only their count, `class_count`.  `enumerate_classes` is the
brute-force oracle that scan and the analytic machinery are checked
against, so it stays elementary on purpose.
"""
from __future__ import annotations

from functools import partial
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .arith import hilbert_symbol


class QuadForm(NamedTuple):
    """Binary form a*x^2 + b*x*y + c*y^2 with integer coefficients, held as
    the int triple (a, b, c): it compares, hashes and unpacks as that tuple,
    so a class source hands over its triples at the cost of a tuple."""

    a: int
    b: int
    c: int

    def __call__(self, x: int, y: int) -> int:
        a, b, c = self
        return a * x * x + b * x * y + c * y * y

    def is_positive_definite(self) -> bool:
        return self.a > 0 and det_hessian(self) > 0

    def transform(self, t: tuple[tuple[int, int], tuple[int, int]]) -> "QuadForm":
        """The form f(T(x, y)) for an integer matrix T (columns = images)."""
        a, b, c = self
        (p, q), (r, s) = t
        a2 = a * p * p + b * p * r + c * r * r
        c2 = a * q * q + b * q * s + c * s * s
        b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
        return QuadForm(a2, b2, c2)


def det_hessian(f: QuadForm) -> int:
    """Determinant 4ac - b^2 of the Hessian matrix [[2a, b], [b, 2c]]."""
    return 4 * f.a * f.c - f.b * f.b


def is_primitive(f: QuadForm) -> bool:
    """True iff gcd(a, b, c) = 1."""
    return content(f) == 1


def content(f: QuadForm) -> int:
    return gcd(*f)


def _is_reduced(a: int, b: int, c: int) -> bool:
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (a == c or a == abs(b)):
        return False
    return True


def reduce_binary(f: QuadForm) -> QuadForm:
    """Gauss-reduced representative of a positive-definite binary form.

    The output satisfies |b| <= a <= c with b >= 0 whenever a = c or a = |b|,
    and is properly equivalent (det +1 change of variables) to the input.
    """
    if not f.is_positive_definite():
        raise ValueError("reduce_binary needs a positive-definite form")
    a, b, c = f
    while not (-a < b <= a <= c):
        if not -a < b <= a:
            # (x, y) -> (x + k*y, y) translates b into (-a, a]
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
        if a > c:
            # (x, y) -> (-y, x) swaps the outer coefficients
            a, b, c = c, -b, a
    if a == c and b < 0:
        b = -b
    assert _is_reduced(a, b, c), (a, b, c)
    return QuadForm(a, b, c)


def _norm_vectors(f: QuadForm, value: int) -> list[tuple[int, int]]:
    """All integer (x, y) with f(x, y) = value > 0, by a provably complete scan:
    4a*f = (2ax + by)^2 + det*y^2 bounds y, and symmetrically for x."""
    a, b, c = f
    d = det_hessian(f)
    out = []
    ymax = isqrt(4 * a * value // d)
    for y in range(-ymax, ymax + 1):
        # solve a x^2 + (b y) x + (c y^2 - value) = 0 over Z
        disc = (b * y) ** 2 - 4 * a * (c * y * y - value)
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        for sign in ((s,) if s == 0 else (s, -s)):
            num = -b * y + sign
            if num % (2 * a) == 0:
                out.append((num // (2 * a), y))
    return out


def _automorphisms(f: QuadForm) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    a, b, c = f
    auts = []
    vs = _norm_vectors(f, a)
    ws = _norm_vectors(f, c)
    for p, r in vs:
        for q, s in ws:
            # preserve the bilinear form: H(Te1, Te2) = b
            if 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s == b:
                auts.append(((p, q), (r, s)))
    return auts


def automorphism_count(f: QuadForm) -> int:
    """Order of the full integral automorphism group (determinant +-1).

    Contains -identity, so the count is always even.
    """
    if not f.is_positive_definite():
        raise ValueError("automorphism_count needs a positive-definite form")
    return len(_automorphisms(f))


def proper_automorphism_count(f: QuadForm) -> int:
    """Order of the proper (determinant +1) automorphism group."""
    if not f.is_positive_definite():
        raise ValueError("proper_automorphism_count needs a positive-definite form")
    return sum(1 for (p, q), (r, s) in _automorphisms(f) if p * s - q * r == 1)


def mu_order(D: int) -> int:
    """Number of roots of unity in Q(sqrt(D)): the order of the proper
    automorphism group of every primitive form of discriminant D < 0."""
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2


def enumerate_classes(S: int) -> list[QuadForm]:
    """All reduced positive-definite primitive binary forms with
    det_hessian = S, one per proper class, in `abc` order: the loop runs over
    a, then b, and c is fixed by (a, b).

    This is the elementary oracle for `reduced_classes`, which the census
    uses; nothing outside the tests and `improper_classes` calls it.

    Empty exactly when S = 1, 2 (mod 4): 4ac - b^2 is 0 or 3 mod 4, and for
    S = 0, 3 (mod 4) the principal form (1, S mod 2, c) is primitive.
    """
    if S <= 0:
        raise ValueError("determinant must be positive")
    out = []
    for a in range(1, isqrt(S // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = S + b * b
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            f = QuadForm(a, b, c)
            if is_primitive(f):
                out.append(f)
    return out


# Most (a, b) pairs one block of a `_window` scan holds: each int64 array of
# a block is 2 MiB, and at most five are alive at once.
SCAN_BLOCK_PAIRS = 1 << 18

# Caps the width of a `reduced_classes` window so that it holds about
# WINDOW_FORMS / 2 forms: three int64 arrays of 1 MiB each.
WINDOW_FORMS = 1 << 18


def _window(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The reduced primitive forms with lo <= 4ac - b^2 < hi, as arrays
    a, b, c stably sorted by determinant, so each determinant's forms are in
    `abc` order, and their offsets: the forms of S are the entries
    start[S - lo] to start[S - lo + 1].

    A reduced form has |b| <= a <= sqrt(S/3).  With r = (hi - 1 + b^2) mod 4a
    a pair (a, b) has a c with lo <= 4ac - b^2 < hi iff r < hi - lo: the
    largest is c = (hi - 1 + b^2 - r)/4a, and each 4a further down the
    window gives one more, so only a pair with 4a < hi - lo can have
    several.  The scan keeps the c >= a, not (b < 0 and a = c), with
    gcd(a, b, c) = 1.  One determinant S forces b = S (mod 2), so its
    window takes a candidates b in (-a, a] per a, a wider one all 2a; and
    it needs no sort.  The scan runs over blocks of consecutive a of at most
    SCAN_BLOCK_PAIRS pairs (one block for one determinant up to about
    1.5 * 10^6), so memory stays bounded at any S; the forms are int64.
    """
    width = hi - lo
    step = 1 if width > 1 else 2  # between the candidates b of one a
    a_max = isqrt((hi - 1) // 3)
    parts = []
    a0 = 1
    while a0 <= a_max:
        # the largest a1 with (2 / step) * (a0 + ... + (a1 - 1)) <= SCAN_BLOCK_PAIRS, at least a0 + 1
        n = 2 * (SCAN_BLOCK_PAIRS * step // 2) + a0 * (a0 - 1)
        a1 = min(max((1 + isqrt(1 + 4 * n)) // 2, a0 + 1), a_max + 1)
        a = np.arange(a0, a1, dtype=np.int64)
        count = a if step == 2 else 2 * a
        # the candidates of a are b = b0(a) + step * k, k < count, with b0 the least b > -a,
        # and b0 = lo (mod 2) for one determinant
        b0 = 1 - a + (a + 1 + lo) % 2 if step == 2 else 1 - a
        start = np.cumsum(count) - count  # index of each a's first pair
        b = np.arange(int(count.sum()), dtype=np.int64)
        b *= step
        b += np.repeat(b0 - step * start, count)
        a = np.repeat(a, count)
        num = b * b
        num += hi - 1
        hit = num % (4 * a) < width
        a, b, num = a[hit], b[hit], num[hit]
        c = num // (4 * a)
        if width > 4 * a0:
            # a pair with 4a < width can have several c: 4ac - b^2 - lo lies 4a above lo per extra c
            k = (4 * a * c - b * b - lo) // (4 * a) + 1
            a, b, c = np.repeat(a, k), np.repeat(b, k), np.repeat(c, k)
            c -= np.arange(len(c)) - np.repeat(np.cumsum(k) - k, k)
        keep = (c >= a) & ~((b < 0) & (a == c))
        a, b, c = a[keep], b[keep], c[keep]
        keep = np.gcd(np.gcd(a, b), c) == 1
        parts.append((a[keep], b[keep], c[keep]))
        a0 = a1
    if not parts:  # hi <= 3: no a at all
        parts.append((np.empty(0, np.int64),) * 3)
    a, b, c = parts[0] if len(parts) == 1 else (np.concatenate(xs) for xs in zip(*parts))
    if width == 1:
        return a, b, c, [0, len(a)]
    S = 4 * a * c - b * b
    order = np.argsort(S, kind="stable")
    start = np.searchsorted(S[order], np.arange(lo, hi + 1)).tolist()
    return a[order], b[order], c[order], start


# QuadForm from an (a, b, c) tuple without the NamedTuple's Python-level
# __new__: the same instance at about half the cost per class
_new_form = partial(tuple.__new__, QuadForm)


class _ClassWindow:
    """The held window of `reduced_classes` and `class_count`: the forms of
    lo <= S < hi from one `_window` scan, replaced by the readahead rule
    stated at `reduced_classes`."""

    def __init__(self) -> None:
        self.lo = self.hi = 0
        self.a = self.b = self.c = np.empty(0, np.int64)
        self.start = [0]

    def span(self, S: int) -> tuple[int, int]:
        """The offsets i, j of S's forms a[i:j], b[i:j], c[i:j], after
        scanning a new window when S lies outside the held one."""
        if not self.lo <= S < self.hi:
            width = self.hi - self.lo
            width = 2 * width if self.hi <= S < self.hi + width else 1
            width = max(1, min(width, WINDOW_FORMS // (isqrt((S + width) // 3) + 1)))
            self.lo = self.hi = S
            self.a = self.b = self.c = np.empty(0, np.int64)
            self.a, self.b, self.c, self.start = _window(S, S + width)
            self.hi = S + width
        return self.start[S - self.lo], self.start[S - self.lo + 1]

    def classes(self, S: int) -> list[QuadForm]:
        i, j = self.span(S)
        return list(map(_new_form, zip(self.a[i:j].tolist(), self.b[i:j].tolist(), self.c[i:j].tolist())))


_CLASSES = _ClassWindow()


def reduced_classes(S: int) -> list[QuadForm]:
    """The classes of `enumerate_classes(S)`, in the same `abc` order, from a
    numpy window scan: the census's class source.  Each class is a
    `QuadForm`, that is its (a, b, c) int triple, which the census groups
    as plain ints.

    The classes come from a window lo <= S < hi of consecutive
    determinants: one `_window` scan over the (a, b) pairs with
    a <= sqrt(hi/3) buckets the forms by determinant (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 5.3.5).  One window is
    held.  A determinant outside it starts a new window at it, twice as
    wide as the last when S lies at most one width past it (a forward
    walk), else one determinant wide: a walk scans a window per doubling
    of its length until the cap below binds, and random access costs one
    per-S scan.  A window holds about a_max/2 forms per determinant,
    a_max = sqrt(hi/3), so its width is capped at
    WINDOW_FORMS / (a_max + 1), about WINDOW_FORMS / 2 forms.  The old
    window is dropped before the new one is scanned, so the two are never
    held at once.  Calls from several threads at once could race on a new
    window; the package makes none.
    """
    if S <= 0:
        raise ValueError("determinant must be positive")
    return _CLASSES.classes(S)


def class_count(S: int) -> int:
    """len(reduced_classes(S)), the number of proper classes of primitive
    forms of determinant S, read as the difference of two offsets of the
    held window: no form is built.  A determinant outside the window starts
    a new one by the readahead rule of `reduced_classes`, so a census of S
    followed by its count scans once."""
    if S <= 0:
        raise ValueError("determinant must be positive")
    i, j = _CLASSES.span(S)
    return j - i


def mirror(f: QuadForm) -> QuadForm:
    """The improperly equivalent form (x, y) -> (x, -y), flipping b."""
    a, b, c = f
    return QuadForm(a, -b, c)


def improper_classes(S: int) -> list[list[QuadForm]]:
    """Proper classes of determinant S grouped into GL_2(Z)-classes: an
    ambiguous class stays alone, otherwise a class pairs with its mirror."""
    remaining = list(enumerate_classes(S))
    groups = []
    while remaining:
        f = remaining.pop(0)
        partner = reduce_binary(mirror(f))
        if partner != f and partner in remaining:
            remaining.remove(partner)
            groups.append([f, partner])
        else:
            groups.append([f])
    return groups


def hasse_invariant(f: QuadForm, place) -> int:
    """Hasse invariant of the rational quadratic space at a place: the product
    of pairwise Hilbert symbols over any diagonalization.

    A binary space is <x, det_G/x> for any value x != 0 it takes, so
    c_v = (x, -det_G)_v with det_G = det_H/4, which equals (x, -det_H)_v
    since 4 is a square; x = a, else c, else Q(e1 + e2) = b when a = c = 0.
    """
    d = det_hessian(f)
    if d == 0:
        raise ValueError("degenerate form")
    a, b, c = f
    return hilbert_symbol(a or c or b, -d, place)


def scale_hasse(u, f: QuadForm, place) -> int:
    """Hasse invariant of the u-scaled space by the closed binary scaling law
    c(uV) = (u, u)_v (u, det_G)_v c(V), det_G = det_H/4, with no
    rediagonalization; (u, det_G)_v = (u, det_H)_v since 4 is a square."""
    if u == 0:
        raise ValueError("scaling must be nonzero")
    c = hasse_invariant(f, place)
    return c * hilbert_symbol(u, u, place) * hilbert_symbol(u, det_hessian(f), place)
