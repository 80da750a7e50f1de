"""Integral quadratic forms of rank 1 or 2 held by their Hessian matrices:
reduction and equivalence of positive-definite binary forms, automorphism
counting, and exhaustive enumeration by determinant.

Only the two ranks that occur are supported, so determinants and Hasse
invariants are closed forms: a nondegenerate binary space is <x, det_G/x>
for any value x != 0 it takes, hence c_v = (x, -det_H/4)_v.

The enumeration here is the brute-force oracle the analytic machinery is
checked against, so it stays elementary on purpose.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .arith import OO, hilbert_symbol


@dataclass(frozen=True)
class QuadForm:
    """Integral quadratic form as its Hessian matrix (symmetric, even diagonal).

    For binary forms a*x^2 + b*x*y + c*y^2 the Hessian is [[2a, b], [b, 2c]].
    """

    hessian: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        H = self.hessian
        n = len(H)
        if n not in (1, 2):
            raise ValueError("only rank 1 and rank 2 forms are supported")
        if any(len(row) != n for row in H):
            raise ValueError("hessian must be square")
        for i in range(n):
            if H[i][i] % 2:
                raise ValueError("hessian diagonal must be even")
            for j in range(i):
                if H[i][j] != H[j][i]:
                    raise ValueError("hessian must be symmetric")

    @property
    def n(self) -> int:
        return len(self.hessian)

    @staticmethod
    def binary(a: int, b: int, c: int) -> "QuadForm":
        return QuadForm(((2 * a, b), (b, 2 * c)))

    @staticmethod
    def diagonal(*coeffs: int) -> "QuadForm":
        n = len(coeffs)
        return QuadForm(
            tuple(tuple(2 * coeffs[i] if i == j else 0 for j in range(n)) for i in range(n))
        )

    @property
    def abc(self) -> tuple[int, int, int]:
        if self.n != 2:
            raise ValueError("not a binary form")
        H = self.hessian
        return H[0][0] // 2, H[0][1], H[1][1] // 2

    def __call__(self, *xs: int) -> int:
        H = self.hessian
        return sum(H[i][j] * xs[i] * xs[j] for i in range(self.n) for j in range(self.n)) // 2

    def coefficients(self) -> list[int]:
        """The form coefficients a_ii and a_ij (i < j)."""
        H = self.hessian
        out = [H[i][i] // 2 for i in range(self.n)]
        out += [H[i][j] for i in range(self.n) for j in range(i + 1, self.n)]
        return out

    def is_positive_definite(self) -> bool:
        if self.n != 2:
            raise ValueError("definiteness test implemented for binary forms")
        a, _, _ = self.abc
        return a > 0 and det_hessian(self) > 0

    def transform(self, t: tuple[tuple[int, int], tuple[int, int]]) -> "QuadForm":
        """The binary form f(T(x, y)) for an integer matrix T (columns = images)."""
        a, b, c = self.abc
        (p, q), (r, s) = t
        a2 = a * p * p + b * p * r + c * r * r
        c2 = a * q * q + b * q * s + c * s * s
        b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
        return QuadForm.binary(a2, b2, c2)


def det_hessian(f: QuadForm) -> int:
    """Determinant of the Hessian matrix (4ac - b^2 for binary forms)."""
    H = f.hessian
    if f.n == 1:
        return H[0][0]
    return H[0][0] * H[1][1] - H[0][1] ** 2


def is_primitive(f: QuadForm) -> bool:
    """True iff the form coefficients have content 1 (gcd(a, b, c) for binary)."""
    return content(f) == 1


def content(f: QuadForm) -> int:
    g = 0
    for x in f.coefficients():
        g = gcd(g, x)
    return g


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
    if f.n != 2:
        raise ValueError("reduce_binary needs a binary form")
    if not f.is_positive_definite():
        raise ValueError("reduce_binary needs a positive-definite form")
    a, b, c = f.abc
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
    return QuadForm.binary(a, b, c)


def _norm_vectors(f: QuadForm, value: int) -> list[tuple[int, int]]:
    """All integer (x, y) with f(x, y) = value > 0, by a provably complete scan:
    4a*f = (2ax + by)^2 + det*y^2 bounds y, and symmetrically for x."""
    a, b, c = f.abc
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
    a, b, c = f.abc
    auts = []
    vs = _norm_vectors(f, a)
    ws = _norm_vectors(f, c)
    H = f.hessian
    for p, r in vs:
        for q, s in ws:
            # preserve the bilinear form: H(Te1, Te2) = b
            if H[0][0] * p * q + H[0][1] * (p * s + q * r) + H[1][1] * r * s == b:
                auts.append(((p, q), (r, s)))
    return auts


def automorphism_count(f: QuadForm) -> int:
    """Order of the full integral automorphism group (determinant +-1).

    Contains -identity, so the count is always even.
    """
    if f.n != 2 or not f.is_positive_definite():
        raise ValueError("automorphism_count needs a positive-definite binary form")
    return len(_automorphisms(f))


def proper_automorphism_count(f: QuadForm) -> int:
    """Order of the proper (determinant +1) automorphism group."""
    if f.n != 2 or not f.is_positive_definite():
        raise ValueError("proper_automorphism_count needs a positive-definite binary form")
    return sum(1 for (p, q), (r, s) in _automorphisms(f) if p * s - q * r == 1)


def enumerate_classes(S: int, include_imprimitive: bool = False) -> list[QuadForm]:
    """All reduced positive-definite binary forms with det_hessian = S, one per
    proper class; imprimitive forms are dropped unless requested.

    Empty exactly when S = 1, 2 (mod 4): 4ac - b^2 is 0 or 3 mod 4.
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
            f = QuadForm.binary(a, b, c)
            if include_imprimitive or is_primitive(f):
                out.append(f)
    out.sort(key=lambda f: f.abc)
    return out


def mirror(f: QuadForm) -> QuadForm:
    """The improperly equivalent form (x, y) -> (x, -y), flipping b."""
    a, b, c = f.abc
    return QuadForm.binary(a, -b, c)


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
    of pairwise Hilbert symbols (a_i, a_j), i < j, over any diagonalization.

    Rank 1 has the empty product 1.  A binary space is <x, det_G/x> for any
    value x != 0 it takes, so c_v = (x, -det_G)_v with det_G = det_H/4;
    x = a, else c, else Q(e1 + e2) = b when a = c = 0.
    """
    d = det_hessian(f)
    if d == 0:
        raise ValueError("degenerate form")
    if f.n == 1:
        return 1
    a, b, c = f.abc
    return hilbert_symbol(a or c or b, Fraction(-d, 4), place)


def scale_hasse(u, f: QuadForm, place) -> int:
    """Hasse invariant of the u-scaled space by the closed scaling law
    c(uV) = (u,u)^(n(n-1)/2) * (u, det_G)^(n-1) * c(V), with no rediagonalization."""
    u = Fraction(u)
    if u == 0:
        raise ValueError("scaling must be nonzero")
    n = f.n
    det_G = Fraction(det_hessian(f), 2**n)
    c = hasse_invariant(f, place)
    e1 = n * (n - 1) // 2
    e2 = n - 1
    if e1 % 2:
        c *= hilbert_symbol(u, u, place)
    if e2 % 2:
        c *= hilbert_symbol(u, det_G, place)
    return c


@dataclass(frozen=True)
class SignatureVector:
    """Real signature (plus, minus) of a rank-n rational quadratic space."""

    plus: int
    minus: int

    @property
    def n(self) -> int:
        return self.plus + self.minus

    def eps_infty(self) -> int:
        """Hasse invariant at the real place of any space with this signature."""
        m = self.minus
        return -1 if (m * (m - 1) // 2) % 2 else 1
