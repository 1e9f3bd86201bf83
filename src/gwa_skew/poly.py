"""Exact univariate polynomial arithmetic over the rationals.

The base ring everywhere is K[h] with K the rational field.  A `Poly` is
stored as FLINT's fmpq_poly stores it: a tuple `num` of integer numerators
and one positive integer `den`, coefficient i being num[i] / den.  The form
is canonical -- no trailing zero numerator, and gcd(den, *num) == 1 (the
zero polynomial is ((), 1)) -- so equality and hashing compare (num, den)
and are structural, never approximate.  Ring operations run on the
integers and normalize the content once per result.  `coeffs` is a derived
view, the coefficients as `fractions.Fraction` values, built from
(num, den) on each read and never cached.

Besides `Poly`, this module provides the affine automorphisms of K[h]
(h -> u*h + v with u != 0 -- these are all automorphisms of K[h]), whose
powers have a closed form and act on a polynomial by an integer Taylor
shift and a scaling of coefficients, and the extended Euclidean algorithm
producing verifiable Bezout witnesses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

Scalar = Union[int, Fraction]

MINUS_INFINITY = float("-inf")  # degree of the zero polynomial


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def is_root_of_unity(q: Fraction) -> bool:
    """A nonzero rational is a root of unity exactly when it is 1 or -1."""
    if q == 0:
        raise ValueError("q must be nonzero")
    return q == 1 or q == -1


def _poly(num: list[int], den: int) -> "Poly":
    """The canonical Poly with coefficients num[i] / den, for den > 0."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    p = object.__new__(Poly)
    p.num, p.den = tuple(num), den
    return p


class Poly:
    """Polynomial in h with rational coefficients, as integer numerators
    over one common denominator.

    `num[i] / den` is the coefficient of h^i.  Every instance is canonical:
    `den > 0`, `num` has no trailing zero and `gcd(den, *num) == 1`, so two
    polynomials are equal exactly when their (num, den) pairs are, and the
    zero polynomial is `((), 1)`.  `coeffs` is the tuple of `Fraction`
    coefficients derived from (num, den) on each read; it is not stored.
    Instances are immutable after construction.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # Lowest-terms fractions over the lcm of their denominators share
        # no factor with it, so this is already canonical.
        den = math.lcm(*(c.denominator for c in cs))
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _poly([], 1)

    @staticmethod
    def one() -> "Poly":
        return _poly([1], 1)

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @staticmethod
    def h() -> "Poly":
        return _poly([0, 1], 1)

    @staticmethod
    def monomial(c: Scalar, k: int) -> "Poly":
        return Poly([0] * k + [c])

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions; index i is the coefficient of h^i."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not self.num

    def degree(self):
        """Degree, with the zero polynomial mapped to -infinity."""
        return len(self.num) - 1 if self.num else MINUS_INFINITY

    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    # -- ring operations ----------------------------------------------

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, over the lcm of the two denominators."""
        da, db = self.den, other.den
        g = math.gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        a = [c * sa for c in self.num] if sa != 1 else self.num
        b = [c * sb for c in other.num] if sb != 1 else other.num
        if len(a) > len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(b[len(a):])
        return _poly(out, da * sa)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return _poly([x * c.numerator for x in self.num], self.den * c.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return _poly([], 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def derivative(self) -> "Poly":
        return _poly([i * c for i, c in enumerate(self.num)][1:], self.den)

    def divrem(self, d: "Poly") -> tuple["Poly", "Poly"]:
        """Exact long division: self = q*d + r with deg r < deg d.

        Runs on the numerators with one running integer denominator D:
        num(self) = (quot * num(d) + rem) / D throughout, each step scaling
        by the part of lc(d) that the eliminated coefficient lacks.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dn = d.num
        dd, lead = len(dn) - 1, dn[-1]
        rem = list(self.num)
        quot = [0] * max(len(rem) - dd, 0)
        D = 1
        for shift in range(len(quot) - 1, -1, -1):
            top = rem[shift + dd]
            if not top:
                continue
            g = math.gcd(top, lead) if lead > 0 else -math.gcd(top, lead)
            scale, factor = lead // g, top // g
            if scale != 1:
                rem = [c * scale for c in rem]
                quot = [c * scale for c in quot]
                D *= scale
            quot[shift] = factor
            for i, c in enumerate(dn):
                rem[shift + i] -= factor * c
        den = D * self.den
        return _poly([c * d.den for c in quot], den), _poly(rem[:dd], den)

    def exact_div(self, d: "Poly") -> "Poly":
        q, r = self.divrem(d)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {d}")
        return q

    def divides(self, other: "Poly") -> bool:
        """Whether self divides other exactly (zero is divisible by anything nonzero)."""
        if self.is_zero():
            return other.is_zero()
        return other.divrem(self)[1].is_zero()

    # -- misc -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, n in enumerate(self.num):
            if not n:
                continue
            c = Fraction(n, self.den)
            if i == 0:
                parts.append(str(c))
            else:
                var = "h" if i == 1 else f"h^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


class AffineAuto:
    """Automorphism h -> u*h + v of K[h], u != 0."""

    __slots__ = ("u", "v")

    def __init__(self, u: Scalar, v: Scalar = 0):
        u, v = _frac(u), _frac(v)
        if u == 0:
            raise ValueError("affine automorphism needs u != 0")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @staticmethod
    def identity() -> "AffineAuto":
        return AffineAuto(1, 0)

    @staticmethod
    def scaling(q: Scalar) -> "AffineAuto":
        return AffineAuto(q, 0)

    def is_identity(self) -> bool:
        return self.u == 1 and self.v == 0

    def h_image(self) -> Poly:
        return Poly([self.v, self.u])

    def inverse(self) -> "AffineAuto":
        return AffineAuto(1 / self.u, -self.v / self.u)

    def power(self, k: int) -> "AffineAuto":
        """phi^k, for any integer k: h -> u^k h + v (u^k - 1)/(u - 1),
        or h -> h + k v when u = 1."""
        u, v = self.u, self.v
        if u == 1:
            return AffineAuto(1, k * v)
        uk = u**k
        return AffineAuto(uk, v * (uk - 1) / (u - 1))

    def apply(self, p: Poly, k: int = 1) -> Poly:
        """p(phi^k(h)), for any integer k.

        With phi^k(h) = (a/b) h + c/e, the numerators N_i of p become
        N_i e^{n-i}, are Taylor-shifted by the integer c, and coefficient i
        is then scaled by (ae)^i b^{n-i}, all over den * e^n * b^n
        (n = deg p): O(n^2) integer work for a shift, O(n) for a scaling.
        """
        if k == 0 or p.is_constant():
            return p
        num, den, n = list(p.num), p.den, len(p.num) - 1
        if self.v:
            tau = self.power(k)
            a, b = tau.u.numerator, tau.u.denominator
            c, e = tau.v.numerator, tau.v.denominator
            if e != 1:
                scale = 1
                for i in range(n, -1, -1):
                    num[i] *= scale
                    scale *= e
                a *= e
                den *= e**n
            for i in range(n if c else 0):
                for j in range(n - 1, i - 1, -1):
                    num[j] += c * num[j + 1]
        else:  # phi^k(h) = u^k h: a scaling only
            uk = self.u**k
            a, b = uk.numerator, uk.denominator
        up, down = 1, b**n
        for i in range(n + 1):
            num[i] *= up * down
            up *= a
            down //= b
        return _poly(num, den * b**n)

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineAuto) and (self.u, self.v) == (other.u, other.v)

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __repr__(self) -> str:
        return f"AffineAuto(u={self.u}, v={self.v})"


class BezoutWitness(NamedTuple):
    """Certificate s*lhs + t*rhs = g with g the monic gcd."""

    g: Poly
    s: Poly
    t: Poly
    lhs: Poly
    rhs: Poly

    def check(self) -> bool:
        return self.s * self.lhs + self.t * self.rhs == self.g

    @property
    def coprime(self) -> bool:
        return self.g == Poly.one()


def extended_gcd(p: Poly, q: Poly) -> BezoutWitness:
    """Extended Euclid on K[h]; the gcd is normalized to be monic."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    old_r, r = p, q
    old_s, s = Poly.one(), Poly.zero()
    old_t, t = Poly.zero(), Poly.one()
    while not r.is_zero():
        quot, rem = old_r.divrem(r)
        old_r, r = r, rem
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    lc = old_r.leading()
    witness = BezoutWitness(old_r * (1 / lc), old_s * (1 / lc), old_t * (1 / lc), p, q)
    if not witness.check():
        raise ArithmeticError(f"Bezout witness for gcd({p}, {q}) fails s*p + t*q = g")
    return witness
