"""Exact univariate polynomial arithmetic over the rationals.

The base ring everywhere is K[h] with K the rational field.  Coefficients
are `fractions.Fraction` values, so every operation here (and everything
built on top) is exact: equalities asserted elsewhere are structural,
never approximate.

Besides `Poly`, this module provides the affine automorphisms of K[h]
(h -> u*h + v with u != 0 -- these are all automorphisms of K[h]) and the
extended Euclidean algorithm producing verifiable Bezout witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

MINUS_INFINITY = float("-inf")  # degree of the zero polynomial


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def is_root_of_unity(q: Fraction) -> bool:
    """A nonzero rational is a root of unity exactly when it is 1 or -1."""
    if q == 0:
        raise ValueError("q must be nonzero")
    return q == 1 or q == -1


class Poly:
    """Dense polynomial in h; index i of `coeffs` is the coefficient of h^i.

    Trailing zero coefficients are stripped on construction, so equality is
    plain structural equality and the zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @staticmethod
    def h() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(c: Scalar, k: int) -> "Poly":
        return Poly([0] * k + [c])

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree, with the zero polynomial mapped to -infinity."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) - other.coeff(i) for i in range(n))

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def compose(self, inner: "Poly") -> "Poly":
        """Evaluate self at another polynomial (Horner)."""
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * inner + Poly.const(c)
        return out

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def divrem(self, d: "Poly") -> tuple["Poly", "Poly"]:
        """Exact long division: self = q*d + r with deg r < deg d."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = [Fraction(0)] * max(len(self.coeffs) - len(d.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlc = d.leading()
        dd = len(d.coeffs) - 1
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            factor = rem[-1] / dlc
            q[shift] = factor
            for i, c in enumerate(d.coeffs):
                rem[shift + i] -= factor * c
        return Poly(q), Poly(rem)

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
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
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

    def compose(self, other: "AffineAuto") -> "AffineAuto":
        """self after other: h -> self(other(h))."""
        return AffineAuto(self.u * other.u, self.u * other.v + self.v)

    def inverse(self) -> "AffineAuto":
        return AffineAuto(1 / self.u, -self.v / self.u)

    def power(self, k: int) -> "AffineAuto":
        base = self if k >= 0 else self.inverse()
        out = AffineAuto.identity()
        for _ in range(abs(k)):
            out = base.compose(out)
        return out

    def apply(self, p: Poly, k: int = 1) -> Poly:
        """p(phi^k(h)), for any integer k."""
        if k == 0 or p.is_constant():
            return p
        return p.compose(self.power(k).h_image())

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineAuto) and (self.u, self.v) == (other.u, other.v)

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __repr__(self) -> str:
        return f"AffineAuto(u={self.u}, v={self.v})"


@dataclass(frozen=True)
class BezoutWitness:
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
