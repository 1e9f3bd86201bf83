"""Degree-one generalized Weyl algebras over K[h], in normal form.

An algebra is determined by a central polynomial `a` and an automorphism
`phi` of K[h]; two extra generators x, y are adjoined subject to

    x*y = phi(a),   y*x = a,   x*r = phi(r)*x,   y*r = phi^{-1}(r)*y.

Every element then has a unique normal form

    sum_{k>0} r_k x^k  +  r_0  +  sum_{l>0} s_l y^l

with K[h]-coefficients written on the left.  `GwaElement` stores the map
signed degree -> coefficient: positive degrees are powers of x, negative
degrees powers of y.  Products are computed with the closed reductions

    x^m y^n = phi^m(a) phi^{m-1}(a) ... phi^{m-t+1}(a) x^{m-t} y^{n-t},
    y^n x^m = phi^{-n+1}(a) ... phi^{-n+t}(a) y^{n-t} x^{m-t},   t = min(m, n),

together with coefficient pull-through x^k * r = phi^k(r) * x^k (valid for
signed k).  The product of shifted copies of a in a reduction depends only
on (a, phi, m, n), so `_cross` memoizes it by the algebra's data: equal
algebras built apart share its entries, and the memo keeps the
`_CROSS_MEMO_SIZE` most recently used.  The quantum disc (a = 1 - h) and
quantum plane (a = h), both with phi: h -> q*h, are available as presets.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .poly import AffineAuto, Poly, Scalar, is_root_of_unity


class AlgebraMismatch(ValueError):
    """Operands belong to different algebras."""


_PRESET_LABELS = {Poly([1, -1]): "disc", Poly([0, 1]): "plane"}


class GwaAlgebra:
    """The data (a, phi) of a generalized Weyl algebra over K[h]; `label` is derived from it."""

    __slots__ = ("a", "phi")

    def __init__(self, a: Poly, phi: AffineAuto):
        if a.is_zero():
            raise ValueError("central element a must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "phi", phi)

    @staticmethod
    def disc(q: Scalar) -> "GwaAlgebra":
        """Quantum disc: xy - q yx = 1 - q, realized as K[h](1-h, h -> qh)."""
        q = Fraction(q)
        if q == 0 or is_root_of_unity(q):
            raise ValueError("disc requires q not in {0, 1, -1}")
        return GwaAlgebra(Poly([1, -1]), AffineAuto.scaling(q))

    @staticmethod
    def plane(q: Scalar) -> "GwaAlgebra":
        """Quantum plane: xy = q yx, realized as K[h](h, h -> qh)."""
        q = Fraction(q)
        if q == 0 or is_root_of_unity(q):
            raise ValueError("plane requires q not in {0, 1, -1}")
        return GwaAlgebra(Poly([0, 1]), AffineAuto.scaling(q))

    @property
    def q(self) -> Fraction | None:
        """Scaling factor of phi when phi is h -> q*h, else None."""
        return self.phi.u if self.phi.v == 0 else None

    @property
    def label(self) -> str:
        """The preset this data is: "disc" for a = 1 - h, "plane" for a = h, each with
        phi: h -> q*h and q not in {0, 1, -1}; "custom" otherwise."""
        return _PRESET_LABELS.get(self.a, "custom") if self.q not in (None, 1, -1) else "custom"

    def __eq__(self, other) -> bool:
        return isinstance(other, GwaAlgebra) and self.a == other.a and self.phi == other.phi

    def __hash__(self) -> int:
        return hash((self.a, self.phi))

    def __repr__(self) -> str:
        return f"GwaAlgebra({self.label}: a={self.a}, phi(h)={self.phi.h_image()})"

    # -- element factories ---------------------------------------------

    def zero(self) -> "GwaElement":
        return GwaElement(self, {})

    def one(self) -> "GwaElement":
        return GwaElement(self, {0: Poly.one()})

    def from_poly(self, p: Poly) -> "GwaElement":
        return GwaElement(self, {0: p})

    def from_scalar(self, c: Scalar) -> "GwaElement":
        return GwaElement(self, {0: Poly.const(c)})

    def h(self) -> "GwaElement":
        return self.from_poly(Poly.h())

    def x(self, k: int = 1) -> "GwaElement":
        return self.monomial(k, Poly.one())

    def y(self, k: int = 1) -> "GwaElement":
        return self.monomial(-k, Poly.one())

    def monomial(self, deg: int, coeff: Poly) -> "GwaElement":
        """The element coeff * x^deg (deg > 0) or coeff * y^(-deg) (deg < 0)."""
        return GwaElement(self, {deg: coeff})

    def element(self, terms: dict[int, Poly]) -> "GwaElement":
        return GwaElement(self, dict(terms))


# -- product of basis monomials ----------------------------------------------

# Entries `_cross` keeps.  The first 3000 requests of the `products`
# benchmark workload (seed 1) make 1756 distinct keys, many from one-off
# algebras; at this size each key is still computed only once.
_CROSS_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_CROSS_MEMO_SIZE)
def _cross(A: GwaAlgebra, j: int, k: int) -> Poly:
    """Coefficient of X_j * X_k = c * X_{j+k} from the defining relations:
    the product of phi^i(a) over t = min(|j|, |k|) consecutive i, which end
    at j for x^j * y^{-k} (j > 0) and start at j + 1 for y^{-j} * x^k (j < 0).

    Memoized by (A, j, k): algebras compare and hash by (a, phi), so each
    product is computed once per algebra, also across separately built
    equal ones, and the `_CROSS_MEMO_SIZE` most recently used are kept.  A
    `Poly` is immutable, so a hit returns exactly what a recomputation would.
    """
    out = Poly.one()
    if j * k >= 0:
        return out
    t = min(abs(j), abs(k))
    start = j - t + 1 if j > 0 else j + 1
    for i in range(start, start + t):
        out = out * A.phi.apply(A.a, i)
    return out


class GwaElement:
    """Normal-form element of a generalized Weyl algebra.

    `terms` maps the signed degree k to the left coefficient r_k in K[h];
    zero coefficients are pruned eagerly, so equality is structural.
    Instances are immutable after construction.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GwaAlgebra, terms: dict[int, Poly]):
        object.__setattr__(self, "algebra", algebra)
        pruned = {k: p for k, p in terms.items() if not p.is_zero()}
        object.__setattr__(self, "terms", pruned)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, k: int) -> Poly:
        return self.terms.get(k, Poly.zero())

    def coordinates(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero coefficients c of the basis elements h^i X_deg,
        keyed by (deg, i): the coordinate vector of the element over K."""
        terms = self.terms.items()
        return {(k, i): Fraction(c, p.den) for k, p in terms for i, c in enumerate(p.num) if c}

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def poly_part(self) -> Poly:
        """The degree-0 coefficient; element must live in K[h]."""
        if any(k != 0 for k in self.terms):
            raise ValueError(f"element is not in the base ring: {self}")
        return self.coeff(0)

    def _coerce(self, other) -> "GwaElement":
        if isinstance(other, GwaElement):
            if other.algebra != self.algebra:
                raise AlgebraMismatch("elements of different algebras")
            return other
        if isinstance(other, Poly):
            return GwaElement(self.algebra, {0: other})
        if isinstance(other, (int, Fraction)):
            return GwaElement(self.algebra, {0: Poly.const(other)})
        return NotImplemented

    def __add__(self, other) -> "GwaElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, p in o.terms.items():
            out[k] = out.get(k, Poly.zero()) + p
        return GwaElement(self.algebra, out)

    __radd__ = __add__

    def __sub__(self, other) -> "GwaElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "GwaElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self) -> "GwaElement":
        return GwaElement(self.algebra, {k: -p for k, p in self.terms.items()})

    def __mul__(self, other) -> "GwaElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        A = self.algebra
        out: dict[int, Poly] = {}
        for j, r in self.terms.items():
            for k, s in o.terms.items():
                c = r * A.phi.apply(s, j)
                if j * k < 0:
                    c = c * _cross(A, j, k)
                d = j + k
                out[d] = out.get(d, Poly.zero()) + c
        return GwaElement(A, out)

    def __rmul__(self, other) -> "GwaElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self

    def __eq__(self, other) -> bool:
        if not isinstance(other, GwaElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in self.degrees():
            p = self.terms[k]
            if k == 0:
                parts.append(f"({p})")
            else:
                gen = f"x^{k}" if k > 0 else f"y^{-k}"
                gen = gen.replace("x^1", "x").replace("y^1", "y")
                parts.append(f"({p})*{gen}")
        return " + ".join(parts)


def sigma_mu(e: GwaElement, mu: Fraction, exponent: int = 1) -> GwaElement:
    """Degree-counting automorphism of coarseness mu (identity on K[h]).

    Acts as x -> mu^{-1} x and y -> mu y; `exponent` selects a power of it,
    -1 giving the inverse.
    """
    if mu == 0:
        raise ValueError("coarseness must be a unit")
    return GwaElement(
        e.algebra, {k: p * mu ** (-k * exponent) for k, p in e.terms.items()}
    )


# -- gradings ------------------------------------------------------------


class Grading(NamedTuple):
    """(d, k)-type grading: deg h = w, deg x = k, deg y = d - k.

    Homogeneity of the central element forces d = w * deg(a); the disc only
    carries the trivial grading w = 0 while the plane supports w != 0.
    """

    d: int
    k: int
    w: int


def make_grading(A: GwaAlgebra, w: int, k: int) -> Grading:
    """Validate that deg h = w grades A and return the induced grading."""
    if w == 0:
        return Grading(0, k, 0)
    nonzero = [i for i, c in enumerate(A.a.num) if c]
    if len(nonzero) != 1:
        raise ValueError("central element is not homogeneous for w != 0")
    if A.phi.v != 0:
        raise ValueError("automorphism does not preserve the grading")
    return Grading(w * nonzero[0], k, w)


def graded_degree(G: Grading, e: GwaElement) -> int | None:
    """Common total degree of all monomials of e, or None if inhomogeneous."""
    degrees = {
        i * G.w + (k * G.k if k >= 0 else -k * (G.d - G.k)) for k, i in e.coordinates()
    }
    return degrees.pop() if len(degrees) == 1 else None


# -- x-y symmetry ----------------------------------------------------------


def symmetric_algebra(A: GwaAlgebra) -> GwaAlgebra:
    """The target algebra of the x-y symmetry: (phi(a), phi^{-1})."""
    return GwaAlgebra(A.phi.apply(A.a), A.phi.inverse())


def xy_symmetry(e: GwaElement) -> GwaElement:
    """Algebra isomorphism swapping x and y, identity on K[h].

    Maps A = K[h](a, phi) onto K[h](phi(a), phi^{-1}), the algebra of the
    image; on normal forms it negates the degree map and keeps the left
    coefficients.
    """
    return GwaElement(symmetric_algebra(e.algebra), {-k: p for k, p in e.terms.items()})
