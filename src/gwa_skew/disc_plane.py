"""Quantum disc and quantum plane specializations.

Both algebras sit over K[h] with phi: h -> q*h and a linear central
element (1 - h for the disc, h for the plane), q not in {0, 1, -1}.  This
module provides:

  * the two families of derivations available for arbitrary scalar
    coarseness mu: the diagonal family d(x) = f(h) x, d(y) = -mu f(h/q) y
    (the only ones killing h), and for mu = q^{1-d} the family
    d(x) = h^d b(y), d(y) = h^d a(x);
  * the full parametrization of derivations with coarseness mu = q in the
    monomial basis y^m x^n, together with its inverse `classify_sigma_q`;
  * the commutation identities x y^n - q^n y^n x = (1 - q^n) y^{n-1} (and
    the x-side mirror) used throughout;
  * an exact linear solve counting all coarseness-q derivations with
    bounded monomial support.

The coefficient constraint of the mu = q family is baked in by
`build_sigma_q`: the y-side coefficients are derived as

    beta_{m+1,n} = -q [n+1]_q / [m+1]_q * alpha_{m,n+1}

so inconsistent data is unrepresentable.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .derivations import (
    ClassificationError,
    DerivationError,
    SkewDerivation,
    WeightData,
    _require_rebuild,
    build_derivation,
    derivation_from_xy,
)
from .gwa import GwaAlgebra, GwaElement, _cross
from .poly import Poly


def _require_disc_or_plane(A: GwaAlgebra) -> Fraction:
    if A.label == "custom":
        raise DerivationError("operation is specific to the disc/plane presets")
    return A.q


def q_int(m: int, q: Fraction) -> Fraction:
    """The q-integer 1 + q + ... + q^{m-1} (equals m at q = 1)."""
    if m < 0:
        raise ValueError("q-integers need m >= 0")
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(m):
        total += power
        power *= q
    return total


# -- families for general coarseness ---------------------------------------


def diagonal_derivation(f: Poly, mu: Fraction, A: GwaAlgebra) -> SkewDerivation:
    """d(x) = f(h) x, d(y) = -mu f(q^{-1} h) y; kills h, any coarseness mu.

    This is the weight-0 piece of `build_derivation` with c = f.
    """
    _require_disc_or_plane(A)
    return build_derivation(WeightData(mu, {}, c=f), A)


def h_power_derivation(
    d: int, x_coeffs: list[Fraction], y_coeffs: list[Fraction], A: GwaAlgebra
) -> SkewDerivation:
    """d(x) = h^d b(y), d(y) = h^d a(x), available at coarseness mu = q^{1-d}.

    x_coeffs are the coefficients of a(x), y_coeffs those of b(y).
    """
    q = _require_disc_or_plane(A)
    if d < 0:
        raise DerivationError("exponent d must be a nonnegative integer")
    mu = q ** (1 - d)
    hd = Poly.monomial(1, d)
    on_x = A.element({-j: hd * c for j, c in enumerate(y_coeffs)})
    on_y = A.element({i: hd * c for i, c in enumerate(x_coeffs)})
    return derivation_from_xy(mu, on_x, on_y)


# -- monomial basis y^m x^n -------------------------------------------------


def yx_monomial(A: GwaAlgebra, m: int, n: int) -> GwaElement:
    """The basis element y^m x^n in normal form."""
    return A.y(m) * A.x(n) if m else A.x(n)


def _stair_poly(A: GwaAlgebra, m: int, shift: int) -> Poly:
    """Normal-form coefficient of y^{m+shift} x^m: phi^{-shift}(y^m x^m)."""
    return A.phi.apply(_cross(A, -m, m), -shift)


def _expand_in_stairs(r: Poly, A: GwaAlgebra, shift: int) -> dict[int, Fraction]:
    """Coordinates of r in the degree-staircase basis {phi^{-shift}(y^m x^m)}_m."""
    coords: dict[int, Fraction] = {}
    rem = r
    while not rem.is_zero():
        m = rem.degree()
        basis = _stair_poly(A, m, shift)
        c = rem.leading() / basis.leading()
        coords[m] = c
        rem = rem - c * basis
    return coords


def to_monomial_basis(e: GwaElement) -> dict[tuple[int, int], Fraction]:
    """Coordinates of an element in the K-basis {y^m x^n}: the degree-k term
    expands into the monomials y^{m+shift} x^{m+k+shift}, shift = max(-k, 0)."""
    out: dict[tuple[int, int], Fraction] = {}
    for k, r in e.terms.items():
        shift = max(-k, 0)
        for m, c in _expand_in_stairs(r, e.algebra, shift).items():
            out[(m + shift, m + k + shift)] = c
    return {key: c for key, c in out.items() if c != 0}


# -- coarseness-q derivations ----------------------------------------------


class SigmaQData:
    """Free parameters of a coarseness-q derivation with bounded support.

    alpha[(m, n)] (m >= 0, n >= 1) are the mixed coefficients of d(x);
    f are the coefficients of the pure-x part of d(y), g those of the
    pure-y part of d(x).  Zero entries are pruned, so equality of data is
    equality of derivations.  M and N are derived minimal bounds.
    """

    __slots__ = ("alpha", "f", "g")

    def __init__(self, alpha: dict[tuple[int, int], Fraction],
                 f: tuple[Fraction, ...] = (), g: tuple[Fraction, ...] = ()):
        for m, n in alpha:
            if m < 0 or n < 1:
                raise ValueError(f"alpha index ({m}, {n}) out of range")
        self.alpha = {key: Fraction(c) for key, c in alpha.items() if c != 0}
        self.f, self.g = (tuple(Fraction(c, p.den) for c in p.num) for p in (Poly(f), Poly(g)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SigmaQData):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)

    @property
    def M(self) -> int:
        bounds = [m + 1 for m, _ in self.alpha]
        bounds.append(max(len(self.g) - 1, 0))
        return max(bounds)

    @property
    def N(self) -> int:
        bounds = [n for _, n in self.alpha]
        bounds.append(max(len(self.f) - 1, 0))
        return max(bounds)

    def is_zero(self) -> bool:
        return not self.alpha and not self.f and not self.g


def build_sigma_q(data: SigmaQData, A: GwaAlgebra) -> SkewDerivation:
    """The coarseness-q derivation with the given free parameters,

        d(x) = g(y) + sum alpha_{m,n} y^m x^n
        d(y) = f(x) - q sum ([n+1]_q / [m]_q) alpha_{m-1,n+1} y^m x^n,

    with d(h) forced by d(a) and the result checked against the defining
    relations."""
    q = _require_disc_or_plane(A)
    on_x = A.element({-j: Poly.const(c) for j, c in enumerate(data.g)})
    on_y = A.element({i: Poly.const(c) for i, c in enumerate(data.f)})
    for (m, n), c in data.alpha.items():
        on_x = on_x + c * yx_monomial(A, m, n)
        beta = -q * (q_int(n, q) / q_int(m + 1, q)) * c
        on_y = on_y + beta * yx_monomial(A, m + 1, n - 1)
    return derivation_from_xy(q, on_x, on_y)


def classify_sigma_q(d: SkewDerivation) -> SigmaQData:
    """Read the free parameters back off a coarseness-q derivation.

    alpha and g are read off d(x) and f off the pure-x part of d(y), and
    `build_sigma_q` rebuilds them, checking the rebuild against the
    relations.  The return demands that the rebuild equal d: a d(y) off the
    built-in constraint, or a d(h) other than the one d(a) forces, is
    reported whole.  A successful return is a certified round trip.
    """
    A = d.algebra
    q = _require_disc_or_plane(A)
    if d.mu != q:
        raise ClassificationError(f"coarseness {d.mu} is not q = {q}")
    x_coords = to_monomial_basis(d.on_x)
    alpha = {(m, n): c for (m, n), c in x_coords.items() if n > 0}
    g = {m: c for (m, n), c in x_coords.items() if n == 0}
    f = {n: c for (m, n), c in to_monomial_basis(d.on_y).items() if m == 0}
    to_seq = lambda d_: tuple(d_.get(i, Fraction(0)) for i in range(max(d_, default=-1) + 1))
    data = SigmaQData(alpha, to_seq(f), to_seq(g))
    _require_rebuild(d, build_sigma_q(data, A))
    return data


def sigma_q_dimension(A: GwaAlgebra, M: int, N: int) -> int:
    """Dimension of the space of coarseness-q derivations with support
    bounded by (M, N), computed by an exact nullspace count.

    Unknowns are the coordinates of d(x) and d(y) over {y^m x^n : m <= M,
    n <= N}; the single constraint is d(xy) - q d(yx) = 0, which is linear
    in the unknowns.  The free-parameter count is M*N + M + N + 2.

    Since sigma_q(y) = q y and sigma_q(x) = q^{-1} x, the constraint reads
    q [d(x), y] - [d(y), x] = 0.  A nonzero scale of a column leaves the
    nullity alone, so the columns are the commutators [b, y] for the d(x)
    unknowns b and [b, x] for the d(y) unknowns.
    """
    _require_disc_or_plane(A)
    monomials = [yx_monomial(A, m, n) for m in range(M + 1) for n in range(N + 1)]
    columns = [b * g - g * b for g in (A.y(), A.x()) for b in monomials]
    matrix, _ = linalg.assemble([col.coordinates() for col in columns], {})
    return linalg.nullspace_dimension(matrix, len(columns))


# -- commutation identities --------------------------------------------------


def disc_commutation_identities(n: int, q: Fraction) -> bool:
    """Exactly verify x y^n - q^n y^n x = (1-q^n) y^{n-1} and its x mirror."""
    if n < 1:
        raise ValueError("n must be >= 1")
    A = GwaAlgebra.disc(q)
    x, y = A.x(), A.y()
    qn = q**n
    lhs1 = x * A.y(n) - qn * (A.y(n) * x) - (1 - qn) * A.y(n - 1)
    lhs2 = A.x(n) * y - qn * (y * A.x(n)) - (1 - qn) * A.x(n - 1)
    return lhs1.is_zero() and lhs2.is_zero()
