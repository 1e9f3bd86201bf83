"""Skew derivations on generalized Weyl algebras, twisted by sigma_mu.

A skew derivation here is a pair (d, sigma_mu) with sigma_mu the
degree-counting automorphism of scalar coarseness mu (identity on K[h],
x -> mu^{-1} x, y -> mu y) and d additive with the twisted Leibniz rule

    d(u v) = d(u) sigma_mu(v) + u d(v).

Such a map is determined by its values on the generators h, x, y; it is
well defined on the algebra exactly when it kills the defining relations,
which `check_relations` verifies with exact arithmetic.  Because both sides
of each r-indexed relation are twisted derivations in r, checking them at
r = h suffices (the tests additionally spot-check r = h^2).

On K[h] such a map splits into weight pieces.  Write d(h) = sum_k p_k X_k
with X_k = x^k (k > 0), 1 (k = 0), y^{-k} (k < 0).  Since X_k r = phi^k(r) X_k
and sigma_mu fixes K[h], the Leibniz rule gives

    d(r) = sum_k alpha_k(r) X_k,    alpha_k the phi^k-twisted derivation
                                    of K[h] with alpha_k(h) = p_k,

for every candidate, verified or not (see `TwistedPolyDerivation`).

The central constructor `build_derivation` assembles a derivation from a
family of twisted derivations alpha_i of K[h] indexed by integer weights,
plus two polynomials b, c.  The weight-i piece sends K[h] into K[h]*x^i
(resp. K[h]*y^{-i}); the pieces are:

    weight 0:   d(h) = alpha_0(h),      d(x) = c*x,
                d(y) = (alpha_0(a)/a - phi^{-1}(c)) * mu * y
    weight m>0: d(h) = alpha_m(h) x^m,  d(x) = 0,
                d(y) = alpha_m(a) * mu * x^{m-1}
    weight -n:  d(h) = alpha_{-n}(h) y^n,  d(x) = phi(alpha_{-n}(a)) y^{n-1},
                d(y) = 0
    inner by b: d = b*sigma_mu(.) - (.)*b   (vanishes on K[h]).

Admissibility of alpha_i demands alpha_i(phi(h)) = mu * phi(alpha_i(h)),
and at weight 0 the exact divisibility a | alpha_0(a).

When phi has finite order D, `build_finite_order` gives further classes:
the weighted pieces at weights mD and -nD plus pieces of polynomials b_m
and c_n in d(x) and d(y).

Note: for the quantum plane a weight-0 piece with alpha_0(h) = h^d, d >= 1,
is admissible (it divides exactly and passes all relation checks) even
though it sends h to h^d rather than 0; this library admits any candidate
that passes `check_relations` and makes no exhaustiveness claims about
parametrized families.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import linalg
from .gwa import GwaAlgebra, GwaElement, Grading, graded_degree, sigma_mu, xy_symmetry
from .poly import Poly


class DerivationError(ValueError):
    """A candidate derivation violates a structural condition."""


class ClassificationError(ValueError):
    """A derivation is not of the requested parametric form."""


class TwistedPolyDerivation(NamedTuple):
    """The tau-twisted derivation of K[h] with a prescribed value on h.

    For tau = phi^twist_exp, the map alpha(f g) = alpha(f) tau(g) + f alpha(g)
    is determined by p = alpha(h):

        alpha(f) = p * (tau(f) - f) / (tau(h) - h)     if tau != id,
        alpha(f) = p * f'                              if tau = id.

    The quotient is exact because tau(h)^n - h^n is divisible by tau(h) - h.
    For the scaling automorphism phi: h -> q h this is a multiple of the
    q^i-difference quotient (a Jackson derivative).
    """

    twist_exp: int
    on_h: Poly

    def apply(self, p: Poly, A: GwaAlgebra) -> Poly:
        tau = A.phi.power(self.twist_exp)
        if tau.is_identity():
            return self.on_h * p.derivative()
        tau_h = tau.h_image()
        return self.on_h * (A.phi.apply(p, self.twist_exp) - p).exact_div(tau_h - Poly.h())

    def twist_condition_ok(self, A: GwaAlgebra, mu: Fraction) -> bool:
        """alpha(phi(h)) = mu * phi(alpha(h)) -- checking at h suffices."""
        lhs = self.apply(A.phi.h_image(), A)
        rhs = mu * A.phi.apply(self.on_h)
        return lhs == rhs


class SkewDerivation:
    """A sigma_mu-twisted derivation, stored by its values on h, x, y;
    `verified` (set by `check_relations`) takes part in `==`."""

    __slots__ = ("mu", "on_h", "on_x", "on_y", "verified")

    def __init__(self, mu: Fraction, on_h: GwaElement, on_x: GwaElement, on_y: GwaElement,
                 verified: bool = False):
        self.mu, self.verified = mu, verified
        self.on_h, self.on_x, self.on_y = on_h, on_x, on_y

    @property
    def algebra(self) -> GwaAlgebra:
        """The algebra the values on h, x, y belong to."""
        return self.on_h.algebra

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewDerivation):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)

    @staticmethod
    def zero(A: GwaAlgebra, mu: Fraction) -> "SkewDerivation":
        z = A.zero()
        return SkewDerivation(mu, z, z, z, verified=True)

    def is_zero(self) -> bool:
        return self.on_h.is_zero() and self.on_x.is_zero() and self.on_y.is_zero()

    def __add__(self, other: "SkewDerivation") -> "SkewDerivation":
        if self.algebra != other.algebra or self.mu != other.mu:
            raise DerivationError("can only add derivations with the same twist")
        return SkewDerivation(
            self.mu,
            self.on_h + other.on_h,
            self.on_x + other.on_x,
            self.on_y + other.on_y,
            verified=self.verified and other.verified,
        )

    def __neg__(self) -> "SkewDerivation":
        return SkewDerivation(self.mu, -self.on_h, -self.on_x, -self.on_y, self.verified)

    def __sub__(self, other: "SkewDerivation") -> "SkewDerivation":
        return self + (-other)

    # -- evaluation -----------------------------------------------------

    def _on_poly(self, p: Poly) -> GwaElement:
        """Value on an element of K[h]: sum_k alpha_k(p) X_k, where alpha_k is
        the phi^k-twisted derivation with alpha_k(h) the degree-k coefficient
        of d(h)."""
        A = self.algebra
        if p.is_constant():  # every alpha_k kills K
            return A.zero()
        return A.element(
            {k: TwistedPolyDerivation(k, c).apply(p, A) for k, c in self.on_h.terms.items()}
        )

    def _on_gen_power(self, k: int) -> GwaElement:
        """Value on x^k (k > 0) or y^{-k} (k < 0)."""
        A = self.algebra
        if k == 0:
            return A.zero()
        gen, on_gen, step = (A.x(), self.on_x, 1) if k > 0 else (A.y(), self.on_y, -1)
        val = on_gen
        deg = step
        while deg != k:
            # d(g^{j+1}) = d(g) sigma(g^j) + g d(g^j)
            val = on_gen * sigma_mu(A.monomial(deg, Poly.one()), self.mu) + gen * val
            deg += step
        return val

    def evaluate(self, e: GwaElement) -> GwaElement:
        """Apply the derivation to any normal-form element."""
        if e.algebra != self.algebra:
            raise DerivationError("element belongs to a different algebra")
        A = self.algebra
        out = A.zero()
        for k, r in e.terms.items():
            mono = A.monomial(k, Poly.one())
            out = out + self._on_poly(r) * sigma_mu(mono, self.mu) + r * self._on_gen_power(k)
        return out

    __call__ = evaluate


# -- relation checking --------------------------------------------------


class RelationReport(NamedTuple):
    """Outcome of checking a candidate against the defining relations."""

    violations: list[tuple[str, GwaElement]]
    derivation: SkewDerivation | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relations(
    mu: Fraction, on_h: GwaElement, on_x: GwaElement, on_y: GwaElement
) -> RelationReport:
    """Verify that prescribed generator values define a sigma_mu-derivation.

    Checks d(xy - phi(a)), d(yx - a), d(xh - phi(h)x) and d(yh - phi^{-1}(h)y)
    for exact vanishing and returns every failed relation with its whole
    residual.
    """
    if mu == 0:
        raise DerivationError("coarseness mu must be nonzero")
    cand = SkewDerivation(mu, on_h, on_x, on_y, verified=False)
    A = cand.algebra
    x, y, h = A.x(), A.y(), A.h()
    sig = lambda e: sigma_mu(e, mu)
    phi_h = A.phi.h_image()
    phi_inv_h = A.phi.inverse().h_image()

    residuals = {
        "xy": on_x * sig(y) + x * on_y - cand._on_poly(A.phi.apply(A.a)),
        "yx": on_y * sig(x) + y * on_x - cand._on_poly(A.a),
        "xh": on_x * sig(h) + x * on_h - cand._on_poly(phi_h) * sig(x) - phi_h * on_x,
        "yh": on_y * sig(h) + y * on_h - cand._on_poly(phi_inv_h) * sig(y) - phi_inv_h * on_y,
    }
    violations = [(name, r) for name, r in residuals.items() if not r.is_zero()]
    derivation = None if violations else SkewDerivation(mu, on_h, on_x, on_y, verified=True)
    return RelationReport(violations, derivation)


def verified_derivation(
    mu: Fraction, on_h: GwaElement, on_x: GwaElement, on_y: GwaElement
) -> SkewDerivation:
    """check_relations, raising on failure; used by constructors."""
    report = check_relations(mu, on_h, on_x, on_y)
    if not report.ok:
        name, res = report.violations[0]
        raise DerivationError(f"relation {name} violated, residual {res}")
    return report.derivation


def derivation_from_xy(mu: Fraction, on_x: GwaElement, on_y: GwaElement) -> SkewDerivation:
    """Derivation from its values on x and y when a is linear in h.

    d(h) is forced by d(a(h)) = d(y) sigma(x) + y d(x) since a = a0 + a1*h.
    """
    A = on_x.algebra
    if A.a.degree() != 1:
        raise DerivationError("central element must be linear to infer d(h)")
    d_a = on_y * sigma_mu(A.x(), mu) + A.y() * on_x
    on_h = (1 / A.a.leading()) * d_a
    return verified_derivation(mu, on_h, on_x, on_y)


# -- the weighted-family constructor -----------------------------------


class WeightData:
    """Input datum for `build_derivation`.

    alphas maps a weight i to alpha_i(h) (zero entries are pruned, so `==` ignores
    them); b and c are the polynomials entering the weight-0 and inner pieces.
    """

    __slots__ = ("mu", "alphas", "b", "c")

    def __init__(self, mu: Fraction, alphas: dict[int, Poly],
                 b: Poly = Poly.zero(), c: Poly = Poly.zero()):
        self.mu, self.b, self.c = mu, b, c
        self.alphas = {i: p for i, p in alphas.items() if not p.is_zero()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightData):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def __add__(self, other: "WeightData") -> "WeightData":
        if self.mu != other.mu:
            raise DerivationError("can only add data with the same coarseness")
        alphas = dict(self.alphas)
        for i, p in other.alphas.items():
            alphas[i] = alphas.get(i, Poly.zero()) + p
        return WeightData(self.mu, alphas, self.b + other.b, self.c + other.c)

    def validate(self, A: GwaAlgebra) -> None:
        if self.mu == 0:
            raise DerivationError("coarseness mu must be nonzero")
        for i, p in sorted(self.alphas.items()):
            alpha = TwistedPolyDerivation(i, p)
            if not alpha.twist_condition_ok(A, self.mu):
                raise DerivationError(
                    f"alpha_{i} fails alpha o phi = mu * phi o alpha (on_h = {p})"
                )
        if 0 in self.alphas:
            alpha0_a = TwistedPolyDerivation(0, self.alphas[0]).apply(A.a, A)
            if not A.a.divides(alpha0_a):
                raise DerivationError(
                    f"a does not divide alpha_0(a) = {alpha0_a} (a = {A.a})"
                )


def _weighted_values(
    data: WeightData, A: GwaAlgebra
) -> tuple[GwaElement, GwaElement, GwaElement]:
    """The values on h, x, y of the derivation attached to weighted data,
    validated but not checked against the relations:

        d(h) = sum_m alpha_m(h) x^m + sum_n alpha_{-n}(h) y^n
        d(x) = (c - phi(b) + mu^{-1} b) x + sum_n phi(alpha_{-n}(a)) y^{n-1}
        d(y) = (alpha_0(a)/a - phi^{-1}(c + mu^{-1} b) + b) mu y
               + sum_m alpha_m(a) mu x^{m-1}

    (sums over m >= 1, n >= 1; the inner part b contributes nothing on K[h]
    because the base ring is commutative and sigma acts as the identity).
    """
    data.validate(A)
    mu, phi = data.mu, A.phi
    on_h = A.zero()
    on_x_terms = A.zero()
    on_y_terms = A.zero()
    quot0 = Poly.zero()
    for i, p in data.alphas.items():
        alpha = TwistedPolyDerivation(i, p)
        on_h = on_h + A.monomial(i, p)
        if i > 0:
            on_y_terms = on_y_terms + A.monomial(i - 1, alpha.apply(A.a, A) * mu)
        elif i < 0:
            on_x_terms = on_x_terms + A.monomial(i + 1, phi.apply(alpha.apply(A.a, A)))
        else:
            quot0 = alpha.apply(A.a, A).exact_div(A.a)
    x_coeff = data.c - phi.apply(data.b) + data.b * (1 / mu)
    y_coeff = quot0 - phi.apply(data.c + data.b * (1 / mu), -1) + data.b
    on_x = A.monomial(1, x_coeff) + on_x_terms
    on_y = A.monomial(-1, y_coeff * mu) + on_y_terms
    return on_h, on_x, on_y


def build_derivation(data: WeightData, A: GwaAlgebra) -> SkewDerivation:
    """The sigma_mu-derivation with `_weighted_values`, re-checked against
    the defining relations."""
    return verified_derivation(data.mu, *_weighted_values(data, A))


def elementary_derivation(
    weight: int,
    alpha_on_h: Poly,
    A: GwaAlgebra,
    mu: Fraction,
    c: Poly = Poly.zero(),
) -> SkewDerivation:
    """One weighted piece on its own; c only enters at weight 0."""
    if weight != 0 and not c.is_zero():
        raise DerivationError("the polynomial c only applies at weight 0")
    return build_derivation(WeightData(mu, {weight: alpha_on_h}, Poly.zero(), c), A)


def _commutators(b: GwaElement, mu: Fraction) -> dict[str, GwaElement]:
    """The values b sigma_mu(g) - g b on the generators g = "h", "x", "y"."""
    A = b.algebra
    generators = (("h", A.h()), ("x", A.x()), ("y", A.y()))
    return {g: b * sigma_mu(e, mu) - e * b for g, e in generators}


def inner_derivation(b: GwaElement, mu: Fraction) -> SkewDerivation:
    """The twisted commutator d_b = b sigma_mu(.) - (.) b, restricted to generators."""
    return verified_derivation(mu, *_commutators(b, mu).values())


# -- Q-twisting of a derivation -----------------------------------------


class QCheckResult(NamedTuple):
    """Q with sigma_mu o d o sigma_mu^{-1} = Q d, or None when no scalar works."""

    Q: Fraction | None

    @property
    def is_q_derivation(self) -> bool:
        return self.Q is not None


def _scalar_ratio(num: GwaElement, den: GwaElement) -> Fraction | None:
    """Q with num = Q * den, if a single such scalar exists (den nonzero)."""
    n, d = num.coordinates(), den.coordinates()
    if n.keys() != d.keys():
        return None
    key = next(iter(d))
    ratio = n[key] / d[key]
    return ratio if all(n[k] == ratio * c for k, c in d.items()) else None


def _common_value(d: SkewDerivation, measure: Callable[[str, GwaElement], Any], default):
    """The one value of measure(g, d(g)) over the generators g = "h", "x", "y"
    with d(g) != 0, or default when d vanishes on all three; None when a
    measure is None or two measures differ."""
    found = {
        measure(g, val)
        for g, val in (("h", d.on_h), ("x", d.on_x), ("y", d.on_y))
        if not val.is_zero()
    }
    if None in found or len(found) > 1:
        return None
    return found.pop() if found else default


def q_check(d: SkewDerivation) -> QCheckResult:
    """Decide whether sigma_mu o d o sigma_mu^{-1} = Q d for a scalar Q.

    Values d(g) = 0 leave Q unconstrained; the zero derivation reports Q = 1
    by convention.  For a single weight-i piece the answer is Q = mu^{-i}.
    """
    mu = d.mu
    conjugated = {
        "h": sigma_mu(d.on_h, mu),
        "x": mu * sigma_mu(d.on_x, mu),
        "y": (1 / mu) * sigma_mu(d.on_y, mu),
    }
    Q = _common_value(d, lambda g, val: _scalar_ratio(conjugated[g], val), Fraction(1))
    return QCheckResult(Q)


# -- classification of one-sided derivations ------------------------------


def classify_positive(d: SkewDerivation) -> WeightData:
    """Recover weighted data from a derivation with d(x) = 0 and d(K[h])
    supported in nonnegative degrees.

    The reconstruction recomputes `build_derivation`'s values and demands
    exact equality, so a successful return is a certified round trip; as in
    `classify_sigma_q`, the relations are checked again only for an
    unverified d.  The mirrored case (d(y) = 0, negative support) is
    `classify_positive(derivation_through_symmetry(d))`.
    """
    if not d.on_x.is_zero():
        raise ClassificationError(f"d(x) = {d.on_x} is nonzero")
    negative = [k for k in d.on_h.terms if k < 0]
    if negative:
        raise ClassificationError(
            f"d(h) has negative-degree terms at {sorted(negative)}"
        )
    data = WeightData(d.mu, dict(d.on_h.terms))
    try:
        on_h, on_x, on_y = _weighted_values(data, d.algebra)
        if not d.verified:
            verified_derivation(d.mu, on_h, on_x, on_y)
    except DerivationError as exc:
        raise ClassificationError(f"extracted data is inadmissible: {exc}") from exc
    if on_y != d.on_y:
        raise ClassificationError(f"d(y) = {d.on_y} differs from reconstruction {on_y}")
    return data


# -- behaviour under gradings ---------------------------------------------


def degree_profile(d: SkewDerivation, G: Grading) -> int | None:
    """The common degree shift of d on h, x, y, or None if inhomogeneous.

    Zero values leave the shift unconstrained; the zero derivation reports 0.
    """
    gen_degrees = {"h": G.w, "x": G.k, "y": G.d - G.k}

    def shift(g: str, val: GwaElement) -> int | None:
        deg = graded_degree(G, val)
        return None if deg is None else deg - gen_degrees[g]

    return _common_value(d, shift, 0)


# -- finite-order automorphisms -------------------------------------------


class FiniteOrderData(NamedTuple):
    """Data for the constructor available when phi has finite order D.

    pos[m-1] = (alpha_m(h), b_m) feeds degrees m*D (m = 1..M), and
    neg[n-1] = (alphabar_n(h), c_n) degrees -n*D; the alphas are the
    weighted data at weights mD and -nD (untwisted, as phi^D = id).
    """

    D: int
    mu: Fraction
    pos: tuple[tuple[Poly, Poly], ...] = ()
    neg: tuple[tuple[Poly, Poly], ...] = ()

    def validate(self, A: GwaAlgebra) -> None:
        if self.D < 1:
            raise DerivationError("order D must be a positive integer")
        if not A.phi.power(self.D).is_identity():
            raise DerivationError(f"phi does not have order dividing {self.D}")


def build_finite_order(data: FiniteOrderData, A: GwaAlgebra) -> SkewDerivation:
    """Derivation supported in degrees that are multiples of the order of phi.

    It is the weighted derivation of `WeightData(mu, {mD: alpha_m,
    -nD: alphabar_n})` plus the pieces of the b_m and c_n:

        d(x) += sum_m b_m x^{mD+1} - mu^{-1} sum_n phi(c_n a) y^{nD-1}
        d(y) += -mu sum_m phi^{-1}(b_m) a x^{mD-1} + sum_n c_n y^{nD+1}
    """
    data.validate(A)
    mu, phi, D = data.mu, A.phi, data.D
    alphas = {m * D: p for m, (p, _) in enumerate(data.pos, start=1)}
    alphas.update({-n * D: p for n, (p, _) in enumerate(data.neg, start=1)})
    on_h, on_x, on_y = _weighted_values(WeightData(mu, alphas), A)
    for m, (_, b_m) in enumerate(data.pos, start=1):
        on_x = on_x + A.monomial(m * D + 1, b_m)
        on_y = on_y - A.monomial(m * D - 1, phi.apply(b_m, -1) * A.a * mu)
    for n, (_, c_n) in enumerate(data.neg, start=1):
        on_x = on_x - A.monomial(1 - n * D, phi.apply(c_n * A.a) * (1 / mu))
        on_y = on_y + A.monomial(-(n * D + 1), c_n)
    return verified_derivation(mu, on_h, on_x, on_y)


# -- inner witnesses --------------------------------------------------------


def _generator_coordinates(
    values: dict[str, GwaElement],
) -> dict[tuple[str, int, int], Fraction]:
    """Coordinates of the values on h, x, y, keyed by (generator, deg, i)."""
    return {(g, *key): c for g, e in values.items() for key, c in e.coordinates().items()}


def inner_witness(d: SkewDerivation, degree_bound: int, poly_bound: int) -> GwaElement | None:
    """Search for b with d = b sigma_mu(.) - (.) b inside the given bounds.

    The candidate b ranges over sum_{|k| <= degree_bound} p_k(h) X_k with
    deg p_k <= poly_bound; the generator equations become an exact linear
    system in the coefficients of the p_k.  Witnesses are not unique (the
    twisted commutator map has a kernel), so any solution is accepted after
    re-verification; None means no witness exists within the bounds.
    """
    A, mu = d.algebra, d.mu
    degrees = range(-degree_bound, degree_bound + 1)
    # column t*(poly_bound+1) + j is h^j X_k for the t-th degree k
    columns = [
        _generator_coordinates(_commutators(A.monomial(k, Poly.monomial(1, j)), mu))
        for k in degrees
        for j in range(poly_bound + 1)
    ]
    target = _generator_coordinates({"h": d.on_h, "x": d.on_x, "y": d.on_y})
    solution = linalg.solve(*linalg.assemble(columns, target))
    if solution is None:
        return None
    n = poly_bound + 1
    witness = A.element(
        {k: Poly(solution[t * n : (t + 1) * n]) for t, k in enumerate(degrees)}
    )
    rebuilt = inner_derivation(witness, mu)
    if (rebuilt.on_h, rebuilt.on_x, rebuilt.on_y) != (d.on_h, d.on_x, d.on_y):
        raise ArithmeticError("inner witness fails re-verification")
    return witness


# -- transport through the x-y symmetry ------------------------------------


def derivation_through_symmetry(d: SkewDerivation) -> SkewDerivation:
    """Push a derivation to the symmetric algebra (phi(a), phi^{-1}).

    The conjugated twist is degree-counting of coarseness mu^{-1}, and the
    generator values swap and transport coefficientwise.
    """
    on_h, on_x, on_y = (xy_symmetry(e) for e in (d.on_h, d.on_y, d.on_x))
    return verified_derivation(1 / d.mu, on_h, on_x, on_y)
