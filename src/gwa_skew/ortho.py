"""Orthogonality certificates for systems of skew derivations.

A family (d_1, ..., d_r) is orthogonal when finite sets {a_it}, {b_it}
exist with

    sum_t a_it d_k(b_it) = delta_ik        for all i, k.

`OrthoCertificate` stores those witness pairs; `verify_certificate`
re-evaluates every sum with exact arithmetic.  The constructor
`certificate_from_ideal` builds a certificate row by row from a designated
generator b_i in {x, y} per derivation:

  * when every other derivation kills b_i, the row value v = d_i(b_i) is a
    single term p(h) * x^e (or the y-side mirror); multiplying by y^e on
    the left and on the right lands two polynomials in K[h], and a Bezout
    identity between them (they must be coprime) produces the witnesses;
  * otherwise (for pairs sharing the same coarseness) the row combines
    flanked values of d_i on BOTH generators, with the flank coefficients
    chosen so that the combination annihilates the companion derivation;
    the two landed polynomials again feed the extended Euclidean algorithm.

Intermediate witnesses with a right-hand flank c are turned into plain
pairs via the twisted Leibniz rule:

    a * d_k(b) * sigma_k(sigma_i^{-1}(c))
        = a * d_k(b sigma_i^{-1}(c)) - a b * d_k(sigma_i^{-1}(c)),

so each triple (a, b, c) contributes the pairs (a, b sigma_i^{-1}(c)) and
(-a b, sigma_i^{-1}(c)).  Every constructed certificate is re-verified
before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .derivations import (
    SkewDerivation, TwistedPolyDerivation, derivation_from_xy, elementary_derivation
)
from .disc_plane import q_int
from .gwa import GwaAlgebra, GwaElement, sigma_mu
from .poly import BezoutWitness, Poly, extended_gcd


class CertificateError(ValueError):
    """Certificate construction failed; `gcd` is set when coprimality broke."""

    def __init__(self, message: str, gcd: Poly | None = None):
        super().__init__(message)
        self.gcd = gcd


# -- certificates ------------------------------------------------------------


class OrthoCertificate(NamedTuple):
    """Witness pairs per derivation: rows[i] = ((a_t, b_t), ...)."""

    rows: tuple[tuple[tuple[GwaElement, GwaElement], ...], ...]


class CertificateCheck(NamedTuple):
    """The (i, k, residual) triples, 1-based, where sum_t a_it d_k(b_it) != delta_ik."""

    failures: list[tuple[int, int, GwaElement]]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_certificate(
    cert: OrthoCertificate, system: list[SkewDerivation], A: GwaAlgebra
) -> CertificateCheck:
    """Exactly evaluate sum_t a_it d_k(b_it) against delta_ik."""
    if len(cert.rows) != len(system):
        raise CertificateError("certificate and system sizes differ")
    failures = []
    for i, row in enumerate(cert.rows):
        for k, d in enumerate(system):
            total = A.zero()
            for a, b in row:
                total = total + a * d.evaluate(b)
            expected = A.one() if i == k else A.zero()
            if total != expected:
                failures.append((i + 1, k + 1, total - expected))
    return CertificateCheck(failures)


def _scalar_of(e: GwaElement) -> Fraction | None:
    """The scalar c when e = c * 1, else None."""
    if e.is_zero():
        return Fraction(0)
    if set(e.terms) == {0} and e.coeff(0).is_constant():
        return e.coeff(0).leading()
    return None


def triples_to_pairs(
    triples: list[tuple[GwaElement, GwaElement, GwaElement]], mu: Fraction
) -> list[tuple[GwaElement, GwaElement]]:
    """Convert flanked witnesses (a, b, c) to plain pairs via the Leibniz rule.

    A scalar flank folds into the left witness; the pair (-a b, scalar) it
    would produce pairs every derivation with a constant and contributes 0.
    """
    pairs = []
    for a, b, c in triples:
        if a.is_zero():
            continue
        c_back = sigma_mu(c, mu, exponent=-1)
        scalar = _scalar_of(c_back)
        if scalar is not None:
            if scalar != 0:
                pairs.append((scalar * a, b))
        else:
            pairs.append((a, b * c_back))
            pairs.append((-(a * b), c_back))
    return pairs


# -- row construction ---------------------------------------------------------


def _single_term_or_zero(e: GwaElement) -> tuple[int, Poly] | None:
    if e.is_zero():
        return None
    return e.single_term()


def _coprime_witness(left: Poly, right: Poly) -> BezoutWitness:
    """Bezout witness of two landed polynomials; raises unless they are coprime."""
    witness = extended_gcd(left, right)
    if not witness.coprime:
        raise CertificateError(
            f"landed polynomials are not coprime (gcd = {witness.g})", gcd=witness.g
        )
    return witness


def _row_triples(
    row_d: SkewDerivation, companions: list[SkewDerivation], gen_deg: int
) -> list[tuple[GwaElement, GwaElement, GwaElement]]:
    """Flanked witnesses expressing 1 through row_d while killing companions.

    gen_deg is +1 when the designated generator is x (row values then live
    on the y side) and -1 for y (row values on the x side); `side` is the
    sign of the degrees carried by the row values, and flanks are powers of
    the designated generator (signed degree -side * power).
    """
    A, side = row_d.algebra, -gen_deg
    gen_x, gen_y = A.x(), A.y()
    designated = gen_y if gen_deg < 0 else gen_x
    other = gen_x if gen_deg < 0 else gen_y

    def row_value(g: GwaElement) -> GwaElement:
        return row_d.on_x if g == gen_x else row_d.on_y

    def landing_power(g: GwaElement) -> int | None:
        """Power of the row value on g, measured on the landing side."""
        term = _single_term_or_zero(row_value(g))
        if term is None:
            return None
        deg, _ = term
        if deg * side < 0:
            raise CertificateError("row value lies on the wrong side")
        return abs(deg)

    def flank_elem(power: int, coeff: Poly = Poly.one()) -> GwaElement:
        return A.monomial(-side * power, coeff)

    pure = all(
        (c.on_y if gen_deg < 0 else c.on_x).is_zero() for c in companions
    )
    if pure:
        # Every companion kills the designated generator: a single flanked
        # value of row_d on it suffices.
        e = landing_power(designated)
        if e is None:
            raise CertificateError("row derivation kills its own designated generator")
        left_triples = [(flank_elem(e), designated, A.one())]
        right_triples = [(A.one(), designated, flank_elem(e))]
    else:
        # Paired route: some companion keeps the designated generator alive, so
        # the row combination must mix both generator values, with the flank
        # coefficients tuned to cancel on the companion.
        if len(companions) != 1:
            raise CertificateError("combined cancellation only supports pairs")
        comp = companions[0]
        if comp.mu != row_d.mu:
            raise CertificateError(
                "combined cancellation requires matching coarseness in the pair"
            )

        def companion_data(g: GwaElement) -> tuple[Poly, int]:
            """Coefficient and flank-side power of the companion value on g."""
            value = comp.on_x if g == gen_x else comp.on_y
            term = _single_term_or_zero(value)
            if term is None:
                return Poly.zero(), 0
            deg, p = term
            if deg * side > 0:
                raise CertificateError("companion value lies on the wrong side")
            return p, abs(deg)

        e1 = landing_power(other)
        e2 = landing_power(designated)
        if e1 is not None and e2 is not None and e1 != e2 + 2:
            raise CertificateError("row powers are not aligned for cancellation")
        q1, m1 = companion_data(other)
        q2, m2 = companion_data(designated)
        if not q1.is_zero() and not q2.is_zero() and m2 != m1 + 2:
            raise CertificateError("companion powers are not aligned for cancellation")
        if e1 is None and e2 is None:
            raise CertificateError("row derivation vanishes on both generators")
        if e1 is None:
            e1 = e2 + 2
        if e2 is None:
            e2 = e1 - 2
        if e2 < 0:
            raise CertificateError("designated-generator value has too small a degree")
        # q2 != 0 here: a vanishing companion value on the designated generator
        # would have taken the pure route.
        if q1.is_zero():
            left_coeffs = (Poly.one(), Poly.zero())
            right_data = ((Poly.one(), Poly.one()), (Poly.zero(), Poly.one()))
        else:
            left_coeffs = (
                A.phi.apply(q2, -side * e2),
                -A.phi.apply(q1, -side * e1),
            )
            common = extended_gcd(q1, q2).g
            q1_red, q2_red = q1.exact_div(common), q2.exact_div(common)
            right_data = (
                (q2_red, Poly.one()),
                (-Poly.one(), A.phi.apply(q1_red, side * m2)),
            )
        left_triples = [
            (flank_elem(e1, left_coeffs[0]), other, A.one()),
            (flank_elem(e2, left_coeffs[1]), designated, A.one()),
        ]
        right_triples = [
            (A.from_poly(right_data[0][0]), other, flank_elem(e1, right_data[0][1])),
            (A.from_poly(right_data[1][0]), designated, flank_elem(e2, right_data[1][1])),
        ]

    def landed(triples) -> Poly:
        total = A.zero()
        for a, g, c in triples:
            total = total + a * row_value(g) * c
        return total.poly_part()

    left_poly = landed(left_triples)
    right_poly = landed(right_triples)
    if left_poly.is_zero() or right_poly.is_zero():
        raise CertificateError("row combination degenerates to zero")
    bez = _coprime_witness(left_poly, right_poly)
    scale = lambda s, triples: [(A.from_poly(s) * a, g, c) for a, g, c in triples]
    return [t for t in scale(bez.s, left_triples) + scale(bez.t, right_triples) if t[0]]


def certificate_from_ideal(
    b_list: list[GwaElement], system: list[SkewDerivation], A: GwaAlgebra
) -> OrthoCertificate:
    """Build a certificate from one designated generator per derivation.

    b_list[i] must be the generator x or y.  Raises CertificateError when a
    landing pair of polynomials fails to be coprime (the gcd is attached)
    or when the system shape is outside the supported constructions.  The
    returned certificate has been re-verified.
    """
    if len(b_list) != len(system):
        raise CertificateError("b_list and system sizes differ")
    rows = []
    for i, (b, d) in enumerate(zip(b_list, system)):
        if b == A.x():
            gen_deg = 1
        elif b == A.y():
            gen_deg = -1
        else:
            raise CertificateError("designated elements must be the generators x or y")
        companions = [dk for k, dk in enumerate(system) if k != i]
        triples = _row_triples(d, companions, gen_deg)
        rows.append(tuple(triples_to_pairs(triples, d.mu)))
    cert = OrthoCertificate(tuple(rows))
    check = verify_certificate(cert, system, A)
    if not check.ok:
        raise CertificateError(f"constructed certificate failed verification: {check.failures}")
    return cert


# -- elementary orthogonal pairs ----------------------------------------------


class HypothesisCheck(NamedTuple):
    label: str
    ok: bool
    detail: str = ""


class PairHypothesisReport(NamedTuple):
    checks: tuple[HypothesisCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> list[HypothesisCheck]:
        return [c for c in self.checks if not c.ok]


def _coprime_check(label: str, p: Poly, r: Poly) -> HypothesisCheck:
    if p.is_zero() or r.is_zero():
        return HypothesisCheck(label, False, "zero polynomial generates a proper ideal")
    witness = extended_gcd(p, r)
    if witness.coprime:
        return HypothesisCheck(label, True)
    return HypothesisCheck(label, False, f"gcd = {witness.g}")


def elementary_pair(
    m: int,
    n: int,
    alpha_on_h: Poly,
    abar_on_h: Poly,
    A: GwaAlgebra,
    mu: Fraction,
    mubar: Fraction,
) -> tuple[SkewDerivation, SkewDerivation, PairHypothesisReport]:
    """The weight m+1 and weight -(n+1) elementary derivations, plus the
    coprimality hypotheses guaranteeing their orthogonality.

    An alpha that fails the twist condition alpha o phi = mu * phi o alpha
    admits no derivation, so construction raises `DerivationError`.  The
    coprimality hypotheses do not affect construction: the report only
    flags that orthogonality is not guaranteed.  Certificates are then
    attempted via certificate_from_ideal with b_list = (y, x).
    """
    if m < 0 or n < 0:
        raise ValueError("weights need m, n >= 0")
    d = elementary_derivation(m + 1, alpha_on_h, A, mu)
    dbar = elementary_derivation(-(n + 1), abar_on_h, A, mubar)
    alpha_a = TwistedPolyDerivation(m + 1, alpha_on_h).apply(A.a, A)
    abar_a = TwistedPolyDerivation(-(n + 1), abar_on_h).apply(A.a, A)
    checks: list[HypothesisCheck] = []
    N = max(m, n)
    for i in range(1, 2 * N):
        checks.append(_coprime_check(f"a-coprime-phi^{i}(a)", A.a, A.phi.apply(A.a, i)))
    # hypotheses on the positive-weight derivation
    js = list(range(-m - 1, 1)) + list(range(m + 1, 2 * m + 1))
    for j in js:
        checks.append(
            _coprime_check(f"alpha(a)-coprime-phi^{j}(a)", alpha_a, A.phi.apply(A.a, j))
        )
    checks.append(
        _coprime_check(
            "alpha(a)-coprime-shift", alpha_a, A.phi.apply(alpha_a, -m)
        )
    )
    # hypotheses on the negative-weight derivation
    shifted = A.phi.apply(abar_a, n + 1)
    js = list(range(-n - 1, 1)) + list(range(n + 1, 2 * n + 1))
    for j in js:
        checks.append(
            _coprime_check(
                f"abar(a)-coprime-phi^{j}(a)", shifted, A.phi.apply(A.a, j)
            )
        )
    checks.append(
        _coprime_check("abar(a)-coprime-shift", shifted, A.phi.apply(abar_a, 1))
    )
    return d, dbar, PairHypothesisReport(tuple(checks))


# -- coarseness-q pairs on the disc -------------------------------------------


def q_kl(k: int, l: int, q: Fraction) -> Fraction | None:
    """The ratio (1 - [k]_q [l]_q q^{-k+1}) / (1 - [k]_q [l]_q).

    Three outcomes:
      * a `Fraction` wherever the denominator is nonzero;
      * `None` at a true pole, where [k]_q [l]_q = 1 but the numerator is
        nonzero (e.g. q = -2, k = l = 2, where [2]_q = -1);
      * `ValueError` at 0/0, where also q^{k-1} = 1 (e.g. k = l = 1).

    For k = l the value is cross-checked against the reduced form
    q^{-k} [k+1]_q / ([k]_q + 1), which has the same pole at [k]_q = -1;
    a disagreement raises `ArithmeticError`.
    """
    kl = q_int(k, q) * q_int(l, q)
    den = 1 - kl
    num = 1 - kl * q ** (-k + 1)
    if den == 0:
        if num == 0:
            raise ValueError(f"q_kl undefined: 0/0 at (k, l) = ({k}, {l})")
        return None
    value = num / den
    if k == l and value != q ** (-k) * q_int(k + 1, q) / (q_int(k, q) + 1):
        raise ArithmeticError(f"q_kl disagrees with its reduced form at k = l = {k}")
    return value


class PairConditionReport(NamedTuple):
    """Exceptional exponents for a disc pair with powers (m, n).

    violated_exponents collects all i with q_kl = q^i over both orderings
    (k, l) = (m, n) and (n, m); condition2_ok records
    q_kl != q^{2l-2} q_lk for both orderings.  q_kl and q_lk are None at a
    pole of the ratio, and poles lists each such ordering (k, l); an
    ordering whose q_kl or q_lk is a pole skips the exponent and condition-2
    checks, and any pole makes `ok` false.
    """

    q_kl: Fraction | None
    q_lk: Fraction | None
    violated_exponents: tuple[int, ...]
    condition2_ok: bool
    poles: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.poles and not self.violated_exponents and self.condition2_ok


def pair_conditions(m: int, n: int, q: Fraction) -> PairConditionReport:
    """Check the exceptional-exponent conditions for the disc pair (m, n).

    The preconditions exclude q^{k-1} = 1, so q_kl never hits 0/0 here; a
    pole is reported as a failed hypothesis rather than raised.
    """
    if m <= 1 or n <= 1:
        raise ValueError("pair conditions require m, n > 1")
    if q == 0 or q == 1 or q == -1:
        raise ValueError("q must avoid {0, 1, -1}")
    ratios = {(k, l): q_kl(k, l, q) for k, l in ((m, n), (n, m))}
    poles = tuple(kl for kl, value in ratios.items() if value is None)
    violated: set[int] = set()
    cond2 = True
    for (k, l), value in ratios.items():
        other = ratios[l, k]
        if value is None or other is None:
            continue
        exponents = list(range(-2 * k + 3, -k + 2)) + list(range(l, 2 * l - 2)) + [2 * l - 1]
        for i in exponents:
            if value == q**i:
                violated.add(i)
        if value == q ** (2 * l - 2) * other:
            cond2 = False
    return PairConditionReport(
        ratios[m, n], ratios[n, m], tuple(sorted(violated)), cond2, poles
    )


def disc_pair(
    m: int, n: int, c: Fraction, cbar: Fraction, q: Fraction
) -> tuple[SkewDerivation, SkewDerivation]:
    """The coarseness-q pair on the disc

        d(x) = c x^n,               d(y) = -q [n]_q c (1-h) x^{n-2},
        dbar(x) = -q^{-1} [m]_q cbar (1 - q^{-m+2} h) y^{m-2},
        dbar(y) = cbar y^m.

    When pair_conditions(m, n, q).ok holds (no violation and no pole), the
    certificate construction with b_list = (y, x) succeeds and verifies.
    """
    if m <= 1 or n <= 1:
        raise ValueError("disc pairs require m, n > 1")
    if c == 0 or cbar == 0:
        raise ValueError("the scalars c and cbar must be nonzero")
    A = GwaAlgebra.disc(q)
    one_minus_h = Poly([1, -1])
    d = derivation_from_xy(
        q,
        A.monomial(n, Poly.const(c)),
        A.monomial(n - 2, -q * q_int(n, q) * c * one_minus_h),
    )
    dbar = derivation_from_xy(
        q,
        A.monomial(-(m - 2), (-q_int(m, q) * cbar / q) * Poly([1, -(q ** (2 - m))])),
        A.monomial(-m, Poly.const(cbar)),
    )
    return d, dbar
