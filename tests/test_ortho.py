"""Orthogonality: pair conditions, certificates, and their verification."""

from fractions import Fraction

import pytest

from conftest import random_fraction, rng_for
from gwa_skew import (
    CertificateError,
    DerivationError,
    GwaAlgebra,
    GwaElement,
    OrthoCertificate,
    SkewDerivation,
    certificate_from_ideal,
    check_relations,
    disc_pair,
    elementary_derivation,
    elementary_pair,
    inner_derivation,
    pair_conditions,
    q_int,
    q_kl,
    triples_to_pairs,
    verify_certificate,
)
from gwa_skew.ortho import _row_triples
from gwa_skew.poly import AffineAuto, Poly, extended_gcd

F = Fraction
DISC2 = GwaAlgebra.disc(2)
PLANE2 = GwaAlgebra.plane(2)


def plane_unit_pair(A):
    """The pair d(y) = 1, dbar(x) = 1 with everything else zero."""
    q = A.q
    return elementary_pair(0, 0, Poly([1 / q]), Poly.one(), A, q, q)


# -- verify_certificate ------------------------------------------------------------


def test_plane_unit_certificate_verifies():
    d, dbar, report = plane_unit_pair(PLANE2)
    assert report.ok
    cert = OrthoCertificate(
        (((PLANE2.one(), PLANE2.y()),), ((PLANE2.one(), PLANE2.x()),))
    )
    assert verify_certificate(cert, [d, dbar], PLANE2).ok


def test_wrong_certificate_reports_residual():
    d, dbar, _ = plane_unit_pair(PLANE2)
    cert = OrthoCertificate(
        (((PLANE2.one(), PLANE2.x()),), ((PLANE2.one(), PLANE2.x()),))
    )
    check = verify_certificate(cert, [d, dbar], PLANE2)
    assert not check.ok
    # every failed (i, k) is listed: d(x) = 0 != 1 and dbar(x) = 1 != 0
    assert check.failures == [(1, 1, -PLANE2.one()), (1, 2, PLANE2.one())]


def test_empty_system_verifies_vacuously():
    cert = OrthoCertificate(())
    assert verify_certificate(cert, [], PLANE2).ok


def test_size_mismatch_rejected():
    d, _, _ = plane_unit_pair(PLANE2)
    with pytest.raises(CertificateError):
        verify_certificate(OrthoCertificate(()), [d], PLANE2)


# -- certificate construction --------------------------------------------------------


def test_plane_unit_certificate_construction():
    d, dbar, _ = plane_unit_pair(PLANE2)
    cert = certificate_from_ideal([PLANE2.y(), PLANE2.x()], [d, dbar], PLANE2)
    assert cert.rows == (
        ((PLANE2.one(), PLANE2.y()),),
        ((PLANE2.one(), PLANE2.x()),),
    )


def test_single_derivation_certificate():
    d, _, _ = plane_unit_pair(PLANE2)
    cert = certificate_from_ideal([PLANE2.y()], [d], PLANE2)
    assert verify_certificate(cert, [d], PLANE2).ok


def test_disc_elementary_pair_certificates(rng):
    for q in (F(2), F(3), F(1, 2)):
        A = GwaAlgebra.disc(q)
        for m in range(5):
            for n in range(5):
                alpha = Poly.const(random_fraction(rng, nonzero=True))
                abar = Poly.const(random_fraction(rng, nonzero=True))
                d, dbar, report = elementary_pair(m, n, alpha, abar, A, q, q)
                assert report.ok
                cert = certificate_from_ideal([A.y(), A.x()], [d, dbar], A)
                assert verify_certificate(cert, [d, dbar], A).ok


def test_plane_pair_fails_with_gcd_h():
    d, dbar, report = elementary_pair(1, 1, Poly([F(1, 2)]), Poly.one(), PLANE2, F(2), F(2))
    assert not report.ok  # a = h is never coprime with its shifts
    with pytest.raises(CertificateError) as excinfo:
        certificate_from_ideal([PLANE2.y(), PLANE2.x()], [d, dbar], PLANE2)
    assert excinfo.value.gcd == Poly.h()


def test_plane_h_power_alpha_flags_hypotheses():
    # alpha(a) proportional to a positive power of h: coprimality with the
    # shifts of a fails on the plane
    d, dbar, report = elementary_pair(
        1, 1, Poly([0, 0, 1]), Poly.one(), PLANE2, F(1, 2), F(2)
    )
    failed = {c.label for c in report.failed()}
    assert any("alpha(a)-coprime" in label for label in failed)


def test_degenerate_zero_alpha_is_flagged():
    d, dbar, report = elementary_pair(0, 0, Poly.zero(), Poly.one(), DISC2, F(2), F(2))
    assert d.is_zero()
    assert not report.ok
    with pytest.raises(CertificateError):
        certificate_from_ideal([DISC2.y(), DISC2.x()], [d, dbar], DISC2)


def test_elementary_pair_raises_on_a_twist_violation():
    # The twist condition is a precondition of the derivations themselves, so
    # a violation raises instead of showing up in the hypothesis report.
    with pytest.raises(DerivationError, match="alpha_2 fails"):
        elementary_pair(1, 1, Poly([1]), Poly([1]), DISC2, F(3), F(3))
    with pytest.raises(DerivationError, match="alpha_-2 fails"):
        elementary_pair(1, 1, Poly([1]), Poly([1]), DISC2, F(2), F(3))
    _, _, report = elementary_pair(1, 1, Poly([1]), Poly([1]), DISC2, F(2), F(2))
    assert report.ok and not any("twist" in c.label for c in report.checks)


def test_elementary_pair_hypothesis_labels_are_pinned():
    # A regression pin of the current list, not taken from the paper (its text
    # is not in the repository): it fixes which exponents each family checks.
    _, _, report = elementary_pair(2, 3, Poly([1]), Poly([1]), DISC2, F(2), F(2))
    assert [c.label for c in report.checks] == [
        *(f"a-coprime-phi^{i}(a)" for i in (1, 2, 3, 4, 5)),
        *(f"alpha(a)-coprime-phi^{j}(a)" for j in (-3, -2, -1, 0, 3, 4)),
        "alpha(a)-coprime-shift",
        *(f"abar(a)-coprime-phi^{j}(a)" for j in (-4, -3, -2, -1, 0, 4, 5, 6)),
        "abar(a)-coprime-shift",
    ]


def test_certificate_needs_generators():
    d, dbar, _ = plane_unit_pair(PLANE2)
    with pytest.raises(CertificateError, match="generators"):
        certificate_from_ideal([PLANE2.h(), PLANE2.x()], [d, dbar], PLANE2)


# -- triple-to-pair conversion ---------------------------------------------------------


def test_three_set_witnesses_collapse_to_two_sets():
    # a flanked witness set for the weight-two pair on the disc, checked
    # against the pair after conversion
    q = F(2)
    A = GwaAlgebra.disc(q)
    d1, d2 = disc_pair(2, 2, F(1), F(1), q)
    cert = certificate_from_ideal([A.y(), A.x()], [d1, d2], A)
    assert verify_certificate(cert, [d1, d2], A).ok
    # hand-made flanked witness: 1 = (1/c) * d(y) * 1 for d(y) = c with c scalar
    d, dbar, _ = plane_unit_pair(PLANE2)
    triples = [(PLANE2.one(), PLANE2.y(), PLANE2.one())]
    pairs = triples_to_pairs(triples, d.mu)
    total = PLANE2.zero()
    for a, b in pairs:
        total = total + a * d(b)
    assert total == PLANE2.one()


def test_triples_with_polynomial_flank():
    # flank c = (1+h) y: conversion must reproduce a * d(b) * sigma^{-1} -> pairs
    A = DISC2
    q = F(2)
    d = SkewDerivation.zero(A, q)  # only the algebraic identity matters here
    from gwa_skew import build_derivation, WeightData

    d = build_derivation(WeightData(q, {1: Poly.one()}), A)
    a = A.monomial(1, Poly([2, 1]))
    b = A.y()
    c = A.monomial(-1, Poly([1, 1]))
    pairs = triples_to_pairs([(a, b, c)], d.mu)
    from gwa_skew import sigma_mu

    direct = a * d(b) * sigma_mu(sigma_mu(c, d.mu, exponent=-1), d.mu)
    total = A.zero()
    for pa, pb in pairs:
        total = total + pa * d(pb)
    assert total == direct


@pytest.mark.parametrize(
    "row, companion",
    [
        # the companion kills y, the other generator, so the row is built on y
        # alone (the lone-generator route)
        (
            inner_derivation(DISC2.y(3), F(2)),
            elementary_derivation(-1, Poly.one(), DISC2, F(2)),
        ),
        # the row kills y, so its power there is inferred as e1 = e2 + 2
        (
            elementary_derivation(-3, Poly.one(), DISC2, F(2)),
            inner_derivation(DISC2.x(), F(2)),
        ),
    ],
    ids=["companion-kills-other", "row-kills-other"],
)
def test_paired_row_is_one_on_its_derivation_and_zero_on_the_companion(row, companion):
    # x designated: the paired route mixes the row values on x and y
    # (row-kills-other); companion-kills-other takes the lone-generator route
    pairs = triples_to_pairs(_row_triples(row, [companion], 1), row.mu)

    def total(d):
        return sum((a * d(b) for a, b in pairs), DISC2.zero())

    assert (total(row), total(companion)) == (DISC2.one(), DISC2.zero())


def row_triples_oracle(
    row_d: SkewDerivation, companions: list[SkewDerivation], gen_deg: int, trail: list
) -> list[tuple[GwaElement, GwaElement, GwaElement]]:
    """Oracle for `_row_triples`: its earlier body, which took the lone route
    only on the designated generator, kept a paired-route branch for a
    companion that kills the other generator, and fell back to e2 = e1 - 2
    when the row killed the designated one.  Appends "e2-fallback" to trail
    when that fallback runs."""
    A, side = row_d.algebra, -gen_deg
    gen_x, gen_y = A.x(), A.y()
    designated = gen_y if gen_deg < 0 else gen_x
    other = gen_x if gen_deg < 0 else gen_y

    def single_term_or_zero(e: GwaElement) -> tuple[int, Poly] | None:
        if e.is_zero():
            return None
        if len(e.terms) != 1:
            raise ValueError(f"not a single-term element: {e}")
        [(k, p)] = e.terms.items()
        return k, p

    def row_value(g: GwaElement) -> GwaElement:
        return row_d.on_x if g == gen_x else row_d.on_y

    def landing_power(g: GwaElement) -> int | None:
        term = single_term_or_zero(row_value(g))
        if term is None:
            return None
        deg, _ = term
        if deg * side < 0:
            raise CertificateError("row value lies on the wrong side")
        return abs(deg)

    def flank_elem(power: int, coeff: Poly = Poly.one()) -> GwaElement:
        return A.monomial(-side * power, coeff)

    pure = all((c.on_y if gen_deg < 0 else c.on_x).is_zero() for c in companions)
    if pure:
        e = landing_power(designated)
        if e is None:
            raise CertificateError("row derivation kills its own designated generator")
        left_triples = [(flank_elem(e), designated, A.one())]
        right_triples = [(A.one(), designated, flank_elem(e))]
    else:
        if len(companions) != 1:
            raise CertificateError("combined cancellation only supports pairs")
        comp = companions[0]
        if comp.mu != row_d.mu:
            raise CertificateError("combined cancellation requires matching coarseness in the pair")

        def companion_data(g: GwaElement) -> tuple[Poly, int]:
            value = comp.on_x if g == gen_x else comp.on_y
            term = single_term_or_zero(value)
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
            trail.append("e2-fallback")
            e2 = e1 - 2
        if e2 < 0:
            raise CertificateError("designated-generator value has too small a degree")
        if q1.is_zero():
            left_coeffs = (Poly.one(), Poly.zero())
            right_data = ((Poly.one(), Poly.one()), (Poly.zero(), Poly.one()))
        else:
            left_coeffs = (A.phi.apply(q2, -side * e2), -A.phi.apply(q1, -side * e1))
            common = extended_gcd(q1, q2).g
            q1_red, q2_red = q1.exact_div(common), q2.exact_div(common)
            right_data = ((q2_red, Poly.one()), (-Poly.one(), A.phi.apply(q1_red, side * m2)))
        left_triples = [
            (flank_elem(e1, left_coeffs[0]), other, A.one()),
            (flank_elem(e2, left_coeffs[1]), designated, A.one()),
        ]
        right_triples = [
            (A.from_poly(right_data[0][0]), other, flank_elem(e1, right_data[0][1])),
            (A.from_poly(right_data[1][0]), designated, flank_elem(e2, right_data[1][1])),
        ]

    def landed(triples) -> Poly:
        return sum((a * row_value(g) * c for a, g, c in triples), A.zero()).poly_part()

    left_poly, right_poly = landed(left_triples), landed(right_triples)
    if left_poly.is_zero() or right_poly.is_zero():
        raise CertificateError("row combination degenerates to zero")
    witness = extended_gcd(left_poly, right_poly)
    if not witness.coprime:
        raise CertificateError(f"landed polynomials are not coprime (gcd = {witness.g})")
    scale = lambda s, triples: [(A.from_poly(s) * a, g, c) for a, g, c in triples]
    return [t for t in scale(witness.s, left_triples) + scale(witness.t, right_triples) if t[0]]


def derivation_pool(rng, A: GwaAlgebra, centre: Fraction) -> list[SkewDerivation]:
    """Elementary pieces of weight |w| <= 3 with alpha = gamma (h - centre)^d at
    mu = u^{1-d}, and inner derivations of h^j X_k at the same coarsenesses."""
    s, power, pool = Poly([-centre, 1]), Poly.one(), []
    for d in range(3):
        mu = A.phi.u ** (1 - d)
        for w in range(-3, 4):
            try:
                alpha = random_fraction(rng, nonzero=True) * power
                pool.append(elementary_derivation(w, alpha, A, mu))
            except DerivationError:
                pass  # weight 0 needs a | alpha_0(a)
        for k in range(-2, 3):
            for j in range(2):
                pool.append(inner_derivation(A.monomial(k, Poly.monomial(1, j)), mu))
        power = power * s
    return pool


@pytest.mark.parametrize(
    "A, centre, floors",
    [
        (DISC2, F(0), (156, 216, 40)),
        (GwaAlgebra.plane(F(-3, 2)), F(0), (9, 12, 73)),
        (GwaAlgebra(Poly([1, 1, 1]), AffineAuto(3, 1)), F(-1, 2), (49, 238, 35)),
    ],
    ids=["disc(2)", "plane(-3/2)", "custom-1+h+h^2-3h+1"],
)
def test_row_triples_match_the_oracle_or_build_a_verified_row(A, centre, floors):
    # floors: rows both build, rows only the new code builds, and rows that
    # reached the oracle's e2 = e1 - 2 fallback (all of which raised)
    rng = rng_for(f"row-oracle:{A!r}")
    pool = derivation_pool(rng, A, centre)
    by_mu: dict[Fraction, list[SkewDerivation]] = {}
    for d in pool:
        by_mu.setdefault(d.mu, []).append(d)
    same = fresh = fallback = 0
    for _ in range(3000):
        row = rng.choice(pool)
        source = by_mu[row.mu] if rng.random() < 0.7 else pool
        companions = [rng.choice(source) for _ in range(rng.choice([1, 1, 2]))]
        gen_deg = rng.choice([1, -1])
        trail: list = []
        try:
            expected = row_triples_oracle(row, companions, gen_deg, trail)
        except CertificateError:
            expected = None
        if trail:
            assert expected is None  # no row has survived the e2 = e1 - 2 fallback
            fallback += 1
        try:
            got = _row_triples(row, companions, gen_deg)
        except CertificateError:
            assert expected is None
            continue
        if expected is not None:
            assert got == expected
            same += 1
            continue
        pairs = triples_to_pairs(got, row.mu)
        total = lambda d: sum((a * d(b) for a, b in pairs), A.zero())
        assert total(row) == A.one()
        assert all(total(c) == A.zero() for c in companions)
        fresh += 1
    assert all(n >= floor for n, floor in zip((same, fresh, fallback), floors))


def test_lone_row_value_on_the_designated_side_is_flanked_by_its_inverse():
    # d(y) = y^2 sigma(y) - y y^2 = y^3 has the sign of the designated y;
    # flanked by x^3 it lands 1 - 14h + 56h^2 - 64h^3 and
    # 1 - 7/4 h + 7/8 h^2 - 1/8 h^3, which are coprime
    A = DISC2
    d = inner_derivation(A.y(2), F(2))
    assert d.on_y == A.y(3)
    triples = _row_triples(d, [], -1)
    assert [c for _, _, c in triples] == [A.one(), A.x(3)]
    cert = certificate_from_ideal([A.y()], [d], A)
    assert verify_certificate(cert, [d], A).ok


def test_certificate_for_a_pair_listed_against_its_order():
    # d_-1(x) = -1 and d_+1(y) = -2 with d_-1(y) = d_+1(x) = 0: each row is
    # built on the generator its companion kills, whatever b_list designates
    A = DISC2
    dm = elementary_derivation(-1, Poly.one(), A, F(2))
    dp = elementary_derivation(1, Poly.one(), A, F(2))
    rows = (((A.from_scalar(-1), A.x()),), ((A.from_scalar(F(-1, 2)), A.y()),))
    assert certificate_from_ideal([A.y(), A.x()], [dm, dp], A).rows == rows
    assert certificate_from_ideal([A.x(), A.y()], [dp, dm], A).rows == rows[::-1]


# -- ratio values and conditions ---------------------------------------------------------


def test_q_kl_example_value():
    assert q_kl(2, 2, F(2)) == F(7, 16)


def test_q_kl_reduced_form_agreement():
    # 1 - [k]^2 = -q [k-1] (1 + [k]) and 1 - [k]^2 q^{1-k} = -q^{1-k} [k-1] [k+1],
    # so both sides share the pole at [k]_q = -1 (q = -2, k = 2 in this sweep)
    for q in (F(2), F(3), F(1, 2), F(-2)):
        for k in range(2, 6):
            if q_int(k, q) + 1 == 0:
                assert q_kl(k, k, q) is None
            else:
                assert q_kl(k, k, q) == q ** (-k) * q_int(k + 1, q) / (q_int(k, q) + 1)


def test_q_kl_zero_denominator():
    with pytest.raises(ValueError):
        q_kl(1, 1, F(2))


def test_q_kl_cross_value():
    q = F(2)
    kl = q_int(2, q) * q_int(3, q)  # 3 * 7
    assert q_kl(2, 3, q) == (1 - kl * q ** (-1)) / (1 - kl)


def test_pair_conditions_positive_q_clean():
    for q in (F(2), F(3), F(1, 2)):
        for n in (2, 3, 4):
            report = pair_conditions(n, n, q)
            assert report.ok


def test_pair_conditions_preconditions():
    with pytest.raises(ValueError):
        pair_conditions(2, 1, F(2))
    with pytest.raises(ValueError):
        pair_conditions(1, 2, F(2))


def test_pair_conditions_negative_q_reports():
    # outside the positive-q guarantee the report is still computed exactly
    report = pair_conditions(2, 2, F(-2))
    assert isinstance(report.condition2_ok, bool)
    assert report.q_kl == q_kl(2, 2, F(-2))


def test_pair_conditions_ok_implies_certificate_at_negative_q():
    # the pole at (2, 2) must fail the report, since the certificate fails there
    q = F(-2)
    A = GwaAlgebra.disc(q)
    for m in range(2, 5):
        for n in range(2, 5):
            report = pair_conditions(m, n, q)
            d, dbar = disc_pair(m, n, F(1), F(1), q)
            if report.ok:
                cert = certificate_from_ideal([A.y(), A.x()], [d, dbar], A)
                assert verify_certificate(cert, [d, dbar], A).ok
            if (m, n) == (2, 2):
                assert not report.ok
                assert report.poles == ((2, 2),)
                assert report.q_kl is None and report.q_lk is None
                with pytest.raises(CertificateError):
                    certificate_from_ideal([A.y(), A.x()], [d, dbar], A)


# -- disc pairs --------------------------------------------------------------------------


def test_disc_pair_displayed_values():
    d, dbar = disc_pair(2, 2, F(1), F(1), F(2))
    assert d.on_x == DISC2.x(2)
    assert d.on_y == DISC2.from_poly(-6 * Poly([1, -1]))
    assert dbar.on_x == DISC2.from_poly(F(-3, 2) * Poly([1, -1]))
    assert dbar.on_y == DISC2.monomial(-2, Poly.one())


def test_disc_pair_is_always_verified(rng):
    for _ in range(8):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        c, cbar = random_fraction(rng, nonzero=True), random_fraction(rng, nonzero=True)
        d, dbar = disc_pair(m, n, c, cbar, F(3))
        for e in (d, dbar):
            assert check_relations(e.mu, e.on_h, e.on_x, e.on_y).ok


@pytest.mark.parametrize("m, n", [(1, 3), (3, 1)])
def test_disc_pair_rejects_powers_below_two(m, n):
    with pytest.raises(ValueError, match=r"^disc pairs require m, n > 1$"):
        disc_pair(m, n, F(1), F(1), F(3))


@pytest.mark.parametrize("q", [F(2), F(3), F(1, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_disc_pair_certificates_verify(n, q):
    A = GwaAlgebra.disc(q)
    assert pair_conditions(n, n, q).ok
    d, dbar = disc_pair(n, n, F(1), F(1), q)
    cert = certificate_from_ideal([A.y(), A.x()], [d, dbar], A)
    assert verify_certificate(cert, [d, dbar], A).ok


def test_disc_pair_mixed_powers_certificate():
    q = F(2)
    A = GwaAlgebra.disc(q)
    assert pair_conditions(3, 2, q).ok
    d, dbar = disc_pair(3, 2, F(2), F(-1, 3), q)
    cert = certificate_from_ideal([A.y(), A.x()], [d, dbar], A)
    assert verify_certificate(cert, [d, dbar], A).ok


def test_bezout_soundness_in_certificates(rng):
    # every coprimality claim used in a certificate re-verifies by multiplication
    for _ in range(10):
        p = Poly([random_fraction(rng) for _ in range(3)])
        r = Poly([random_fraction(rng) for _ in range(3)])
        if p.is_zero() and r.is_zero():
            continue
        w = extended_gcd(p, r)
        assert w.s * p + w.t * r == w.g
