"""Orthogonality: pair conditions, certificates, and their verification."""

from fractions import Fraction

import pytest

from conftest import random_fraction
from gwa_skew import (
    CertificateError,
    DerivationError,
    GwaAlgebra,
    OrthoCertificate,
    SkewDerivation,
    certificate_from_ideal,
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
from gwa_skew.poly import Poly, extended_gcd

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
        # the companion kills y, so its coefficient on the other generator is 0
        (
            inner_derivation(DISC2.y(3), DISC2, F(2)),
            elementary_derivation(-1, Poly.one(), DISC2, F(2)),
        ),
        # the row kills y, so its power there is inferred as e1 = e2 + 2
        (
            elementary_derivation(-3, Poly.one(), DISC2, F(2)),
            inner_derivation(DISC2.x(), DISC2, F(2)),
        ),
    ],
    ids=["companion-kills-other", "row-kills-other"],
)
def test_paired_row_is_one_on_its_derivation_and_zero_on_the_companion(row, companion):
    # x designated: the paired route mixes the row values on x and y
    pairs = triples_to_pairs(_row_triples(row, [companion], 1), row.mu)

    def total(d):
        return sum((a * d(b) for a, b in pairs), DISC2.zero())

    assert (total(row), total(companion)) == (DISC2.one(), DISC2.zero())


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
        assert d.verified and dbar.verified


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
