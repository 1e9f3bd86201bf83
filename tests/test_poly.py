"""Exact polynomial arithmetic, affine automorphisms, and Bezout witnesses."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import poly_pairs_with_nonzero, polys, rationals
from gwa_skew.poly import (
    MINUS_INFINITY,
    AffineAuto,
    Poly,
    extended_gcd,
    is_root_of_unity,
)


def test_schoolbook_product():
    assert Poly([1, -1]) * Poly([1, -2]) == Poly([1, -3, 2])


def test_absorbing_zero():
    assert Poly([1, 2, 3]) * Poly.zero() == Poly.zero()


def test_additive_cancellation():
    assert Poly([1, -1]) + Poly([0, 1]) == Poly.one()


def test_zero_degree_marker():
    assert Poly.zero().degree() == MINUS_INFINITY
    assert Poly.zero().degree() < 0
    assert Poly([0, 0, 5]).degree() == 2


def test_normalization_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([0]).is_zero()


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_apply_auto_scaling_power():
    phi = AffineAuto(2, 0)
    assert phi.apply(Poly.h(), 3) == Poly([0, 8])


def test_apply_auto_identity():
    phi = AffineAuto.identity()
    p = Poly([3, -2, 5])
    for k in (-4, 0, 7):
        assert phi.apply(p, k) == p


def test_apply_auto_disc_central_element():
    # the disc automorphism sends 1 - h to 1 - q h
    assert AffineAuto(2, 0).apply(Poly([1, -1]), 1) == Poly([1, -2])


@given(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    polys,
    rationals.filter(lambda u: u != 0),
    rationals,
)
def test_auto_powers_compose(k, m, p, u, v):
    phi = AffineAuto(u, v)
    assert phi.apply(phi.apply(p, m), k) == phi.apply(p, k + m)


@given(st.integers(min_value=-6, max_value=6), polys)
def test_auto_round_trip(k, p):
    phi = AffineAuto(Fraction(3, 2), Fraction(-1, 3))
    assert phi.apply(phi.apply(p, k), -k) == p


def test_divrem_examples():
    q, r = Poly([-1, 0, 1]).divrem(Poly([-1, 1]))
    assert (q, r) == (Poly([1, 1]), Poly.zero())
    q, r = Poly.h().divrem(Poly([1, -1]))
    assert (q, r) == (Poly([-1]), Poly([1]))
    q, r = Poly.zero().divrem(Poly([3, 5]))
    assert (q, r) == (Poly.zero(), Poly.zero())


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        Poly.one().divrem(Poly.zero())


@given(poly_pairs_with_nonzero())
def test_divrem_round_trip(pair):
    p, d = pair
    q, r = p.divrem(d)
    assert q * d + r == p
    assert r.degree() < d.degree()


def test_extended_gcd_coprime_linear():
    w = extended_gcd(Poly([1, -1]), Poly([1, -2]))
    assert w.g == Poly.one()
    assert w.s == Poly([2]) and w.t == Poly([-1])
    assert w.check()


def test_extended_gcd_divisor_case():
    w = extended_gcd(Poly.h(), Poly([0, 0, 1]))
    assert w.g == Poly.h()
    assert w.s == Poly.one() and w.t == Poly.zero()


def test_extended_gcd_quadratic_case():
    w = extended_gcd(Poly([1, -1]) * Poly([1, -2]), Poly([1, -4]))
    assert w.g == Poly.one()
    assert w.check()


def test_extended_gcd_both_zero():
    with pytest.raises(ValueError):
        extended_gcd(Poly.zero(), Poly.zero())


@given(poly_pairs_with_nonzero())
def test_extended_gcd_postcondition(pair):
    p, d = pair
    w = extended_gcd(p, d)
    assert w.s * p + w.t * d == w.g
    assert w.g.is_zero() or w.g.leading() == 1
    # the gcd divides both inputs
    assert w.g.divides(p) and w.g.divides(d)


@pytest.mark.parametrize(
    "q,expected",
    [(Fraction(2), False), (Fraction(-1), True), (Fraction(3, 5), False), (Fraction(1), True)],
)
def test_is_root_of_unity(q, expected):
    assert is_root_of_unity(q) is expected


def test_is_root_of_unity_rejects_zero():
    with pytest.raises(ValueError):
        is_root_of_unity(Fraction(0))
