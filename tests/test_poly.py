"""Exact polynomial arithmetic, affine automorphisms, and Bezout witnesses."""

import math
import random
from fractions import Fraction

import pytest
import sympy
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


# -- sympy differential test ------------------------------------------------------

H = sympy.Symbol("h")


def to_sympy(p: Poly) -> sympy.Poly:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], H, domain=sympy.QQ)


def from_sympy(sp: sympy.Poly) -> Poly:
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs()))


def random_rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.15:
        return Fraction(0)
    bound = rng.choice((3, 50, 10**12))
    return Fraction(rng.randint(-bound, bound), rng.randint(1, rng.choice((1, 6, 10**6))))


def random_poly(rng: random.Random) -> Poly:
    """Lengths 0-45, so products of short and of long factors are both
    exercised."""
    length = rng.choice((0, 1, 2, 3, 5, 8, 13, 21, 34, 45))
    return Poly(random_rational(rng) for _ in range(length))


def assert_canonical(p: Poly) -> None:
    assert p.den > 0
    assert not p.num or p.num[-1] != 0
    assert math.gcd(p.den, *p.num) == 1
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.num)


@pytest.mark.parametrize("seed", range(6))
def test_ring_operations_match_sympy(seed):
    rng = random.Random(f"gwa-skew:poly:{seed}")
    for _ in range(30):
        p, q = random_poly(rng), random_poly(rng)
        c = rng.choice((0, 1, -1, 7, random_rational(rng)))
        sp, sq = to_sympy(p), to_sympy(q)
        sc = sympy.Rational(c.numerator, c.denominator)
        results = {
            "+": (p + q, sp + sq),
            "-": (p - q, sp - sq),
            "neg": (-p, -sp),
            "scalar": (p * c, sp * sc),
            "rscalar": (c * p, sp * sc),
            "*": (p * q, sp * sq),
            "derivative": (p.derivative(), sp.diff(H)),
        }
        for name, (ours, theirs) in results.items():
            assert_canonical(ours)
            assert ours == from_sympy(theirs), name


@pytest.mark.parametrize("seed", range(6))
def test_division_and_gcd_match_sympy(seed):
    rng = random.Random(f"gwa-skew:poly-div:{seed}")
    for _ in range(30):
        p, d = random_poly(rng), random_poly(rng)
        if d.is_zero():
            d = Poly([random_rational(rng) or 1, 1])
        quot, rem = p.divrem(d)
        squot, srem = to_sympy(p).div(to_sympy(d))
        assert_canonical(quot)
        assert_canonical(rem)
        assert (quot, rem) == (from_sympy(squot), from_sympy(srem))
        assert (p * d).exact_div(d) == p
        if not rem.is_zero():
            with pytest.raises(ValueError):
                p.exact_div(d)
        if max(len(p.num), len(d.num)) > 13:
            continue  # remainder sequences of long random inputs explode
        w = extended_gcd(p, d)
        s, t, g = to_sympy(p).gcdex(to_sympy(d))
        assert (w.s, w.t, w.g) == (from_sympy(s), from_sympy(t), from_sympy(g))
        for part in (w.g, w.s, w.t):
            assert_canonical(part)


def test_equal_polynomials_built_by_different_routes():
    rng = random.Random("gwa-skew:poly-routes")
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        routes = [
            p,
            Poly(p.coeffs),
            Poly(list(p.coeffs) + [0, Fraction(0)]),
            (p + q) - q,
            -(-p),
            p * Fraction(3, 7) * Fraction(7, 3),
            (p * q + p).exact_div(q + Poly.one()) if q != -Poly.one() else p,
            from_sympy(to_sympy(p)),
        ]
        for r in routes:
            assert_canonical(r)
            assert r == p and hash(r) == hash(p)
    assert Poly.zero() == Poly([0, 0]) == Poly([1]) - Poly([1])
    assert (Poly.zero().num, Poly.zero().den) == ((), 1)
    assert hash(Poly([Fraction(1, 2), 1]) * 2) == hash(Poly([1, 2]))


# -- closed-form powers of an affine automorphism ------------------------------------


def power_by_composition(phi: AffineAuto, k: int) -> tuple[Fraction, Fraction]:
    """Oracle: (u^k, v_k) of phi^k by |k| compositions of phi or its inverse."""
    u, v = (phi.u, phi.v) if k >= 0 else (1 / phi.u, -phi.v / phi.u)
    U, V = Fraction(1), Fraction(0)
    for _ in range(abs(k)):
        U, V = u * U, u * V + v
    return U, V


def apply_by_horner(p: Poly, U: Fraction, V: Fraction) -> Poly:
    """Oracle: p(U h + V) by Horner's rule with Poly products."""
    inner, out = Poly([V, U]), Poly.zero()
    for c in reversed(p.coeffs):
        out = out * inner + Poly.const(c)
    return out


@pytest.mark.parametrize(
    "u,v",
    [
        (1, Fraction(-5, 3)),  # translation
        (-1, 0),  # order 2
        (-1, Fraction(1, 2)),  # order 2 with a shift
        (Fraction(-3, 2), 0),
        (Fraction(2, 5), Fraction(7, 4)),
        (3, -2),
    ],
)
def test_power_and_apply_match_repeated_composition(u, v):
    phi = AffineAuto(u, v)
    rng = random.Random(f"gwa-skew:auto:{u}:{v}")
    for k in range(-8, 9):
        U, V = power_by_composition(phi, k)
        assert phi.power(k) == AffineAuto(U, V)
        for _ in range(6):
            p = Poly(random_rational(rng) for _ in range(rng.choice((0, 1, 2, 4, 9))))
            image = phi.apply(p, k)
            assert_canonical(image)
            assert image == apply_by_horner(p, U, V)
