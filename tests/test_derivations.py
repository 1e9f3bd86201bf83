"""Construction, verification, and classification of skew derivations."""

from fractions import Fraction

import pytest

from conftest import random_element, random_fraction, random_poly, random_weight_data, rng_for
from gwa_skew import (
    ClassificationError,
    DerivationError,
    FiniteOrderData,
    GwaAlgebra,
    GwaElement,
    SkewDerivation,
    TwistedPolyDerivation,
    WeightData,
    build_derivation,
    build_finite_order,
    check_relations,
    classify_positive,
    degree_profile,
    derivation_through_symmetry,
    diagonal_derivation,
    elementary_derivation,
    inner_derivation,
    inner_witness,
    make_grading,
    q_check,
    sigma_mu,
)
from gwa_skew.derivations import _on_poly, verified_derivation
from gwa_skew.poly import AffineAuto, Poly

F = Fraction
DISC2 = GwaAlgebra.disc(2)
PLANE2 = GwaAlgebra.plane(2)


# -- twisted derivations of K[h] -----------------------------------------------


def test_twisted_poly_derivation_is_jackson_quotient():
    # twist by phi: alpha(f) = p * (f(qh) - f(h)) / ((q-1) h)
    alpha = TwistedPolyDerivation(1, Poly.one())
    assert alpha.apply(Poly([0, 0, 1]), DISC2) == Poly([0, 3])  # [2]_2 h
    assert alpha.apply(Poly([1, -1]), DISC2) == Poly([-1])


def test_twisted_poly_derivation_identity_twist_is_ordinary():
    alpha = TwistedPolyDerivation(0, Poly([0, 0, 1]))
    assert alpha.apply(Poly([0, 0, 1]), PLANE2) == Poly([0, 0, 0, 2])  # h^2 * 2h


def test_twisted_leibniz_rule_holds():
    rng = rng_for("twisted-leibniz")
    for twist in (-2, -1, 0, 1, 3):
        alpha = TwistedPolyDerivation(twist, Poly([1, 2]))
        for _ in range(20):
            f = Poly([random_fraction(rng) for _ in range(4)])
            g = Poly([random_fraction(rng) for _ in range(4)])
            lhs = alpha.apply(f * g, DISC2)
            rhs = alpha.apply(f, DISC2) * DISC2.phi.apply(g, twist) + f * alpha.apply(g, DISC2)
            assert lhs == rhs


# -- relation checking -----------------------------------------------------------


def test_check_relations_accepts_diagonal_family():
    on_x, on_y = DISC2.monomial(1, Poly.h()), DISC2.monomial(-1, Poly([0, -1]))
    rep = check_relations(F(2), DISC2.zero(), on_x, on_y)
    assert rep.ok and rep.derivation == SkewDerivation(F(2), DISC2.zero(), on_x, on_y)


def test_check_relations_rejects_flipped_sign():
    rep = check_relations(
        F(2), DISC2.zero(), DISC2.monomial(1, Poly.h()), DISC2.monomial(-1, Poly.h())
    )
    assert not rep.ok and rep.derivation is None
    # every failed relation is listed, with its residual
    assert rep.violations == [
        ("xy", DISC2.from_poly(Poly([0, 4, -8]))),
        ("yx", DISC2.from_poly(Poly([0, 1, -1]))),
    ]


def test_check_relations_accepts_zero_map():
    rep = check_relations(F(2), DISC2.zero(), DISC2.zero(), DISC2.zero())
    assert rep.ok


def test_relations_spot_check_on_h_squared():
    # the library checks the r-relations at r = h; confirm independently at r = h^2
    d = build_derivation(WeightData(F(2), {1: Poly.one()}), DISC2)
    h2 = DISC2.from_poly(Poly([0, 0, 1]))
    x, y = DISC2.x(), DISC2.y()
    phi_h2 = DISC2.from_poly(DISC2.phi.apply(Poly([0, 0, 1])))
    phi_inv_h2 = DISC2.from_poly(DISC2.phi.apply(Poly([0, 0, 1]), -1))
    assert d(x * h2 - phi_h2 * x).is_zero()
    assert d(y * h2 - phi_inv_h2 * y).is_zero()


# -- evaluation -------------------------------------------------------------------


def test_evaluate_on_h_matches_direct_value():
    d = diagonal_derivation(Poly.one(), F(2), DISC2)
    assert d(DISC2.h()).is_zero()
    # h = 1 - yx on the disc: the two routes agree
    manual = -(d.on_y * sigma_mu(DISC2.x(), F(2)) + DISC2.y() * d.on_x)
    assert manual.is_zero()


def leibniz_fold(on_h: GwaElement, p: Poly):
    """Oracle for d on K[h] given d(h) = on_h: d(h^i) = d(h) h^{i-1} + h d(h^{i-1}),
    summed over p."""
    A = on_h.algebra
    out, power_val = A.zero(), A.zero()  # power_val = d(h^i), from i = 0
    for i, c in enumerate(p.coeffs):
        if i > 0:
            power_val = on_h * A.from_poly(Poly.monomial(1, i - 1)) + A.h() * power_val
        out = out + c * power_val
    return out


@pytest.mark.parametrize(
    "A",
    [
        DISC2,
        GwaAlgebra.plane(F(-3, 2)),
        GwaAlgebra(Poly([1, 0, 1]), AffineAuto(1, 1)),  # shift
        GwaAlgebra(Poly([2, 1]), AffineAuto(-1, 1)),  # order 2
        GwaAlgebra(Poly([0, 1, 1]), AffineAuto(-1)),  # order 2, scaling
        GwaAlgebra(Poly([1, -1, 2]), AffineAuto(F(2, 3), 1)),  # scaling and shift
    ],
    ids=["disc", "plane", "shift", "order-2", "order-2-scaling", "affine"],
)
def test_on_poly_matches_leibniz_fold(A):
    rng = rng_for(f"on-poly:{A!r}")
    unverified = 0
    for _ in range(40):
        weights = rng.sample(range(-3, 4), rng.randint(2, 4))
        on_h = A.element({k: random_poly(rng, 2, nonzero=True) for k in weights})
        mu = random_fraction(rng, nonzero=True)
        on_x, on_y = random_element(rng, A), random_element(rng, A)
        unverified += not check_relations(mu, on_h, on_x, on_y).ok
        for _ in range(3):
            p = random_poly(rng, 5)
            assert _on_poly(on_h, p) == leibniz_fold(on_h, p)
    assert unverified > 30


def test_evaluate_zero_derivation():
    rng = rng_for("zero-eval")
    z = SkewDerivation.zero(DISC2, F(2))
    for _ in range(10):
        assert z(random_element(rng, DISC2)).is_zero()


def test_evaluate_leibniz_on_product():
    rng = rng_for("eval-leibniz")
    d = build_derivation(WeightData(F(2), {1: Poly.one(), -2: Poly.one()}), DISC2)
    for _ in range(25):
        e1 = random_element(rng, DISC2, max_deg=2, poly_deg=2)
        e2 = random_element(rng, DISC2, max_deg=2, poly_deg=2)
        assert d(e1 * e2) == d(e1) * sigma_mu(e2, d.mu) + e1 * d(e2)


def test_evaluate_independent_of_factorization():
    d = build_derivation(WeightData(F(2), {1: Poly.one()}), DISC2)
    x, y = DISC2.x(), DISC2.y()
    xyx = x * y * x
    # evaluate the normal form directly
    direct = d(xyx)
    # fold the Leibniz rule along two different factorizations
    sig = lambda e: sigma_mu(e, d.mu)
    left_first = d(x * y) * sig(x) + (x * y) * d(x)
    right_first = d(x) * sig(y * x) + x * d(y * x)
    assert direct == left_first == right_first


# -- the weighted constructor ------------------------------------------------------


def test_build_plane_weight_zero_example():
    d = build_derivation(WeightData(F(1, 2), {0: Poly([0, 0, 1])}), PLANE2)
    assert d.on_h == PLANE2.from_poly(Poly([0, 0, 1]))
    assert d.on_x.is_zero()
    assert d.on_y == PLANE2.monomial(-1, Poly([0, F(1, 2)]))


def test_build_disc_weight_one_example():
    d = build_derivation(WeightData(F(2), {1: Poly.one()}), DISC2)
    assert d.on_h == DISC2.x()
    assert d.on_x.is_zero()
    assert d.on_y == DISC2.from_scalar(-2)


def test_build_zero_data_gives_zero_derivation():
    d = build_derivation(WeightData(F(2), {}), DISC2)
    assert d.is_zero() and check_relations(d.mu, d.on_h, d.on_x, d.on_y).ok


def test_build_rejects_bad_twist_condition():
    # alpha_1(h) = h requires mu = 1 = q^0, not mu = q
    with pytest.raises(DerivationError, match="alpha_1"):
        build_derivation(WeightData(F(2), {1: Poly.h()}), DISC2)


def test_build_rejects_indivisible_weight_zero():
    # disc: alpha_0(a) = -gamma h^d is never divisible by 1 - h
    with pytest.raises(DerivationError, match="divide"):
        build_derivation(WeightData(F(2), {0: Poly.one()}), DISC2)


def test_constructor_random_sweep_has_zero_residuals(rng):
    count = 0
    for label in ("disc", "plane"):
        for q in (F(2), F(3, 5)):
            A = GwaAlgebra.disc(q) if label == "disc" else GwaAlgebra.plane(q)
            for _ in range(30):
                data = random_weight_data(rng, A, q)
                d = build_derivation(data, A)
                rep = check_relations(d.mu, d.on_h, d.on_x, d.on_y)
                assert rep.ok
                count += 1
    assert count == 120


def test_constructor_is_additive(rng):
    for _ in range(15):
        d_val = rng.randint(0, 3)
        q = F(2)
        mu = q ** (1 - d_val)
        data1 = random_weight_data(rng, DISC2, q)
        # share the coarseness so the sum stays admissible
        data2 = WeightData(data1.mu, {}, Poly.h(), Poly([1, 1]))
        lhs = build_derivation(data1 + data2, DISC2)
        rhs1, rhs2 = build_derivation(data1, DISC2), build_derivation(data2, DISC2)
        total = rhs1 + rhs2
        assert (lhs.on_h, lhs.on_x, lhs.on_y) == (total.on_h, total.on_x, total.on_y)


def test_elementary_families_match_displayed_forms():
    # weight 0 with c only
    f = Poly([1, 2])
    d0 = elementary_derivation(0, Poly.zero(), DISC2, F(2), c=f)
    assert d0.on_x == DISC2.monomial(1, f)
    assert d0.on_y == DISC2.monomial(-1, -2 * DISC2.phi.apply(f, -1))
    # weight -1 on the disc at d = 0 (mu = q)
    dm = elementary_derivation(-1, Poly.one(), DISC2, F(2))
    alpha = TwistedPolyDerivation(-1, Poly.one())
    assert dm.on_x == DISC2.from_poly(DISC2.phi.apply(alpha.apply(DISC2.a, DISC2)))
    assert dm.on_y.is_zero()
    # the commutator family via a base-ring witness
    db = inner_derivation(DISC2.h(), F(2))
    assert db.on_h.is_zero()
    assert db.on_x == DISC2.monomial(1, Poly([0, F(-3, 2)]))
    assert db.on_y == DISC2.monomial(-1, Poly([0, F(3, 2)]))


def test_elementary_rejects_c_at_nonzero_weight():
    with pytest.raises(DerivationError):
        elementary_derivation(1, Poly.one(), DISC2, F(2), c=Poly.one())


# -- Q-twisting ----------------------------------------------------------------


def test_q_check_on_elementary_weights():
    for i in range(-3, 4):
        if i == 0:
            d = elementary_derivation(0, Poly.zero(), DISC2, F(2), c=Poly.one())
        else:
            d = elementary_derivation(i, Poly.one(), DISC2, F(2))
        result = q_check(d)
        assert result.is_q_derivation and result.Q == F(2) ** (-i)


def test_q_check_mixed_weights_fails():
    d = elementary_derivation(1, Poly.one(), DISC2, F(2)) + elementary_derivation(
        2, Poly.one(), DISC2, F(2)
    )
    assert not q_check(d).is_q_derivation


def test_q_check_zero_derivation_reports_one():
    result = q_check(SkewDerivation.zero(DISC2, F(2)))
    assert result.is_q_derivation and result.Q == 1


def test_q_check_diagonal_family_reports_one():
    d = diagonal_derivation(Poly([1, 4, 2]), F(3), GwaAlgebra.disc(3))
    result = q_check(d)
    assert result.is_q_derivation and result.Q == 1


# -- value types ------------------------------------------------------------------


def test_weight_data_equality_ignores_zero_alphas():
    data = WeightData(F(2), {1: Poly.one(), 2: Poly.zero()})
    assert data.alphas == {1: Poly.one()}
    assert data == WeightData(F(2), {1: Poly.one()})
    assert data != WeightData(F(2), {1: Poly.one()}, b=Poly.h())
    assert data != WeightData(F(3), {1: Poly.one()})


def test_skew_derivation_equality_compares_mu_and_values():
    d = build_derivation(WeightData(F(2), {1: Poly.one()}), DISC2)
    assert d == SkewDerivation(d.mu, d.on_h, d.on_x, d.on_y)
    assert d != SkewDerivation(F(3), d.on_h, d.on_x, d.on_y)
    assert d != SkewDerivation(d.mu, d.on_h + DISC2.h(), d.on_x, d.on_y)
    assert d != SkewDerivation(d.mu, d.on_h, d.on_x + DISC2.x(), d.on_y)
    assert d != SkewDerivation(d.mu, d.on_h, d.on_x, -d.on_y)


def test_zero_derivation_needs_nonzero_mu():
    with pytest.raises(DerivationError, match="mu must be nonzero"):
        SkewDerivation.zero(DISC2, F(0))


# -- classification ---------------------------------------------------------------


def test_classify_positive_recovers_weight_one():
    data = WeightData(F(2), {1: Poly.one()})
    assert classify_positive(build_derivation(data, DISC2)) == data


def test_classify_positive_rejects_nonzero_on_x():
    d = diagonal_derivation(Poly.one(), F(2), DISC2)
    with pytest.raises(ClassificationError, match="d\\(x\\)"):
        classify_positive(d)


def test_classify_positive_zero_derivation():
    data = classify_positive(SkewDerivation.zero(DISC2, F(2)))
    assert data == WeightData(F(2), {})


def test_classify_positive_round_trip_random(rng):
    for label in ("disc", "plane"):
        for _ in range(60):
            q = F(2)
            A = GwaAlgebra.disc(q) if label == "disc" else GwaAlgebra.plane(q)
            data = random_weight_data(rng, A, q, positive_only=True, with_bc=False)
            d = build_derivation(data, A)
            assert classify_positive(d) == data


def test_classify_positive_rechecks_its_rebuild_once(monkeypatch):
    # each classify rebuilds through `build_derivation`, whose one relation
    # check certifies the rebuild that d must equal
    from gwa_skew import derivations

    calls = []
    original = derivations.check_relations
    monkeypatch.setattr(derivations, "check_relations", lambda *a: calls.append(1) or original(*a))
    data = WeightData(F(2), {1: Poly.one(), 3: Poly([F(-1, 2)])})
    d = build_derivation(data, DISC2)
    assert len(calls) == 1
    assert classify_positive(d) == data
    assert len(calls) == 2
    assert classify_positive(SkewDerivation(d.mu, d.on_h, d.on_x, d.on_y)) == data
    assert len(calls) == 3


def test_classify_positive_refuses_a_d_y_off_the_rebuild():
    d = build_derivation(WeightData(F(2), {1: Poly.one()}), DISC2)
    cand = SkewDerivation(d.mu, d.on_h, d.on_x, d.on_y + DISC2.y())
    assert not check_relations(cand.mu, cand.on_h, cand.on_x, cand.on_y).ok
    with pytest.raises(ClassificationError, match=r"^d\(y\) = .* differs from reconstruction"):
        classify_positive(cand)


def test_classify_negative_through_symmetry(rng):
    # mirrored case: d(y) = 0 and negative support classifies in the image algebra
    data = WeightData(F(2), {-2: Poly.one()})
    d = build_derivation(data, DISC2)
    assert d.on_y.is_zero()
    mirrored = derivation_through_symmetry(d)
    recovered = classify_positive(mirrored)
    assert recovered.alphas == {2: Poly.one()}
    assert recovered.mu == F(1, 2)


# -- symmetry transport -----------------------------------------------------------


@pytest.mark.parametrize("A", [DISC2, GwaAlgebra.plane(F(-3, 2))], ids=["disc", "plane"])
def test_symmetry_twice_gives_back_the_derivation(A):
    d = build_derivation(WeightData(A.q, {1: Poly.one()}, c=Poly([1, 1])), A)
    back = derivation_through_symmetry(derivation_through_symmetry(d))
    assert back.algebra == A and back.algebra.label == A.label
    assert back == d


def test_negative_weight_transports_to_positive_weight():
    for d_exp in (0, 1, 2):
        q = F(2)
        mu = q ** (1 - d_exp)
        on_h = Poly.monomial(F(3), d_exp)
        dneg = elementary_derivation(-2, on_h, DISC2, mu)
        pushed = derivation_through_symmetry(dneg)
        rebuilt = elementary_derivation(2, on_h, pushed.algebra, 1 / mu)
        assert (pushed.on_h, pushed.on_x, pushed.on_y) == (
            rebuilt.on_h,
            rebuilt.on_x,
            rebuilt.on_y,
        )


# -- gradings -----------------------------------------------------------------------


def test_degree_profile_diagonal_family_on_plane():
    G = make_grading(PLANE2, w=1, k=1)
    for s in range(4):
        d = diagonal_derivation(Poly.monomial(1, s), F(2), PLANE2)
        assert degree_profile(d, G) == s


def test_degree_profile_zero_derivation_is_zero():
    G = make_grading(PLANE2, w=1, k=1)
    assert degree_profile(SkewDerivation.zero(PLANE2, F(2)), G) == 0


def test_degree_profile_inhomogeneous():
    G = make_grading(PLANE2, w=1, k=1)
    d = diagonal_derivation(Poly([1, 0, 1]), F(2), PLANE2)  # mixed degrees in f
    assert degree_profile(d, G) is None


def test_degree_profile_matches_weight_conditions():
    # weighted data: deg(alpha_i) = l - i*k + min(i, 0) * d with deg h = w = 1
    G = make_grading(PLANE2, w=1, k=2)
    for weight, d_exp in ((1, 2), (2, 2), (-1, 2), (-2, 3)):
        mu = F(2) ** (1 - d_exp)
        data = WeightData(mu, {weight: Poly.monomial(1, d_exp)})
        deriv = build_derivation(data, PLANE2)
        got = degree_profile(deriv, G)
        alpha_deg = d_exp - 1  # the map f -> alpha(f) raises h-degree by d_exp - 1
        expected = alpha_deg + weight * G.k - (weight - abs(weight)) * G.d // 2
        assert got == expected


def test_degree_profile_converse_direction():
    # two weights whose degree conditions conflict -> inhomogeneous
    G = make_grading(PLANE2, w=1, k=1)
    data = WeightData(F(2), {1: Poly.one(), 2: Poly.one()})
    deriv = build_derivation(data, PLANE2)
    assert degree_profile(deriv, G) is None


# -- finite order -------------------------------------------------------------------


def test_finite_order_reflection_instance():
    B = GwaAlgebra(Poly([0, 0, 1]), AffineAuto(-1, 0))
    data = FiniteOrderData(2, F(1), pos=((Poly.h(), Poly.zero()),))
    d = build_finite_order(data, B)
    assert check_relations(d.mu, d.on_h, d.on_x, d.on_y).ok
    assert d.on_h == B.monomial(2, Poly.h())
    assert d.on_x.is_zero()
    assert d.on_y == B.monomial(1, Poly([0, 0, 2]))


def test_finite_order_zero_data():
    B = GwaAlgebra(Poly([0, 0, 1]), AffineAuto(-1, 0))
    assert build_finite_order(FiniteOrderData(2, F(1)), B).is_zero()


def test_finite_order_requires_matching_order():
    with pytest.raises(DerivationError, match="order"):
        build_finite_order(FiniteOrderData(2, F(1)), DISC2)


def test_finite_order_with_witness_polynomials():
    B = GwaAlgebra(Poly([0, 0, 1]), AffineAuto(-1, 0))
    data = FiniteOrderData(
        2, F(1), pos=((Poly.h(), Poly([0, 0, 3])),), neg=((Poly.h(), Poly([0, 0, -1])),)
    )
    d = build_finite_order(data, B)
    assert check_relations(d.mu, d.on_h, d.on_x, d.on_y).ok


@pytest.mark.parametrize("mu", [F(1), F(-1), F(2)])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c_n", [Poly.one(), Poly([2, -1, 3])], ids=["1", "2-h+3h^2"])
def test_finite_order_c_n_piece_where_phi_moves_a(mu, n, c_n):
    # phi(a) = 5 - 3h + h^2 != a, so the xy relation tells phi(c_n a) from phi(c_n) a
    A = GwaAlgebra(Poly([3, 1, 1]), AffineAuto(-1, 1))
    neg = ((Poly.zero(), Poly.zero()),) * (n - 1) + ((Poly.zero(), c_n),)
    d = build_finite_order(FiniteOrderData(2, mu, neg=neg), A)
    assert check_relations(d.mu, d.on_h, d.on_x, d.on_y).ok
    assert d.on_x == A.monomial(1 - 2 * n, -A.phi.apply(c_n * A.a) * (1 / mu))
    assert d.on_y == A.monomial(-(2 * n + 1), c_n)


def finite_order_oracle(data: FiniteOrderData, A: GwaAlgebra) -> SkewDerivation:
    """Oracle for `build_finite_order`: its earlier body, which wrote out the
    alpha pieces and the twist check itself instead of reusing the weighted
    constructor."""
    if data.D < 1:
        raise DerivationError("order D must be a positive integer")
    if not A.phi.power(data.D).is_identity():
        raise DerivationError(f"phi does not have order dividing {data.D}")
    if data.mu == 0:
        raise DerivationError("coarseness mu must be nonzero")
    for p, _ in (*data.pos, *data.neg):
        if not TwistedPolyDerivation(0, p).twist_condition_ok(A, data.mu):
            raise DerivationError(f"alpha with on_h = {p} fails alpha o phi = mu * phi o alpha")
    mu, phi, D = data.mu, A.phi, data.D
    on_h, on_x, on_y = A.zero(), A.zero(), A.zero()
    for m, (p, b_m) in enumerate(data.pos, start=1):
        alpha = TwistedPolyDerivation(0, p)
        on_h = on_h + A.monomial(m * D, p)
        on_x = on_x + A.monomial(m * D + 1, b_m)
        coeff = (alpha.apply(A.a, A) - phi.apply(b_m, -1) * A.a) * mu
        on_y = on_y + A.monomial(m * D - 1, coeff)
    for n, (p, c_n) in enumerate(data.neg, start=1):
        alpha = TwistedPolyDerivation(0, p)
        on_h = on_h + A.monomial(-n * D, p)
        coeff = (alpha.apply(phi.apply(A.a), A) - phi.apply(c_n * A.a)) * (1 / mu)
        on_x = on_x + A.monomial(-(n * D - 1), coeff)
        on_y = on_y + A.monomial(-(n * D + 1), c_n)
    return verified_derivation(mu, on_h, on_x, on_y)


def random_finite_order_alpha(rng, centre: Fraction, parity: int | None) -> Poly:
    """alpha(h) of degree <= 3 in powers of s = h - centre: only even powers
    (parity 0), only odd powers (parity 1), or any powers (None)."""
    s, power, out = Poly([-centre, 1]), Poly.one(), Poly.zero()
    for k in range(4):
        if parity is None or k % 2 == parity:
            out = out + random_fraction(rng) * power
        power = power * s
    return out


@pytest.mark.parametrize(
    "A, D, centre",
    [
        (GwaAlgebra(Poly([0, 0, 1]), AffineAuto(-1)), 2, F(0)),
        (GwaAlgebra(Poly([1, 0, 1]), AffineAuto(-1)), 2, F(0)),
        (GwaAlgebra(Poly([3, 1, 1]), AffineAuto(-1, 1)), 2, F(1, 2)),
        (GwaAlgebra(Poly([1, 1, 1]), AffineAuto.identity()), 1, F(0)),
    ],
    ids=["h^2-reflection", "1+h^2-reflection", "3+h+h^2-shifted-reflection", "identity-D1"],
)
def test_finite_order_matches_written_out_oracle(A, D, centre):
    rng = rng_for(f"finite-order-oracle:{A!r}")
    built = raised = 0
    for _ in range(80):
        mu = rng.choice([F(1), F(-1), F(2)])
        # about the centre of a reflection, the twist condition holds for odd
        # alphas at mu = 1 and even ones at mu = -1
        parity = rng.choice([{1: 1, -1: 0}.get(mu), 0, 1, None])
        pieces = lambda: tuple(
            (random_finite_order_alpha(rng, centre, parity), random_poly(rng, 2))
            for _ in range(rng.randint(0, 2))
        )
        data = FiniteOrderData(D, mu, pos=pieces(), neg=pieces())
        try:
            expected = finite_order_oracle(data, A)
        except DerivationError:
            with pytest.raises(DerivationError):
                build_finite_order(data, A)
            raised += 1
            continue
        assert build_finite_order(data, A) == expected
        built += any(not b.is_zero() for _, b in (*data.pos, *data.neg))
    assert built >= 5 and raised >= 5


def test_finite_order_d1_agrees_with_weighted_constructor():
    C = GwaAlgebra(Poly([0, 1]), AffineAuto.identity())
    via_finite = build_finite_order(
        FiniteOrderData(1, F(1), pos=((Poly.one(), Poly.zero()),)), C
    )
    via_weights = build_derivation(WeightData(F(1), {1: Poly.one()}), C)
    assert (via_finite.on_h, via_finite.on_x, via_finite.on_y) == (
        via_weights.on_h,
        via_weights.on_x,
        via_weights.on_y,
    )


# -- inner witnesses -----------------------------------------------------------------


def test_inner_witness_recovers_commutator():
    b = DISC2.monomial(1, Poly.h())
    d = inner_derivation(b, F(2))
    w = inner_witness(d, degree_bound=2, poly_bound=2)
    assert w is not None
    rebuilt = inner_derivation(w, F(2))
    assert (rebuilt.on_h, rebuilt.on_x, rebuilt.on_y) == (d.on_h, d.on_x, d.on_y)


def test_inner_witness_diagonal_scalar_case():
    d = diagonal_derivation(Poly.one(), F(2), DISC2)
    assert inner_witness(d, 2, 2) == DISC2.from_scalar(-2)


def test_inner_witness_zero_derivation():
    assert inner_witness(SkewDerivation.zero(DISC2, F(2)), 1, 1) == DISC2.zero()


def test_inner_witness_detects_inner_weighted_pieces(rng):
    q = F(2)
    for _ in range(20):
        m = rng.randint(1, 3)
        e = rng.randint(0, 2)
        gamma = random_fraction(rng, nonzero=True)
        mu = q ** (-e)
        s = Poly.monomial(gamma, e)
        alpha_on_h = s * (DISC2.phi.apply(Poly.h(), m) - Poly.h())
        d = elementary_derivation(m, alpha_on_h, DISC2, mu)
        w = inner_witness(d, degree_bound=m + 1, poly_bound=e + 2)
        assert w is not None
        # the degree-m component of any witness must itself witness alpha_m
        s_m = w.coeff(m)
        assert alpha_on_h == s_m * DISC2.phi.apply(Poly.h(), m) - Poly.h() * s_m


def test_inner_witness_rejects_non_inner_pieces(rng):
    q = F(2)
    for _ in range(20):
        m = rng.randint(1, 3)
        gamma = random_fraction(rng, nonzero=True)
        d = elementary_derivation(m, Poly.const(gamma), DISC2, q)
        assert inner_witness(d, degree_bound=m + 2, poly_bound=4) is None
