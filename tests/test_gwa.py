"""Normal-form multiplication, gradings, and the x-y symmetry."""

from fractions import Fraction

import pytest

from conftest import random_element, rng_for
from gwa_skew import (
    AlgebraMismatch,
    GwaAlgebra,
    graded_degree,
    make_grading,
    sigma_mu,
    xy_symmetry,
)
from gwa_skew import serialize as ser
from gwa_skew.gwa import _CROSS_MEMO_SIZE, _cross
from gwa_skew.poly import AffineAuto, Poly
from rewrite_oracle import oracle_mul, reduce_word, word_of


def test_disc_defining_products():
    A = GwaAlgebra.disc(2)
    assert A.x() * A.y() == A.from_poly(Poly([1, -2]))
    assert A.y() * A.x() == A.from_poly(Poly([1, -1]))


def test_disc_mixed_power_product():
    A = GwaAlgebra.disc(2)
    expected = A.monomial(1, Poly([1, Fraction(-3, 2), Fraction(1, 2)]))
    assert A.y(2) * A.x(3) == expected


def test_additive_structure():
    A = GwaAlgebra.plane(3)
    assert A.x() + A.zero() == A.x()
    assert A.from_poly(Poly([1, -1])) + A.from_poly(Poly([-1, 1])) == A.zero()
    assert 2 * A.monomial(1, Poly.h()) == A.monomial(1, Poly([0, 2]))


def test_coefficient_pull_through():
    A = GwaAlgebra.disc(2)
    # x * h = phi(h) * x and y * h = phi^{-1}(h) * y
    assert A.x() * A.h() == A.monomial(1, Poly([0, 2]))
    assert A.y() * A.h() == A.monomial(-1, Poly([0, Fraction(1, 2)]))


def test_coordinates_rebuild_the_element():
    A = GwaAlgebra.plane(3)
    assert A.zero().coordinates() == {}
    rng = rng_for("coordinates")
    for _ in range(30):
        e = random_element(rng, A)
        coords = e.coordinates()
        assert all(c != 0 for c in coords.values())
        terms = (A.monomial(k, Poly.monomial(c, i)) for (k, i), c in coords.items())
        assert sum(terms, A.zero()) == e


def test_algebra_mismatch_rejected():
    # plane(2) differs from disc(2) in a, disc(3) only in phi
    A = GwaAlgebra.disc(2)
    for B in (GwaAlgebra.plane(2), GwaAlgebra.disc(3)):
        assert A != B
        with pytest.raises(AlgebraMismatch):
            A.x() * B.y()


def test_presets_reject_bad_q():
    for q in (0, 1, -1):
        with pytest.raises(ValueError):
            GwaAlgebra.disc(q)
        with pytest.raises(ValueError):
            GwaAlgebra.plane(q)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 5)])
@pytest.mark.parametrize("preset", ["disc", "plane"])
def test_mul_agrees_with_rewriting_oracle(preset, q):
    A = GwaAlgebra.disc(q) if preset == "disc" else GwaAlgebra.plane(q)
    monomials = {}
    for i in range(5):
        for j in range(5):
            monomials[(i, j)] = reduce_word(word_of(-i) + word_of(j), A)
    for (i, j), e1 in monomials.items():
        for (k, l), e2 in monomials.items():
            word = word_of(-i) + word_of(j) + word_of(-k) + word_of(l)
            assert e1 * e2 == reduce_word(word, A), (i, j, k, l)


def test_mul_agrees_with_oracle_on_random_elements():
    rng = rng_for("oracle-random")
    for q in (Fraction(2), Fraction(3, 5)):
        for A in (GwaAlgebra.disc(q), GwaAlgebra.plane(q)):
            for _ in range(25):
                e1 = random_element(rng, A, max_deg=2, poly_deg=2)
                e2 = random_element(rng, A, max_deg=2, poly_deg=2)
                assert e1 * e2 == oracle_mul(e1, e2, A)


def test_associativity_on_random_triples():
    rng = rng_for("associativity")
    for q in (Fraction(2), Fraction(3, 5), Fraction(-2)):
        for A in (GwaAlgebra.disc(q), GwaAlgebra.plane(q)):
            for _ in range(60):
                e1 = random_element(rng, A)
                e2 = random_element(rng, A)
                e3 = random_element(rng, A)
                assert (e1 * e2) * e3 == e1 * (e2 * e3)


def test_sigma_mu_action():
    A = GwaAlgebra.disc(2)
    mu = Fraction(3)
    assert sigma_mu(A.x(), mu) == A.monomial(1, Poly([Fraction(1, 3)]))
    assert sigma_mu(A.y(), mu) == A.monomial(-1, Poly([3]))
    assert sigma_mu(A.h(), mu) == A.h()
    e = A.element({2: Poly.h(), -1: Poly([1, 1])})
    assert sigma_mu(sigma_mu(e, mu), mu, exponent=-1) == e


def test_sigma_mu_is_multiplicative():
    rng = rng_for("sigma-mult")
    A = GwaAlgebra.plane(Fraction(3, 5))
    mu = Fraction(2, 7)
    for _ in range(20):
        e1, e2 = random_element(rng, A), random_element(rng, A)
        assert sigma_mu(e1 * e2, mu) == sigma_mu(e1, mu) * sigma_mu(e2, mu)


# -- gradings ---------------------------------------------------------------


def test_plane_grading_degrees():
    A = GwaAlgebra.plane(2)
    G = make_grading(A, w=1, k=1)
    assert G.d == 1
    assert graded_degree(G, A.x()) == 1
    assert graded_degree(G, A.y(2) * A.x(3)) == 2 * (G.d - G.k) + 3 * G.k
    assert graded_degree(G, A.h() + A.x(2)) is None
    assert graded_degree(G, A.zero()) is None


def test_disc_supports_only_trivial_grading():
    A = GwaAlgebra.disc(2)
    with pytest.raises(ValueError):
        make_grading(A, w=1, k=1)
    G = make_grading(A, w=0, k=1)
    assert G.d == 0
    assert graded_degree(G, A.h() + A.from_poly(Poly.one())) == 0


def test_graded_degree_additive_under_mul():
    A = GwaAlgebra.plane(Fraction(3, 5))
    G = make_grading(A, w=1, k=2)
    rng = rng_for("graded-mul")
    homogeneous = [
        A.monomial(1, Poly([0, 0, 3])),
        A.monomial(-2, Poly.h()),
        A.monomial(0, Poly([0, 0, 0, 1])),
        A.monomial(3, Poly.one()),
    ]
    for e1 in homogeneous:
        for e2 in homogeneous:
            prod = e1 * e2
            if prod.is_zero():
                continue
            assert graded_degree(G, prod) == graded_degree(G, e1) + graded_degree(G, e2)


# -- memoized monomial products ------------------------------------------------


def cross_loop(A: GwaAlgebra, j: int, k: int) -> Poly:
    """phi^m(a) ... phi^{m-t+1}(a) for x^m y^n, phi^{-n+1}(a) ... phi^{-n+t}(a)
    for y^n x^m (t = min(m, n)), and 1 when j, k have the same sign."""
    if j > 0 > k:
        t = min(j, -k)
        exponents = range(j - t + 1, j + 1)
    elif j < 0 < k:
        t = min(-j, k)
        exponents = range(j + 1, j + t + 1)
    else:
        exponents = ()
    out = Poly.one()
    for i in exponents:
        out = out * A.phi.apply(A.a, i)
    return out


@pytest.mark.parametrize(
    "A",
    [
        GwaAlgebra.disc(2),
        GwaAlgebra.plane(Fraction(-3, 2)),
        GwaAlgebra(Poly([3, 1, 1]), AffineAuto.scaling(Fraction(2, 3))),
        GwaAlgebra(Poly([1, 0, 2]), AffineAuto(-1, Fraction(1, 2))),
    ],
    ids=["disc", "plane", "scaling", "shift"],
)
def test_cross_memo_matches_the_product_loop(A):
    rng = rng_for(f"cross-memo:{A!r}")
    pairs = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(60)]
    pairs += [(0, 0), (0, 3), (-4, 0), (2, 5), (-3, -1), (4, -4), (-2, 6)]
    for j, k in pairs:
        assert _cross(A, j, k) == cross_loop(A, j, k)
        assert _cross(A, j, k) == cross_loop(A, j, k)  # a memo hit
        product = A.monomial(j, Poly.one()) * A.monomial(k, Poly.one())
        assert product == A.monomial(j + k, cross_loop(A, j, k))


def test_cross_memo_is_shared_by_equal_algebras():
    doc = {"label": "custom", "a": ["5", "0", "-7", "1"], "phi": {"u": "-4/9", "v": "3"}}
    lhs, rhs = {"terms": [{"deg": 5, "poly": ["1", "2"]}]}, {"terms": [{"deg": -3, "poly": ["1"]}]}

    def product():
        A = ser.algebra_from_json(doc)
        return ser.element_from_json(lhs, A) * ser.element_from_json(rhs, A)

    first = product()
    before = _cross.cache_info()
    second = product()
    after = _cross.cache_info()
    assert second == first
    assert after.misses == before.misses and after.hits > before.hits


def test_cross_memo_is_bounded():
    assert type(_CROSS_MEMO_SIZE) is int and _CROSS_MEMO_SIZE > 0
    assert _cross.cache_info().maxsize == _CROSS_MEMO_SIZE


# -- x-y symmetry --------------------------------------------------------------


def test_algebra_is_its_data():
    A = GwaAlgebra(Poly([1, -1]), AffineAuto.scaling(2))
    assert A == GwaAlgebra.disc(2) and hash(A) == hash(GwaAlgebra.disc(2))
    assert A.label == "disc"
    assert GwaAlgebra(Poly([0, 1]), AffineAuto.scaling(Fraction(-3, 2))).label == "plane"
    # phi = -h has order 2, so the same a is no preset
    assert GwaAlgebra(Poly([1, -1]), AffineAuto.scaling(-1)).label == "custom"
    assert GwaAlgebra(Poly([1, -1]), AffineAuto(2, 1)).label == "custom"


def test_symmetry_on_generators():
    A = GwaAlgebra.disc(2)
    ex = xy_symmetry(A.x())
    image = ex.algebra
    assert image.a == Poly([1, -2]) and image.phi == AffineAuto(Fraction(1, 2), 0)
    assert ex == image.y()
    back = xy_symmetry(A.from_poly(Poly([5, 2])))
    assert back == image.from_poly(Poly([5, 2]))


def test_symmetry_is_multiplicative():
    A = GwaAlgebra.disc(2)
    image = xy_symmetry(A.x()).algebra
    lhs = xy_symmetry(A.x() * A.y())
    rhs = xy_symmetry(A.x()) * xy_symmetry(A.y())
    assert lhs == rhs == image.from_poly(Poly([1, -2]))
    rng = rng_for("symmetry-mult")
    for _ in range(40):
        e1, e2 = random_element(rng, A), random_element(rng, A)
        assert xy_symmetry(e1 * e2) == xy_symmetry(e1) * xy_symmetry(e2)
