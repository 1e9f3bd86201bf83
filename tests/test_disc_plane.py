"""Disc/plane derivation families, the coarseness-q classification, and
bounded-support dimension counts."""

from fractions import Fraction

import pytest

from conftest import random_fraction, rng_for
from gwa_skew import (
    ClassificationError,
    GwaAlgebra,
    SigmaQData,
    SkewDerivation,
    build_sigma_q,
    check_relations,
    classify_sigma_q,
    diagonal_derivation,
    disc_commutation_identities,
    h_power_derivation,
    q_int,
    sigma_q_dimension,
    to_monomial_basis,
    yx_monomial,
)
from gwa_skew.disc_plane import _expand_in_stairs, _stair_poly
from gwa_skew.poly import Poly

F = Fraction
DISC2 = GwaAlgebra.disc(2)
PLANE2 = GwaAlgebra.plane(2)


# -- q-integers ----------------------------------------------------------------


def test_q_int_values():
    assert q_int(3, F(2)) == 7
    assert q_int(1, F(7, 3)) == 1
    assert q_int(4, F(3)) == 40
    assert q_int(0, F(2)) == 0
    assert q_int(5, F(1)) == 5  # the sum form stays total at q = 1


@pytest.mark.parametrize("q", [F(2), F(3, 5), F(-2)])
def test_q_int_pascal_identity(q):
    for m in range(11):
        assert q_int(m + 1, q) == q * q_int(m, q) + 1


# -- monomial basis -------------------------------------------------------------


def test_yx_monomial_normal_forms():
    assert yx_monomial(DISC2, 1, 1) == DISC2.from_poly(Poly([1, -1]))
    assert yx_monomial(DISC2, 0, 2) == DISC2.x(2)
    assert yx_monomial(DISC2, 2, 1) == DISC2.y() * DISC2.y() * DISC2.x()


def test_monomial_basis_round_trip(rng):
    for A in (DISC2, PLANE2):
        for _ in range(30):
            coords = {
                (rng.randint(0, 3), rng.randint(0, 3)): random_fraction(rng)
                for _ in range(rng.randint(1, 4))
            }
            e = A.zero()
            for (m, n), c in coords.items():
                e = e + c * yx_monomial(A, m, n)
            back = to_monomial_basis(e)
            pruned = {k: c for k, c in coords.items() if c != 0}
            # duplicate keys collapse before comparison
            assert back == {k: c for k, c in pruned.items()}


def test_stair_basis_degrees():
    for shift in (0, 1, 3):
        for m in range(5):
            assert _stair_poly(DISC2, m, shift).degree() == m


def test_stair_expansion_is_exact():
    p = Poly([3, -2, F(1, 2), 4])
    coords = _expand_in_stairs(p, DISC2, 1)
    total = Poly.zero()
    for m, c in coords.items():
        total = total + c * _stair_poly(DISC2, m, 1)
    assert total == p


# -- diagonal and h-power families ------------------------------------------------


def test_diagonal_family_examples():
    d = diagonal_derivation(Poly.one(), F(2), DISC2)
    assert d.on_x == DISC2.x() and d.on_y == -2 * DISC2.y() and d.on_h.is_zero()


def test_diagonal_family_kills_h(rng):
    for A in (DISC2, PLANE2):
        for _ in range(10):
            f = Poly([random_fraction(rng) for _ in range(4)])
            mu = random_fraction(rng, nonzero=True)
            assert diagonal_derivation(f, mu, A).on_h.is_zero()


def test_h_power_family_degenerate_example():
    d = h_power_derivation(0, [F(1)], [], DISC2)
    assert d.on_x.is_zero() and d.on_y == DISC2.one() and d.mu == 2


def test_h_power_family_general():
    d = h_power_derivation(2, [F(1), F(3)], [F(0), F(1)], PLANE2)
    assert d.mu == F(1, 2)
    assert check_relations(d.mu, d.on_h, d.on_x, d.on_y).ok
    assert d.on_x == PLANE2.monomial(-1, Poly([0, 0, 1]))
    assert d.on_y == PLANE2.element({0: Poly([0, 0, 1]), 1: Poly([0, 0, 3])})


def test_zero_data_gives_zero_derivation():
    assert build_sigma_q(SigmaQData({}), DISC2).is_zero()
    assert diagonal_derivation(Poly.zero(), F(5), DISC2).is_zero()


# -- the coarseness-q family -------------------------------------------------------


def test_build_sigma_q_basic_example():
    d = build_sigma_q(SigmaQData({(0, 1): F(1)}), DISC2)
    assert d.on_x == DISC2.x()
    assert d.on_y == -2 * DISC2.y()
    diag = diagonal_derivation(Poly.one(), F(2), DISC2)
    assert (d.on_h, d.on_x, d.on_y) == (diag.on_h, diag.on_x, diag.on_y)


def test_sigma_q_data_equality_ignores_zero_entries():
    data = SigmaQData({(0, 1): F(1), (1, 1): F(0)}, f=(F(2), F(0)), g=(F(0),))
    assert (data.alpha, data.f, data.g) == ({(0, 1): F(1)}, (F(2),), ())
    assert data == SigmaQData({(0, 1): F(1)}, f=(F(2),))
    assert data != SigmaQData({(0, 1): F(1)}, g=(F(2),))
    with pytest.raises(ValueError, match="out of range"):
        SigmaQData({(0, 0): F(0)})  # indices are checked before zeros are pruned


def test_build_sigma_q_pure_f():
    d = build_sigma_q(SigmaQData({}, f=(F(0), F(0), F(1))), DISC2)
    assert d.on_x.is_zero()
    assert d.on_y == DISC2.x(2)
    assert check_relations(d.mu, d.on_h, d.on_x, d.on_y).ok


def test_build_sigma_q_random_data_verifies(rng):
    for q in (F(2), F(3, 5), F(-2)):
        for A in (GwaAlgebra.disc(q), GwaAlgebra.plane(q)):
            for _ in range(15):
                data = SigmaQData(
                    {
                        (rng.randint(0, 2), rng.randint(1, 3)): random_fraction(rng)
                        for _ in range(rng.randint(0, 3))
                    },
                    f=tuple(random_fraction(rng) for _ in range(rng.randint(0, 3))),
                    g=tuple(random_fraction(rng) for _ in range(rng.randint(0, 3))),
                )
                d = build_sigma_q(data, A)
                assert check_relations(d.mu, d.on_h, d.on_x, d.on_y).ok


def test_classify_sigma_q_round_trip(rng):
    for A in (DISC2, PLANE2):
        for _ in range(50):
            data = SigmaQData(
                {
                    (rng.randint(0, 2), rng.randint(1, 3)): random_fraction(rng)
                    for _ in range(rng.randint(0, 4))
                },
                f=tuple(random_fraction(rng) for _ in range(rng.randint(0, 4))),
                g=tuple(random_fraction(rng) for _ in range(rng.randint(0, 3))),
            )
            assert classify_sigma_q(build_sigma_q(data, A)) == data


def test_classify_sigma_q_rechecks_its_rebuild_once(monkeypatch):
    # each classify rebuilds through `build_sigma_q`, whose one relation
    # check certifies the rebuild that d must equal
    from gwa_skew import derivations

    calls = []
    original = derivations.check_relations
    monkeypatch.setattr(derivations, "check_relations", lambda *a: calls.append(1) or original(*a))
    data = SigmaQData({(0, 1): F(1), (1, 2): F(-3, 2)}, f=(F(2),), g=(F(0), F(1)))
    d = build_sigma_q(data, DISC2)
    assert len(calls) == 1
    assert classify_sigma_q(d) == data
    assert len(calls) == 2
    assert classify_sigma_q(SkewDerivation(d.mu, d.on_h, d.on_x, d.on_y)) == data
    assert len(calls) == 3


def test_classify_sigma_q_refuses_a_wrong_d_h():
    # d(x) and d(y) match the rebuild, but d(h) is not the one d(a) forces:
    # the relations reject the candidate, and so must the classifier
    d = build_sigma_q(SigmaQData({(0, 1): F(1)}, f=(F(2),)), DISC2)
    cand = SkewDerivation(d.mu, d.on_h + DISC2.h(), d.on_x, d.on_y)
    assert not check_relations(cand.mu, cand.on_h, cand.on_x, cand.on_y).ok
    with pytest.raises(ClassificationError, match=r"^d\(h\) = .* differs from reconstruction"):
        classify_sigma_q(cand)


def test_classify_sigma_q_zero():
    data = classify_sigma_q(SkewDerivation.zero(DISC2, F(2)))
    assert data.is_zero() and data.M == 0 and data.N == 0


def test_classify_sigma_q_rejects_broken_constraint():
    # d(x) = x forces d(y) = -2y: +2y is off the forced coefficient at (1, 0),
    # and d(y) = 0 misses it
    for on_y in (DISC2.monomial(-1, Poly([2])), DISC2.zero()):
        cand = SkewDerivation(F(2), DISC2.zero(), DISC2.x(), on_y)
        with pytest.raises(ClassificationError, match="y"):
            classify_sigma_q(cand)


def test_classify_sigma_q_needs_coarseness_q():
    d = diagonal_derivation(Poly.one(), F(3), DISC2)  # mu = 3 != q = 2
    with pytest.raises(ClassificationError, match="coarseness"):
        classify_sigma_q(d)


def test_diagonal_matches_sigma_q_diagonal_pattern(rng):
    # f(h) x on the x side corresponds to the staircase pattern alpha_{m, m+1}
    for A in (DISC2, PLANE2):
        for _ in range(10):
            f = Poly([random_fraction(rng) for _ in range(4)])
            diag = diagonal_derivation(f, A.q, A)
            coords = _expand_in_stairs(f, A, 0)
            data = SigmaQData({(m, m + 1): c for m, c in coords.items()})
            built = build_sigma_q(data, A)
            assert (built.on_h, built.on_x, built.on_y) == (
                diag.on_h,
                diag.on_x,
                diag.on_y,
            )


# -- commutation identities ----------------------------------------------------------


@pytest.mark.parametrize("q", [F(2), F(3), F(-2), F(1, 2)])
def test_commutation_identities_hold(q):
    for n in range(1, 13):
        assert disc_commutation_identities(n, q)


def test_commutation_identity_negative_control():
    # perturbing the defining relation by +1 must fail
    A = GwaAlgebra.disc(2)
    x, y = A.x(), A.y()
    q = F(2)
    perturbed = x * y - q * (y * x) - (1 - q) * A.one() + A.one()
    assert not perturbed.is_zero()


# -- dimension counts ------------------------------------------------------------------


@pytest.mark.parametrize("bounds", [(1, 1), (2, 2), (1, 3), (3, 4), (4, 4)])
@pytest.mark.parametrize("label", ["disc", "plane"])
def test_sigma_q_dimension_matches_parameter_count(label, bounds):
    M, N = bounds
    A = GwaAlgebra.disc(2) if label == "disc" else GwaAlgebra.plane(2)
    assert sigma_q_dimension(A, M, N) == M * N + M + N + 2
