"""Round trips through every `*_to_json` / `*_from_json` pair of the wire format."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from conftest import random_element, random_fraction, random_poly, random_weight_data

from gwa_skew import serialize as ser
from gwa_skew.disc_plane import SigmaQData
from gwa_skew.gwa import GwaAlgebra
from gwa_skew.ortho import OrthoCertificate
from gwa_skew.poly import AffineAuto, Poly

ALGEBRAS = [
    GwaAlgebra.disc(Fraction(2)),
    GwaAlgebra.plane(Fraction(-3, 2)),
    GwaAlgebra(Poly([1, 2, 1]), AffineAuto(Fraction(3, 2), Fraction(1))),
    GwaAlgebra(Poly([2, 0, -1]), AffineAuto(Fraction(-2, 3), Fraction(0))),
]
ALGEBRA_IDS = ["disc", "plane", "custom-shift", "custom-scaling"]


def round_trip(to_json, from_json, value, *context):
    """from_json(to_json(value)) == value, and the document survives
    a pass through JSON text and back unchanged."""
    doc = to_json(value)
    text = ser.dumps(doc)
    back = from_json(json.loads(text), *context)
    assert ser.dumps(to_json(back)) == text
    return back


@pytest.mark.parametrize("x", [Fraction(0), Fraction(-7), Fraction(3, 4), Fraction(-10**30, 7)])
def test_rat_round_trip(x):
    assert round_trip(ser.rat_to_json, ser.rat_from_json, x) == x


def test_poly_and_auto_round_trip(rng):
    for _ in range(50):
        p = random_poly(rng, 6)
        assert round_trip(ser.poly_to_json, ser.poly_from_json, p) == p
        phi = AffineAuto(random_fraction(rng, nonzero=True), random_fraction(rng))
        assert round_trip(ser.auto_to_json, ser.auto_from_json, phi) == phi


def test_poly_to_json_formats_each_coefficient_in_lowest_terms(rng):
    # a round trip cannot see an unreduced "2/4", so compare with Fraction's reduction
    for _ in range(200):
        bound = 10 ** rng.choice([1, 3, 30])
        num = [rng.randint(-bound, bound) for _ in range(rng.randint(0, 6))]
        p = Poly(num) * Fraction(1, rng.randint(1, bound))
        assert ser.poly_to_json(p) == [ser.rat_to_json(Fraction(c, p.den)) for c in p.num]


@pytest.mark.parametrize("A", ALGEBRAS, ids=ALGEBRA_IDS)
def test_algebra_round_trip(A):
    assert round_trip(ser.algebra_to_json, ser.algebra_from_json, A) == A


@pytest.mark.parametrize(
    "label, field, value",
    [
        ("disc", "a", ["0", "1"]),
        ("disc", "phi", {"u": "3"}),
        ("plane", "a", ["1", "-1"]),
        ("plane", "phi", {"u": "2", "v": "1"}),
    ],
    ids=["disc-a", "disc-phi", "plane-a", "plane-phi"],
)
def test_preset_rejects_a_or_phi_contradicting_it(label, field, value):
    doc = {"label": label, "q": "2", field: value}
    with pytest.raises(ser.SchemaError, match=f"field {field} contradicts the {label} preset"):
        ser.algebra_from_json(doc)


@pytest.mark.parametrize(
    "phi, q", [({"u": "2"}, "3"), ({"u": "2", "v": "1"}, "2")], ids=["other-q", "shift"]
)
def test_custom_algebra_rejects_a_q_contradicting_phi(phi, q):
    # the presets reject a contradicting a or phi; a custom q is checked the same way
    doc = {"label": "custom", "a": ["1", "1"], "phi": phi, "q": q}
    with pytest.raises(ser.SchemaError, match="q contradicts phi"):
        ser.algebra_from_json(doc)


@pytest.mark.parametrize("A", ALGEBRAS, ids=ALGEBRA_IDS)
def test_element_round_trip(A, rng):
    for _ in range(30):
        e = random_element(rng, A)
        assert round_trip(ser.element_to_json, ser.element_from_json, e, A) == e


@pytest.mark.parametrize("A", ALGEBRAS, ids=ALGEBRA_IDS)
def test_derivation_round_trip_drops_the_verified_flag(A, rng):
    from gwa_skew.derivations import SkewDerivation

    for verified in (False, True):
        d = SkewDerivation(
            random_fraction(rng, nonzero=True),
            random_element(rng, A),
            random_element(rng, A),
            random_element(rng, A),
            verified=verified,
        )
        doc = ser.derivation_to_json(d)
        assert doc["verified"] is verified
        # A document never vouches for itself: parsing always yields an
        # unverified candidate for the relation check.
        back = ser.derivation_from_json(json.loads(ser.dumps(doc)), A)
        assert back == SkewDerivation(d.mu, d.on_h, d.on_x, d.on_y)


def test_weight_data_round_trip(rng):
    q = Fraction(2)
    A = GwaAlgebra.disc(q)
    for _ in range(30):
        data = random_weight_data(rng, A, q)
        assert round_trip(ser.weight_data_to_json, ser.weight_data_from_json, data) == data


def test_sigma_q_data_round_trip(rng):
    for _ in range(30):
        alpha = {
            (rng.randint(0, 3), rng.randint(1, 3)): random_fraction(rng)
            for _ in range(rng.randint(0, 4))
        }
        f = tuple(random_fraction(rng) for _ in range(rng.randint(0, 3)))
        g = tuple(random_fraction(rng) for _ in range(rng.randint(0, 3)))
        data = SigmaQData(alpha, f, g)
        assert round_trip(ser.sigma_q_data_to_json, ser.sigma_q_data_from_json, data) == data


@pytest.mark.parametrize("A", ALGEBRAS, ids=ALGEBRA_IDS)
def test_certificate_round_trip(A, rng):
    for _ in range(10):
        rows = tuple(
            tuple((random_element(rng, A), random_element(rng, A)) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 3))
        )
        cert = OrthoCertificate(rows)
        assert round_trip(ser.certificate_to_json, ser.certificate_from_json, cert, A) == cert


Y = {"terms": [{"deg": -1, "poly": ["1"]}]}
MALFORMED = [
    (ser.element_from_json, {"terms": [5]}, "bad term entry"),
    (ser.element_from_json, {"terms": [{"deg": 1}]}, "bad term entry"),
    (ser.element_from_json, {}, "expected {terms"),
    (ser.certificate_from_json, {"entries": [5]}, "bad certificate entry"),
    (ser.certificate_from_json, {"entries": [{"index": 1}]}, "bad certificate entry"),
    (ser.certificate_from_json, {"entries": [{"index": 0, "pairs": []}]}, "row index 0"),
    (
        ser.certificate_from_json,
        {"entries": [{"index": 1, "pairs": []}, {"index": 1, "pairs": []}]},
        "row index 1",
    ),
    (ser.certificate_from_json, {"entries": [{"index": 1, "pairs": [5]}]}, "bad certificate pair"),
    (
        ser.certificate_from_json,
        {"entries": [{"index": 1, "pairs": [{"a": Y}]}]},
        "bad certificate pair",
    ),
    (ser.rat_from_json, 5, "expected a fraction string, got 5"),
    (ser.rat_from_json, "abc", "bad fraction 'abc'"),
    (ser.poly_from_json, "1", "expected a coefficient array, got '1'"),
    (ser.auto_from_json, {"u": "2", "w": "1"}, "expected {u, v}, got {'u': '2', 'w': '1'}"),
    (ser.auto_from_json, {"u": "0"}, "bad automorphism: affine automorphism needs u != 0"),
    (ser.algebra_from_json, {"q": "2"}, "algebra document needs a label"),
    (ser.algebra_from_json, {"label": "disc"}, "preset 'disc' needs q"),
    (ser.algebra_from_json, {"label": "plane", "q": "-1"}, "plane requires q not in {0, 1, -1}"),
    (ser.algebra_from_json, {"label": "torus"}, "unknown label 'torus'"),
    (ser.algebra_from_json, {"label": "custom", "a": ["1"]}, "custom algebras need both a and phi"),
    (
        ser.algebra_from_json,
        {"label": "custom", "a": [], "phi": {"u": "2"}},
        "central element a must be nonzero",
    ),
    (
        ser.element_from_json,
        {"terms": [{"deg": "1", "poly": ["1"]}]},
        "term degree must be an integer, got '1'",
    ),
    (
        ser.element_from_json,
        {"terms": [{"deg": 1, "poly": ["1"]}, {"deg": 1, "poly": ["2"]}]},
        "duplicate degree 1",
    ),
    (ser.derivation_from_json, [Y], "derivation document must be an object"),
    (
        ser.derivation_from_json,
        {"mu": "2", "on_h": Y, "on_x": Y},
        "derivation document is missing 'on_y'",
    ),
    (ser.weight_data_from_json, {"alphas": []}, "weight data needs mu"),
    (ser.weight_data_from_json, {"mu": "2", "alphas": [5]}, "bad alpha entry 5"),
    (
        ser.weight_data_from_json,
        {"mu": "2", "alphas": [{"weight": "1", "on_h": ["1"]}]},
        "weight must be an integer, got '1'",
    ),
    (
        ser.weight_data_from_json,
        {"mu": "2", "alphas": [{"weight": 1, "on_h": ["1"]}, {"weight": 1, "on_h": ["2"]}]},
        "duplicate weight 1",
    ),
    (ser.sigma_q_data_from_json, ["1"], "sigma-q data must be an object"),
    (ser.sigma_q_data_from_json, {"alpha": [{"m": 0, "n": 1}]}, "bad alpha entry {'m': 0, 'n': 1}"),
    (
        ser.sigma_q_data_from_json,
        {"alpha": [{"m": "0", "n": 1, "value": "1"}]},
        "alpha indices must be integers",
    ),
    (
        ser.sigma_q_data_from_json,
        {"alpha": [{"m": 0, "n": 1, "value": "1"}, {"m": 0, "n": 1, "value": "2"}]},
        "duplicate alpha index (0, 1)",
    ),
    (
        ser.sigma_q_data_from_json,
        {"alpha": [{"m": -1, "n": 1, "value": "1"}]},
        "alpha index (-1, 1) out of range",
    ),
    (
        ser.sigma_q_data_from_json,
        {"alpha": [{"m": 0, "n": 2, "value": "1"}], "N": 1},
        "declared N = 1 is below the required 2",
    ),
    (ser.certificate_from_json, {"rows": []}, "certificate document needs entries"),
    (
        ser.certificate_from_json,
        {"entries": [{"index": 2, "pairs": []}]},
        "certificate row indices must be 1..n",
    ),
]
# the parsers of documents that hold elements read them in a given algebra
TAKES_ALGEBRA = {ser.element_from_json, ser.derivation_from_json, ser.certificate_from_json}


@pytest.mark.parametrize(
    "parse, doc, message",
    MALFORMED,
    ids=[
        "term-not-object", "term-without-poly", "element-without-terms", "entry-not-object",
        "entry-without-pairs", "index-zero", "index-duplicate", "pair-not-object", "pair-without-b",
        "fraction-not-string", "fraction-bad-string", "poly-not-array", "auto-unknown-key",
        "auto-u-zero", "algebra-without-label", "preset-without-q", "preset-q-unit",
        "label-unknown", "custom-without-phi", "custom-a-zero", "term-degree-not-int",
        "term-degree-duplicate", "derivation-not-object", "derivation-without-on-y",
        "weights-without-mu", "weight-entry-not-object", "weight-not-int", "weight-duplicate",
        "sigma-q-not-object", "sigma-q-entry-without-value", "sigma-q-index-not-int",
        "sigma-q-index-duplicate", "sigma-q-index-negative", "sigma-q-declared-N-too-small",
        "certificate-without-entries", "certificate-indices-not-1-to-n",
    ],
)
def test_malformed_document_raises_schema_error(parse, doc, message):
    # each check must fire on its own: one failing condition is enough
    context = (ALGEBRAS[0],) if parse in TAKES_ALGEBRA else ()
    with pytest.raises(ser.SchemaError, match=re.escape(message)):
        parse(doc, *context)
