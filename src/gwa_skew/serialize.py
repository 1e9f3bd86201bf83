"""JSON wire formats with exact fraction strings.

Scalars are serialized as lowest-terms "num/den" strings (just "num" when
the denominator is 1), never floating point.  Emission uses lexicographic
key order and compact separators so identical values produce identical
bytes.  `SchemaError` marks malformed input distinctly from verification
failures.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .derivations import SkewDerivation, WeightData
from .disc_plane import SigmaQData
from .gwa import GwaAlgebra, GwaElement
from .ortho import OrthoCertificate
from .poly import AffineAuto, Poly


class SchemaError(ValueError):
    """The input document does not match the expected schema."""


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- scalars -----------------------------------------------------------------


def rat_to_json(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_json(doc) -> Fraction:
    if not isinstance(doc, str):
        raise SchemaError(f"expected a fraction string, got {doc!r}")
    try:
        return Fraction(doc)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad fraction {doc!r}: {exc}") from exc


# -- polynomials and automorphisms --------------------------------------------


def poly_to_json(p: Poly) -> list[str]:
    """Each coefficient num[i] / den in lowest terms, as `rat_to_json` formats it."""
    den = p.den
    return [
        str(c // g) if (g := math.gcd(c, den)) == den else f"{c // g}/{den // g}" for c in p.num
    ]


def poly_from_json(doc) -> Poly:
    if not isinstance(doc, list):
        raise SchemaError(f"expected a coefficient array, got {doc!r}")
    return Poly(rat_from_json(c) for c in doc)


def auto_to_json(phi: AffineAuto) -> dict:
    return {"u": rat_to_json(phi.u), "v": rat_to_json(phi.v)}


def auto_from_json(doc) -> AffineAuto:
    if not isinstance(doc, dict) or set(doc) - {"u", "v"}:
        raise SchemaError(f"expected {{u, v}}, got {doc!r}")
    try:
        return AffineAuto(rat_from_json(doc["u"]), rat_from_json(doc.get("v", "0")))
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad automorphism: {exc}") from exc


# -- algebras ------------------------------------------------------------------


def algebra_to_json(A: GwaAlgebra) -> dict:
    out = {"a": poly_to_json(A.a), "label": A.label, "phi": auto_to_json(A.phi)}
    if A.q is not None:
        out["q"] = rat_to_json(A.q)
    return out


def algebra_from_json(doc) -> GwaAlgebra:
    if not isinstance(doc, dict) or "label" not in doc:
        raise SchemaError("algebra document needs a label")
    label = doc["label"]
    if label in ("disc", "plane"):
        if "q" not in doc:
            raise SchemaError(f"preset {label!r} needs q")
        q = rat_from_json(doc["q"])
        try:
            A = GwaAlgebra.disc(q) if label == "disc" else GwaAlgebra.plane(q)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        if "a" in doc and poly_from_json(doc["a"]) != A.a:
            raise SchemaError(f"field a contradicts the {label} preset")
        if "phi" in doc and auto_from_json(doc["phi"]) != A.phi:
            raise SchemaError(f"field phi contradicts the {label} preset")
        return A
    if label != "custom":
        raise SchemaError(f"unknown label {label!r}")
    if "a" not in doc or "phi" not in doc:
        raise SchemaError("custom algebras need both a and phi")
    try:
        A = GwaAlgebra(poly_from_json(doc["a"]), auto_from_json(doc["phi"]))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if "q" in doc and rat_from_json(doc["q"]) != A.q:
        raise SchemaError("field q contradicts phi")
    return A


# -- elements -------------------------------------------------------------------


def element_to_json(e: GwaElement) -> dict:
    return {
        "terms": [
            {"deg": k, "poly": poly_to_json(e.terms[k])} for k in e.degrees()
        ]
    }


def element_from_json(doc, A: GwaAlgebra) -> GwaElement:
    if not isinstance(doc, dict) or "terms" not in doc or not isinstance(doc["terms"], list):
        raise SchemaError(f"expected {{terms: [...]}}, got {doc!r}")
    terms: dict[int, Poly] = {}
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or "deg" not in entry or "poly" not in entry:
            raise SchemaError(f"bad term entry {entry!r}")
        deg = entry["deg"]
        if not isinstance(deg, int):
            raise SchemaError(f"term degree must be an integer, got {deg!r}")
        p = poly_from_json(entry["poly"])
        if deg in terms:
            raise SchemaError(f"duplicate degree {deg}")
        terms[deg] = p
    return A.element(terms)


# -- derivations -----------------------------------------------------------------


def derivation_to_json(d: SkewDerivation) -> dict:
    return {
        "mu": rat_to_json(d.mu),
        "on_h": element_to_json(d.on_h),
        "on_x": element_to_json(d.on_x),
        "on_y": element_to_json(d.on_y),
        "verified": d.verified,
    }


def derivation_from_json(doc, A: GwaAlgebra) -> SkewDerivation:
    if not isinstance(doc, dict):
        raise SchemaError("derivation document must be an object")
    for key in ("mu", "on_h", "on_x", "on_y"):
        if key not in doc:
            raise SchemaError(f"derivation document is missing {key!r}")
    return SkewDerivation(
        rat_from_json(doc["mu"]),
        element_from_json(doc["on_h"], A),
        element_from_json(doc["on_x"], A),
        element_from_json(doc["on_y"], A),
        verified=False,
    )


def weight_data_to_json(data: WeightData) -> dict:
    return {
        "alphas": [
            {"on_h": poly_to_json(p), "weight": w}
            for w, p in sorted(data.alphas.items())
        ],
        "b": poly_to_json(data.b),
        "c": poly_to_json(data.c),
        "mu": rat_to_json(data.mu),
    }


def weight_data_from_json(doc) -> WeightData:
    if not isinstance(doc, dict) or "mu" not in doc:
        raise SchemaError("weight data needs mu")
    alphas: dict[int, Poly] = {}
    for entry in doc.get("alphas", []):
        if not isinstance(entry, dict) or "weight" not in entry or "on_h" not in entry:
            raise SchemaError(f"bad alpha entry {entry!r}")
        w = entry["weight"]
        if not isinstance(w, int):
            raise SchemaError(f"weight must be an integer, got {w!r}")
        if w in alphas:
            raise SchemaError(f"duplicate weight {w}")
        alphas[w] = poly_from_json(entry["on_h"])
    return WeightData(
        rat_from_json(doc["mu"]),
        alphas,
        poly_from_json(doc.get("b", [])),
        poly_from_json(doc.get("c", [])),
    )


def sigma_q_data_to_json(data: SigmaQData) -> dict:
    return {
        "M": data.M,
        "N": data.N,
        "alpha": [
            {"m": m, "n": n, "value": rat_to_json(c)}
            for (m, n), c in sorted(data.alpha.items())
        ],
        "f": [rat_to_json(c) for c in data.f],
        "g": [rat_to_json(c) for c in data.g],
    }


def sigma_q_data_from_json(doc) -> SigmaQData:
    if not isinstance(doc, dict):
        raise SchemaError("sigma-q data must be an object")
    alpha: dict[tuple[int, int], Fraction] = {}
    for entry in doc.get("alpha", []):
        if not isinstance(entry, dict) or not {"m", "n", "value"} <= set(entry):
            raise SchemaError(f"bad alpha entry {entry!r}")
        m, n = entry["m"], entry["n"]
        if not isinstance(m, int) or not isinstance(n, int):
            raise SchemaError("alpha indices must be integers")
        if (m, n) in alpha:
            raise SchemaError(f"duplicate alpha index ({m}, {n})")
        alpha[(m, n)] = rat_from_json(entry["value"])
    try:
        data = SigmaQData(
            alpha,
            tuple(rat_from_json(c) for c in doc.get("f", [])),
            tuple(rat_from_json(c) for c in doc.get("g", [])),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    for key, bound in (("M", data.M), ("N", data.N)):
        if key in doc and (not isinstance(doc[key], int) or doc[key] < bound):
            raise SchemaError(f"declared {key} = {doc[key]} is below the required {bound}")
    return data


# -- certificates -------------------------------------------------------------------


def certificate_to_json(cert: OrthoCertificate) -> dict:
    return {
        "entries": [
            {
                "index": i + 1,
                "pairs": [
                    {"a": element_to_json(a), "b": element_to_json(b)}
                    for a, b in row
                ],
            }
            for i, row in enumerate(cert.rows)
        ]
    }


def certificate_from_json(doc, A: GwaAlgebra) -> OrthoCertificate:
    if not isinstance(doc, dict) or "entries" not in doc:
        raise SchemaError("certificate document needs entries")
    indexed: dict[int, tuple] = {}
    for entry in doc["entries"]:
        if not isinstance(entry, dict) or "index" not in entry or "pairs" not in entry:
            raise SchemaError(f"bad certificate entry {entry!r}")
        idx = entry["index"]
        if not isinstance(idx, int) or idx < 1 or idx in indexed:
            raise SchemaError(f"bad certificate row index {idx!r}")
        pairs = []
        for pair in entry["pairs"]:
            if not isinstance(pair, dict) or "a" not in pair or "b" not in pair:
                raise SchemaError(f"bad certificate pair {pair!r}")
            pairs.append(
                (element_from_json(pair["a"], A), element_from_json(pair["b"], A))
            )
        indexed[idx] = tuple(pairs)
    if sorted(indexed) != list(range(1, len(indexed) + 1)):
        raise SchemaError("certificate row indices must be 1..n")
    return OrthoCertificate(tuple(indexed[i] for i in sorted(indexed)))
