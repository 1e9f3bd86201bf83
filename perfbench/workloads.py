"""Seeded request streams for the three workloads, with their answer checks.

A request is one in-process call of `gwa_skew.cli.run(argv)` (its --input
document travels as stdin text) or, for the one entry point without a
subcommand, a direct `sigma_q_dimension(A, M, N)` call.  Each request
carries a check that judges the host's result against an answer known by
construction or computed with `ref`, which shares no code with the library.

Every stream is an endless sequence of rounds.  A round has a fixed
composition (request kinds, size classes, algebras) and seeded contents,
shuffled into a seeded order, so two seeds load the library alike.  A
timed pass ends on a round boundary, so every run sees whole rounds.
Certificate sessions send `ortho-verify` on the certificate their own
`ortho-build` returned: the stream reads `request.result` of the build
before it yields the verify.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import ref
from ref import Algebra, Derivation, ONE, elem_doc, poly_doc, rat

F = Fraction

# The algebras every run shares.  They are fixed, whatever the seed, so
# that seeds vary the contents and order of requests but not the cost of
# the arithmetic beneath them; rounds rotate through them in a fixed order.
DISC = Algebra.disc(F(-3, 2))
PLANE = Algebra.plane(F(2))
SCALING = [  # custom a of degree 2-4, phi: h -> u h
    Algebra((F(2), F(-1), F(1)), F(-2, 3)),
    Algebra((F(1), F(3, 2), F(0), F(-1)), F(2)),
    Algebra((F(3), F(1), F(-2), F(1, 2), F(1)), F(-3, 2)),
]
SHIFTED = [  # custom a of degree 2-4, phi: h -> u h + v with v != 0
    Algebra((F(1), F(1), F(2)), F(3, 2), F(1)),
    Algebra((F(-2), F(1), F(1, 3), F(1)), F(-2), F(1, 2)),
    Algebra((F(1), F(-1), F(0), F(2), F(1)), F(1, 2), F(-1)),
]
NON_COPRIME = [  # a(0) = 0 and phi fixes 0
    Algebra((F(0), F(1), F(1)), F(-2)),
    Algebra((F(0), F(2), F(0), F(1)), F(3, 2)),
]


@dataclass
class Request:
    kind: str
    payload: dict
    check: Callable[[dict], str | None]
    defect: str | None = None
    result: dict | None = None
    round: int = 0


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- checks ------------------------------------------------------------------------


def expect(code: int, judge: Callable[[object], str | None] | None = None):
    """A check: the exit code, JSON on stdout, then `judge` on the document."""

    def check(res: dict) -> str | None:
        if res["exc"] is not None:
            return f"uncaught {res['exc']}"
        if res["code"] != code:
            return f"exit {res['code']}, expected {code}"
        try:
            doc = json.loads(res["out"])
        except ValueError:
            return "stdout is not one JSON document"
        return judge(doc) if judge is not None else None

    return check


def expect_exit(code_for: Callable[[], int], judge_ok, judge_fail):
    """A check whose exit code is decided by the reference at check time."""

    def check(res: dict) -> str | None:
        code = code_for()
        return expect(code, judge_ok if code == 0 else judge_fail)(res)

    return check


def equals(expected: Callable[[], object], parse=lambda doc: doc):
    def judge(doc) -> str | None:
        try:
            got = parse(doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed answer: {exc!r}"
        return None if got == expected() else "wrong answer"

    return judge


def error_kind(*kinds: str):
    def judge(doc) -> str | None:
        if not isinstance(doc, dict) or not isinstance(doc.get("error"), dict):
            return "no error object"
        return None if doc["error"].get("kind") in kinds else f"error kind {doc['error'].get('kind')!r}"

    return judge


def has_false(key: str):
    return lambda doc: None if isinstance(doc, dict) and doc.get(key) is False else f"{key} is not false"


def derivation_parser(A: Algebra):
    def parse(doc):
        if doc.get("verified") is not True:
            raise ValueError("derivation is not marked verified")
        d = ref.parse_derivation(A, doc)
        return (d.mu, d.on_h, d.on_x, d.on_y)

    return parse


def as_tuple(d: Derivation):
    return (d.mu, d.on_h, d.on_x, d.on_y)


# Known defects: today's behaviour on inputs the contract says to refuse
# with exit 2.  A probe tagged with one is still judged by the contract; a
# result that matches the defect's signature counts as that defect, and any
# other wrong result counts as an unexpected failure.
DEFECTS = {
    "type-error-escapes": lambda res: (res["exc"] or "").startswith("TypeError"),
    "bool-taken-as-int": lambda res: res["exc"] is None and res["code"] in (0, 1),
    "non-array-iterated": lambda res: res["exc"] is None and res["code"] in (0, 1),
}


def outcome(req: Request) -> tuple[str, str | None]:
    """('ok' | 'known-defect' | 'failed', reason)."""
    reason = req.check(req.result)
    if reason is None:
        return "ok", None
    if req.defect is not None and DEFECTS[req.defect](req.result):
        return "known-defect", f"{req.defect}: {reason}"
    return "failed", reason


# -- random data ------------------------------------------------------------------


def rand_rat(rng: random.Random, nonzero: bool = True, num: int = 9, den: int = 6) -> Fraction:
    while True:
        x = F(rng.randint(-num, num), rng.randint(1, den))
        if x or not nonzero:
            return x


def rand_poly(rng: random.Random, degree: int) -> tuple:
    """A polynomial of exact degree `degree`."""
    return tuple(rand_rat(rng, nonzero=False) for _ in range(degree)) + (rand_rat(rng),)


def rand_element(rng: random.Random, nterms: int, degree: int, spread: int) -> dict:
    degs = rng.sample(range(-spread, spread + 1), nterms)
    return {k: rand_poly(rng, degree) for k in degs}


def alg_args(A: Algebra) -> list[str]:
    if A.label in ("disc", "plane"):
        return [f"--algebra={A.label}", f"--q={rat(A.q)}"]
    return ["--algebra=custom", "--algebra-json=" + dumps(ref.algebra_doc(A))]


def cli(kind: str, argv: list[str], check, doc=None, defect=None) -> Request:
    stdin = ""
    if doc is not None:
        argv = argv + ["--input=-"]
        stdin = doc if isinstance(doc, str) else dumps(doc)
    return Request(kind, {"argv": argv, "stdin": stdin}, check, defect)


class Distinct:
    """Drops any request whose payload was already sent in this run."""

    def __init__(self):
        self.seen: set[str] = set()

    def __call__(self, reqs: Iterator[Request]) -> Iterator[Request]:
        for req in reqs:
            key = dumps(req.payload)
            if key not in self.seen:
                self.seen.add(key)
                yield req


# -- products ------------------------------------------------------------------------

# (terms of lhs, terms of rhs, coefficient degree, spread of x/y degrees).
# The classes sit on both sides of any schoolbook/Kronecker crossover in
# Poly.mul: many short coefficients, few long ones, and the middle.
PRODUCT_CLASSES = [
    (3, 3, 40, 4),
    (3, 5, 24, 4),
    (21, 21, 2, 10),
    (13, 13, 4, 8),
    (7, 7, 10, 6),
    (5, 9, 16, 6),
    (9, 3, 30, 5),
    (3, 3, 2, 3),
    (5, 5, 6, 4),
]


def products(seed: int) -> Iterator[Request]:
    """Each round sends every size class once; class c of round r goes to
    algebra (c + r) mod 4, so every four rounds cover every pairing."""
    rng = random.Random(f"products:{seed}")
    algebras = [DISC, PLANE, SCALING[0], SHIFTED[0]]

    def rounds():
        r = 0
        while True:
            batch = []
            for c, (nl, nr, degree, spread) in enumerate(PRODUCT_CLASSES):
                A = algebras[(c + r) % len(algebras)]
                batch.append(mul_request(rng, A, nl, nr, degree, spread))
            batch.append(lemma52_request(rng))
            rng.shuffle(batch)
            for req in batch:
                req.round = r
                yield req
            r += 1

    return Distinct()(rounds())


def mul_request(rng, A: Algebra, nl: int, nr: int, degree: int, spread: int) -> Request:
    e1 = rand_element(rng, nl, degree, spread)
    e2 = rand_element(rng, nr, degree, spread)
    argv = ["mul", *alg_args(A), "--lhs=" + dumps(elem_doc(e1)), "--rhs=" + dumps(elem_doc(e2))]
    return cli("mul", argv, expect(0, equals(lambda: ref.emul(A, e1, e2), ref.parse_elem)))


def lemma52_request(rng) -> Request:
    # The identities hold for every q outside {0, 1, -1}.
    q = rand_rat(rng, num=7, den=5)
    while q in (1, -1):
        q = rand_rat(rng, num=7, den=5)
    argv = ["lemma52", f"--q={rat(q)}", f"--n={rng.randint(2, 14)}"]
    return cli("lemma52", argv, expect(0, equals(lambda: {"ok": True})))


# -- certify ------------------------------------------------------------------------


def certify(seed: int) -> Iterator[Request]:
    rng = random.Random(f"certify:{seed}")

    def rounds():
        r = 0
        while True:
            cycle = lambda algebras, shift=0: algebras[(r + shift) % len(algebras)]
            sessions = [
                weighted_session(rng, DISC, positive=True),
                weighted_session(rng, PLANE, positive=True),
                weighted_session(rng, DISC, positive=False),
                weighted_session(rng, PLANE, positive=False),
                weighted_session(rng, cycle(SCALING), positive=True),
                weighted_session(rng, cycle(SCALING, 1), positive=False),
                weighted_session(rng, cycle(SHIFTED), positive=True),
                sigma_q_session(rng, DISC),
                sigma_q_session(rng, PLANE),
                disc_pair_session(rng, DISC),
                disc_pair_session(rng, DISC),
                elementary_pair_session(rng, cycle(SCALING)),
                elementary_pair_session(rng, cycle(SHIFTED)),
                elementary_pair_session(rng, cycle(SHIFTED, 1)),
                non_coprime_session(rng, cycle(NON_COPRIME)),
            ]
            for i in range(MALFORMED_PER_ROUND):
                sessions.append(iter([malformed_request(rng, r * MALFORMED_PER_ROUND + i, DISC)]))
            rng.shuffle(sessions)
            for session in sessions:
                for req in session:
                    req.round = r
                    yield req
            r += 1

    return Distinct()(rounds())


def weighted_data(rng, A: Algebra, positive: bool):
    """Admissible weighted data: alpha_i(h) = c_i h^e with mu = u^(1-e).

    A shifting phi admits only e = 0.  Positive data (weights > 0, b = c = 0)
    is what `classify --mode positive` inverts.
    """
    e = 0 if A.v else rng.randint(0, 2)
    mu = A.u ** (1 - e)
    weights = [1, 2, 3] if positive else [-2, -1, 1, 2]
    chosen = rng.sample(weights, rng.randint(1, 2))
    if not positive and all(w > 0 for w in chosen):
        chosen[0] = -chosen[0]
    alphas = {w: (F(0),) * e + (rand_rat(rng),) for w in chosen}
    b = () if positive else rand_poly(rng, rng.randint(0, 2))
    c = () if positive else rand_poly(rng, rng.randint(0, 2))
    return mu, alphas, b, c


def weight_doc(mu, alphas, b, c) -> dict:
    return {
        "alphas": [{"on_h": poly_doc(p), "weight": w} for w, p in sorted(alphas.items())],
        "b": poly_doc(b),
        "c": poly_doc(c),
        "mu": rat(mu),
    }


def weighted_session(rng, A: Algebra, positive: bool) -> Iterator[Request]:
    mu, alphas, b, c = weighted_data(rng, A, positive)
    d = ref.weighted(A, mu, alphas, b, c)
    args = alg_args(A)
    yield cli(
        "build-derivation",
        ["build-derivation", *args],
        expect(0, equals(lambda: as_tuple(d), derivation_parser(A))),
        weight_doc(mu, alphas, b, c),
    )
    # The same data under a coarseness the twist condition rejects.
    bad_mu = mu * 2
    yield cli(
        "build-derivation",
        ["build-derivation", *args],
        expect_exit(
            lambda: 0 if all(ref.twist_ok(A, w, p, bad_mu) for w, p in alphas.items()) else 1,
            None,
            error_kind("condition"),
        ),
        weight_doc(bad_mu, alphas, b, c),
    )
    doc = ref.derivation_doc(d)
    yield cli("check-derivation", ["check-derivation", *args], expect(0, equals(lambda: {"verified": True})), doc)
    tampered = Derivation(A, mu, d.on_h, d.on_x, ref.eadd(d.on_y, {-1: ONE}))
    yield cli(
        "check-derivation",
        ["check-derivation", *args],
        expect_exit(lambda: 0 if tampered.is_valid() else 1, None, has_false("verified")),
        ref.derivation_doc(tampered),
    )
    if positive:
        expected = weight_doc(mu, alphas, (), ())
        yield cli(
            "classify",
            ["classify", *args, "--mode=positive"],
            expect(0, equals(lambda: expected)),
            doc,
        )
    else:
        # d(h) has a negative-degree term, so it is not of the positive form.
        yield cli(
            "classify",
            ["classify", *args, "--mode=positive"],
            expect(1, error_kind("not-of-this-form")),
            doc,
        )
    yield cli("q-check", ["q-check", *args], expect(0, equals(lambda: expected_q_check(d))), doc)
    w = rng.randint(1, 2) if A.label == "plane" else 0
    k = rng.randint(-2, 2)
    yield cli(
        "degree-profile",
        ["degree-profile", *args, f"--w={w}", f"--k={k}"],
        expect(0, equals(lambda: {"degree": expected_degree(d, w, k)})),
        doc,
    )


def expected_q_check(d: Derivation) -> dict:
    """sigma d sigma^{-1} scales the degree-k term of d(g) by mu^(-k) times
    1, mu, 1/mu for g = h, x, y; Q exists when all those factors agree."""
    mu = d.mu
    factors = set()
    for value, extra in ((d.on_h, 1), (d.on_x, mu), (d.on_y, 1 / mu)):
        factors.update(extra * mu ** (-k) for k in value)
    if len(factors) > 1:
        return {"is_q_derivation": False}
    return {"is_q_derivation": True, "Q": rat(factors.pop() if factors else F(1))}


def expected_degree(d: Derivation, w: int, k: int):
    """Common shift deg d(g) - deg g under deg h = w, deg x = k, deg y = w*deg(a) - k."""
    total = w * (len(d.A.a) - 1) if w else 0
    shifts = set()
    for value, gen_deg in ((d.on_h, w), (d.on_x, k), (d.on_y, total - k)):
        if not value:
            continue
        deg = ref.graded_degree(total, k, w, value)
        if deg == "inhomogeneous":
            return deg
        shifts.add(deg - gen_deg)
    if len(shifts) > 1:
        return "inhomogeneous"
    return shifts.pop() if shifts else 0


def sigma_q_session(rng, A: Algebra) -> Iterator[Request]:
    alpha = {}
    for _ in range(rng.randint(2, 4)):
        alpha[(rng.randint(0, 3), rng.randint(1, 3))] = rand_rat(rng)
    f = rand_poly(rng, rng.randint(0, 2))
    g = rand_poly(rng, rng.randint(0, 2))
    args = alg_args(A)
    data = {
        "alpha": [{"m": m, "n": n, "value": rat(c)} for (m, n), c in sorted(alpha.items())],
        "f": poly_doc(f),
        "g": poly_doc(g),
    }
    d = ref.sigma_q_derivation(A, alpha, f, g)
    yield cli(
        "build-sigma-q",
        ["build-sigma-q", *args],
        expect(0, equals(lambda: as_tuple(d), derivation_parser(A))),
        data,
    )
    expected = dict(
        data,
        M=max([m + 1 for m, _ in alpha] + [max(len(g) - 1, 0)]),
        N=max([n for _, n in alpha] + [max(len(f) - 1, 0)]),
    )
    yield cli(
        "classify",
        ["classify", *args, "--mode=sigma-q"],
        expect(0, equals(lambda: expected)),
        ref.derivation_doc(d),
    )
    # A weight-one piece of coarseness q^-1 is not a coarseness-q derivation.
    other = ref.weighted(A, 1 / A.q, {1: (F(0), F(0), rand_rat(rng))})
    yield cli(
        "classify",
        ["classify", *args, "--mode=sigma-q"],
        expect(1, error_kind("not-of-this-form")),
        ref.derivation_doc(other),
    )


def certificate_session(A: Algebra, system: list[Derivation], refused_gcd: tuple | None = None) -> Iterator[Request]:
    """ortho-build, then ortho-verify on the returned certificate and on a
    tampered copy of it.  A build must return a certificate that substitutes
    back or, when refused_gcd is given, exit 1 and report that gcd.  Each
    verify is judged by the reference's own verdict on the certificate sent."""
    args = alg_args(A)
    derivs = [ref.derivation_doc(d) for d in system]
    b_list = [elem_doc(A.y()), elem_doc(A.x())]

    def valid(doc) -> str | None:
        try:
            rows = parse_certificate(A, doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed certificate: {exc!r}"
        return None if ref.certificate_ok(A, rows, system) else "certificate does not verify"

    def reports_gcd(doc) -> str | None:
        reason = error_kind("certificate")(doc)
        if reason is not None:
            return reason
        return None if ref.parse_poly(doc["error"].get("gcd", [])) == refused_gcd else "wrong gcd"

    check = expect(0, valid) if refused_gcd is None else expect(1, reports_gcd)
    build = cli("ortho-build", ["ortho-build", *args], check, {"b_list": b_list, "derivations": derivs})
    yield build
    res = build.result
    if res is None or res["exc"] is not None or res["code"] != 0:
        return
    try:
        cert = json.loads(res["out"])
        tampered = json.loads(res["out"])
        first = tampered["entries"][0]["pairs"][0]
        first["a"] = elem_doc(ref.escale(ref.parse_elem(first["a"]), 2))
    except (KeyError, IndexError, TypeError, ValueError):
        return  # the build's own check reports the malformed answer
    for doc in (cert, tampered):
        yield cli(
            "ortho-verify",
            ["ortho-verify", *args],
            verify_check(A, system, doc),
            {"certificate": doc, "derivations": derivs},
        )


def verify_check(A: Algebra, system, cert_doc):
    def code() -> int:
        try:
            rows = parse_certificate(A, cert_doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return 2
        return 0 if ref.certificate_ok(A, rows, system) else 1

    return expect_exit(code, equals(lambda: {"ok": True}), has_false("ok"))


def parse_certificate(A: Algebra, doc) -> list:
    rows = sorted(doc["entries"], key=lambda entry: entry["index"])
    return [
        [(ref.parse_elem(p["a"]), ref.parse_elem(p["b"])) for p in entry["pairs"]]
        for entry in rows
    ]


def landed_gcds(A: Algebra, d: Derivation, dbar: Derivation) -> list[tuple]:
    """gcds of the two landed polynomials of each pure row (b_list = y, x).

    Row one flanks v = d(y) = p x^e by y^e on either side, row two flanks
    v = dbar(x) = p y^e by x^e; a row is buildable iff its gcd is 1.
    """
    out = []
    for value, flank in ((d.on_y, A.y), (dbar.on_x, A.x)):
        ((deg, _),) = value.items()
        f = flank(abs(deg))
        left = ref.emul(A, f, value).get(0, ())
        right = ref.emul(A, value, f).get(0, ())
        out.append(ref.pgcd(left, right))
    return out


def disc_pair_session(rng, A: Algebra) -> Iterator[Request]:
    """The coarseness-q disc pair (m, n), which has a certificate whenever
    no exceptional exponent occurs."""
    q = A.q
    while True:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        if ref.pair_conditions_ok(m, n, q):
            break
    c, cbar = rand_rat(rng), rand_rat(rng)
    d = ref.from_xy(A, q, {n: (c,)}, {n - 2: ref.pscale((F(1), F(-1)), -q * ref.q_int(n, q) * c)})
    dbar = ref.from_xy(
        A,
        q,
        {-(m - 2): ref.pscale((F(1), -(q ** (2 - m))), -ref.q_int(m, q) * cbar / q)},
        {-m: (cbar,)},
    )
    yield from certificate_session(A, [d, dbar])


def elementary_pair(rng, A: Algebra):
    """Weight m+1 and -(n+1) pieces with constant alpha, m, n in {1, 2};
    mu = u is the coarseness constant alphas admit.  Both pieces are single
    terms on their designated generators, so both rows take the pure route."""
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    d = ref.weighted(A, A.u, {m + 1: (rand_rat(rng),)})
    dbar = ref.weighted(A, A.u, {-(n + 1): (rand_rat(rng),)})
    return d, dbar, landed_gcds(A, d, dbar)


def elementary_pair_session(rng, A: Algebra) -> Iterator[Request]:
    """A buildable pair over a custom algebra of degree 2-4, drawn again
    until both landed gcds are 1, so every session sends three requests."""
    while True:
        d, dbar, gcds = elementary_pair(rng, A)
        if gcds == [ONE, ONE]:
            break
    yield from certificate_session(A, [d, dbar])


def non_coprime_session(rng, A: Algebra) -> Iterator[Request]:
    """a(0) = 0 and phi fixing 0: both landed polynomials of row one are
    multiples of h, so the build must fail there and report their gcd."""
    d, dbar, gcds = elementary_pair(rng, A)
    yield from certificate_session(A, [d, dbar], refused_gcd=gcds[0])


# -- malformed documents -----------------------------------------------------------

MALFORMED_PER_ROUND = 8


def _set(doc, path, value):
    """A deep copy of doc with the item at path replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _base_docs(rng, A: Algebra) -> dict:
    mu, alphas, b, c = weighted_data(rng, A, positive=False)
    deriv = ref.derivation_doc(ref.weighted(A, mu, alphas, b, c))
    # check-derivation probes corrupt the one term of on_x; its degree 7
    # collides with nothing when a probe turns it into true (= 1).
    lone = {"terms": [{"deg": 7, "poly": poly_doc(rand_poly(rng, 1))}]}
    # One alpha at a negative weight, so a weight of true (= 1) is no duplicate.
    weight = min(alphas)
    return {
        "check-derivation": dict(deriv, on_x=lone),
        "build-derivation": weight_doc(mu, {weight: alphas[weight]}, b, c),
        "build-sigma-q": {
            "alpha": [{"m": 0, "n": 1, "value": rat(rand_rat(rng))}],
            "f": poly_doc(rand_poly(rng, 1)),
            "g": poly_doc(rand_poly(rng, 1)),
        },
        "ortho-build": {"b_list": [elem_doc(rand_element(rng, 1, 1, 3))], "derivations": [deriv]},
        "ortho-verify": {
            "certificate": {
                "entries": [{"index": 1, "pairs": [{"a": elem_doc(A.x()), "b": elem_doc(A.y())}]}]
            },
            "derivations": [deriv],
        },
    }


# (subcommand, path into its document, wrong value, known defect or None).
# Every field of every input document gets at least one value of a wrong
# JSON type; the contract answer is exit 2 with a JSON error.
MALFORMED = [
    ("check-derivation", ("mu",), 2, None),
    ("check-derivation", ("mu",), None, None),
    ("check-derivation", ("on_h",), [], None),
    ("check-derivation", ("on_x", "terms"), 5, None),
    ("check-derivation", ("on_x", "terms", -1), [1], None),
    ("check-derivation", ("on_x", "terms", -1, "deg"), "1", None),
    ("check-derivation", ("on_x", "terms", -1, "deg"), 1.5, None),
    ("check-derivation", ("on_x", "terms", -1, "deg"), True, "bool-taken-as-int"),
    ("check-derivation", ("on_x", "terms", -1, "poly"), 5, None),
    ("check-derivation", ("on_x", "terms", -1, "poly"), "12", None),
    ("check-derivation", ("on_x", "terms", -1, "poly", 0), 1, None),
    ("check-derivation", (), [], None),
    ("build-derivation", ("mu",), 1, None),
    ("build-derivation", ("alphas",), 5, "type-error-escapes"),
    ("build-derivation", ("alphas",), {}, "non-array-iterated"),
    ("build-derivation", ("alphas", 0), [1], None),
    ("build-derivation", ("alphas", 0, "weight"), "1", None),
    ("build-derivation", ("alphas", 0, "weight"), True, "bool-taken-as-int"),
    ("build-derivation", ("alphas", 0, "on_h"), 1, None),
    ("build-derivation", ("b",), 5, None),
    ("build-derivation", ("c",), {}, None),
    ("build-sigma-q", ("alpha",), 5, "type-error-escapes"),
    ("build-sigma-q", ("alpha", 0, "m"), "0", None),
    ("build-sigma-q", ("alpha", 0, "m"), True, "bool-taken-as-int"),
    ("build-sigma-q", ("alpha", 0, "n"), 1.0, None),
    ("build-sigma-q", ("alpha", 0, "value"), 1, None),
    ("build-sigma-q", ("f",), 5, "type-error-escapes"),
    ("build-sigma-q", ("f",), "12", "non-array-iterated"),
    ("build-sigma-q", ("g",), [1], None),
    ("build-sigma-q", ("M",), 2.5, None),
    ("build-sigma-q", ("M",), True, "bool-taken-as-int"),
    ("ortho-build", ("derivations",), 5, "type-error-escapes"),
    ("ortho-build", ("derivations",), {}, "non-array-iterated"),
    ("ortho-build", ("b_list",), 5, "type-error-escapes"),
    ("ortho-build", ("b_list",), None, "type-error-escapes"),
    ("ortho-build", ("b_list",), {}, "non-array-iterated"),
    ("ortho-build", ("b_list", 0), 5, None),
    ("ortho-verify", ("certificate",), 5, None),
    ("ortho-verify", ("certificate", "entries"), 5, "type-error-escapes"),
    ("ortho-verify", ("certificate", "entries", 0), [1], None),
    ("ortho-verify", ("certificate", "entries", 0, "index"), "1", None),
    ("ortho-verify", ("certificate", "entries", 0, "index"), True, "bool-taken-as-int"),
    ("ortho-verify", ("certificate", "entries", 0, "pairs"), 5, "type-error-escapes"),
    ("ortho-verify", ("certificate", "entries", 0, "pairs", 0, "a"), 5, None),
    ("algebra-json", ("a",), "1", None),
    ("algebra-json", ("phi",), 5, None),
    ("algebra-json", ("phi", "u"), 2, None),
    ("algebra-json", ("phi", "v"), [], None),
    ("algebra-json", ("label",), 5, None),
    ("check-derivation", "not json", "{", None),
]


def malformed_request(rng, index: int, A: Algebra) -> Request:
    command, path, value, defect = MALFORMED[index % len(MALFORMED)]
    check = expect(2, error_kind("schema", "invalid-input"))
    if command == "algebra-json":
        B = SCALING[index % len(SCALING)]
        lhs = elem_doc(rand_element(rng, 2, 2, 3))
        alg = _set(ref.algebra_doc(B), path, value)
        argv = ["mul", "--algebra=custom", "--algebra-json=" + dumps(alg), "--lhs=" + dumps(lhs), "--rhs=" + dumps(lhs)]
        return cli("malformed", argv, check, defect=defect)
    base = _base_docs(rng, A)[command]
    if path == "not json":
        doc = dumps(base)[:-1] + value
    elif path == ():
        doc = value + [rng.randint(0, 10**6)]  # a list, never the object expected
    else:
        doc = _set(base, path, value)
    return cli("malformed", [command, *alg_args(A)], check, doc, defect)


# -- solve ----------------------------------------------------------------------------

# Every (M, N) with 6 <= M, N <= 12, on the disc and on the plane, in one
# fixed order whatever the seed; round r sends the next SIGMA_Q_PER_ROUND of
# them, so the requests of a run are distinct and every seed gets the same.
SIGMA_Q_SEQUENCE = [(A, M, N) for A in (DISC, PLANE) for M in range(6, 13) for N in range(6, 13)]
random.Random("sigma-q sizes").shuffle(SIGMA_Q_SEQUENCE)
SIGMA_Q_PER_ROUND = 2
# (degree bound, poly bound) of the inner-witness requests of one round.
# Bound i of round r has kind (i + r) mod 3: an inner input on the disc, an
# inner input on the plane, or a non-inner input on the disc.
WITNESS_BOUNDS = [(3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 3), (4, 5), (5, 4), (5, 5)]


def solve(seed: int) -> Iterator[Request]:
    rng = random.Random(f"solve:{seed}")

    def rounds():
        r = 0
        while True:
            batch = []
            for i in range(SIGMA_Q_PER_ROUND):
                A, M, N = SIGMA_Q_SEQUENCE[(r * SIGMA_Q_PER_ROUND + i) % len(SIGMA_Q_SEQUENCE)]
                batch.append(sigma_q_request(A, M, N))
            for i, (db, pb) in enumerate(WITNESS_BOUNDS):
                kind = (i + r) % 3
                if kind == 2:
                    batch.append(outer_witness_request(rng, DISC, db, pb))
                else:
                    batch.append(inner_witness_request(rng, (DISC, PLANE)[kind], db, pb))
            rng.shuffle(batch)
            for req in batch:
                req.round = r
                yield req
            r += 1

    return Distinct()(rounds())


def sigma_q_request(A: Algebra, M: int, N: int) -> Request:
    payload = {"call": "sigma_q_dimension", "algebra": A.label, "q": rat(A.q), "M": M, "N": N}

    def check(res: dict) -> str | None:
        if res["exc"] is not None:
            return f"uncaught {res['exc']}"
        return None if res["out"] == str(M * N + M + N + 2) else f"dimension {res['out']}"

    return Request("sigma_q_dimension", payload, check)


def inner_witness_request(rng, A: Algebra, db: int, pb: int) -> Request:
    """d_b for a known two-term b inside the bounds; any returned witness w
    must give d_w = d_b on h, x and y."""
    mu = rng.choice((A.q, 1 / A.q, F(2)))
    b = {k: rand_poly(rng, pb - i) for i, k in enumerate(rng.sample(range(-db, db + 1), 2))}
    d = ref.inner(A, b, mu)

    def witness_ok(doc) -> str | None:
        if not isinstance(doc, dict) or doc.get("witness") is None:
            return "no witness for an inner derivation"
        w = ref.inner(A, ref.parse_elem(doc["witness"]), mu)
        return None if (w.on_h, w.on_x, w.on_y) == (d.on_h, d.on_x, d.on_y) else "witness does not reproduce d"

    argv = ["inner-witness", *alg_args(A), f"--degree-bound={db}", f"--poly-bound={pb}"]
    return cli("inner-witness", argv, expect(0, witness_ok), ref.derivation_doc(d))


def outer_witness_request(rng, A: Algebra, db: int, pb: int) -> Request:
    """A weight-m piece with constant alpha on the disc is not inner."""
    m = rng.choice((1, 2, 3, -1, -2))
    d = ref.weighted(A, A.q, {m: (rand_rat(rng),)})
    argv = ["inner-witness", *alg_args(A), f"--degree-bound={db}", f"--poly-bound={pb}"]
    return cli("inner-witness", argv, expect(0, equals(lambda: {"witness": None})), ref.derivation_doc(d))


WORKLOADS = {"products": products, "certify": certify, "solve": solve}
