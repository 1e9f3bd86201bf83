"""Command-line front end: JSON in, JSON out, exact fractions throughout.

Each subcommand is one entry of the `COMMANDS` table: its handler, its help
line and its flags.  `build_parser` turns that table into the argparse
grammar once per process, and every `run` reuses it.  A handler returns the
JSON payload of a success and raises for anything else.

Exit codes: 0 on success, 1 on verification failure, 2 on malformed input.
Outputs are deterministic (sorted keys, compact separators), so fixed
invocations are byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize as ser
from .derivations import (
    ClassificationError,
    DerivationError,
    build_derivation,
    check_relations,
    classify_positive,
    degree_profile,
    inner_witness,
    q_check,
)
from .disc_plane import build_sigma_q, classify_sigma_q, disc_commutation_identities
from .gwa import GwaAlgebra, make_grading
from .ortho import CertificateError, certificate_from_ideal, verify_certificate
from .serialize import SchemaError

OK, VERIFY_FAIL, BAD_INPUT = 0, 1, 2


class VerificationFailure(Exception):
    """Carries a JSON-ready failure payload (exit code 1)."""

    def __init__(self, payload: dict):
        super().__init__(payload)
        self.payload = payload


def _error(kind: str, exc: Exception, **extra) -> dict:
    return {"error": {"detail": str(exc), "kind": kind, **extra}}


def _algebra(args) -> GwaAlgebra:
    if args.algebra_json:
        return ser.algebra_from_json(_parse_json(args.algebra_json))
    if args.algebra == "custom":
        raise SchemaError("custom algebras are passed via --algebra-json")
    if args.q is None:
        raise SchemaError("--q is required for the disc/plane presets")
    return ser.algebra_from_json({"label": args.algebra, "q": args.q})


def _parse_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _input_doc(args) -> object:
    """The document named by --input: a file path, or - for stdin."""
    if args.input == "-":
        return _parse_json(sys.stdin.read())
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {args.input!r}: {exc}") from exc
    return _parse_json(text)


def _derivation(A: GwaAlgebra, doc):
    report = check_relations(*ser.derivation_from_json(doc, A))
    if not report.ok:
        name, residual = report.violations[0]
        violation = {"relation": name, "residual": ser.element_to_json(residual)}
        raise VerificationFailure({"verified": False, "violation": violation})
    return report.derivation


# -- subcommand handlers -------------------------------------------------------


def _cmd_mul(args) -> dict:
    A = _algebra(args)
    lhs = ser.element_from_json(_parse_json(args.lhs), A)
    rhs = ser.element_from_json(_parse_json(args.rhs), A)
    return ser.element_to_json(lhs * rhs)


def _cmd_lemma52(args) -> dict:
    q = ser.rat_from_json(args.q)
    if q == 0 or q == 1 or q == -1:
        raise SchemaError("q must avoid {0, 1, -1}")
    if args.n < 1:
        raise SchemaError("--n must be >= 1")
    return {"ok": disc_commutation_identities(args.n, q)}


def _cmd_check_derivation(args) -> dict:
    A = _algebra(args)
    _derivation(A, _input_doc(args))
    return {"verified": True}


def _cmd_build_derivation(args) -> dict:
    A = _algebra(args)
    data = ser.weight_data_from_json(_input_doc(args))
    try:
        d = build_derivation(data, A)
    except DerivationError as exc:
        raise VerificationFailure(_error("condition", exc))
    return ser.derivation_to_json(d)


def _cmd_build_sigma_q(args) -> dict:
    A = _algebra(args)
    data = ser.sigma_q_data_from_json(_input_doc(args))
    return ser.derivation_to_json(build_sigma_q(data, A))


def _cmd_classify(args) -> dict:
    d = _derivation(_algebra(args), _input_doc(args))
    try:
        if args.mode == "positive":
            return ser.weight_data_to_json(classify_positive(d))
        return ser.sigma_q_data_to_json(classify_sigma_q(d))
    except ClassificationError as exc:
        raise VerificationFailure(_error("not-of-this-form", exc))


def _cmd_q_check(args) -> dict:
    A = _algebra(args)
    result = q_check(_derivation(A, _input_doc(args)))
    payload = {"is_q_derivation": result.is_q_derivation}
    if result.is_q_derivation:
        payload["Q"] = ser.rat_to_json(result.Q)
    return payload


def _cmd_degree_profile(args) -> dict:
    A = _algebra(args)
    try:
        grading = make_grading(A, args.w, args.k)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    shift = degree_profile(_derivation(A, _input_doc(args)), grading)
    return {"degree": "inhomogeneous" if shift is None else shift}


def _cmd_inner_witness(args) -> dict:
    d = _derivation(_algebra(args), _input_doc(args))
    witness = inner_witness(d, args.degree_bound, args.poly_bound)
    return {"witness": None if witness is None else ser.element_to_json(witness)}


def _systems_doc(args, A: GwaAlgebra) -> tuple[list, object]:
    doc = _input_doc(args)
    if not isinstance(doc, dict) or "derivations" not in doc:
        raise SchemaError("expected a document with a derivations array")
    return [_derivation(A, entry) for entry in doc["derivations"]], doc


def _cmd_ortho_build(args) -> dict:
    A = _algebra(args)
    system, doc = _systems_doc(args, A)
    if "b_list" not in doc:
        raise SchemaError("expected a b_list array of designated generators")
    b_list = [ser.element_from_json(entry, A) for entry in doc["b_list"]]
    try:
        cert = certificate_from_ideal(b_list, system, A)
    except CertificateError as exc:
        extra = {} if exc.gcd is None else {"gcd": ser.poly_to_json(exc.gcd)}
        raise VerificationFailure(_error("certificate", exc, **extra))
    return ser.certificate_to_json(cert)


def _cmd_ortho_verify(args) -> dict:
    A = _algebra(args)
    system, doc = _systems_doc(args, A)
    if "certificate" not in doc:
        raise SchemaError("expected a certificate field")
    cert = ser.certificate_from_json(doc["certificate"], A)
    check = verify_certificate(cert, system, A)
    if not check.ok:
        i, k, residual = check.failures[0]
        failure = {"i": i, "k": k, "residual": ser.element_to_json(residual)}
        raise VerificationFailure({"ok": False, "failure": failure})
    return {"ok": True}


# -- command table and parser ------------------------------------------------------

REQUIRED, REQUIRED_INT = {"required": True}, {"type": int, "required": True}
ALGEBRA_FLAGS = [
    ("--algebra", {"choices": ["disc", "plane", "custom"], "default": "disc"}),
    ("--q", {"help": "deformation parameter as num/den"}),
    ("--algebra-json", {"help": "full algebra document (overrides presets)"}),
]
DOCUMENT_FLAGS = [
    *ALGEBRA_FLAGS,
    ("--input", {"default": "-", "help": "JSON document: a file path or - for stdin"}),
]

# name -> (handler, help line, flags as (flag, add_argument options))
COMMANDS = {
    "mul": (_cmd_mul, "multiply two normal-form elements",
            [*ALGEBRA_FLAGS, ("--lhs", REQUIRED), ("--rhs", REQUIRED)]),
    "lemma52": (_cmd_lemma52, "check the disc commutation identities",
                [("--q", REQUIRED), ("--n", REQUIRED_INT)]),
    "check-derivation": (_cmd_check_derivation, "verify generator values against the relations",
                         DOCUMENT_FLAGS),
    "build-derivation": (_cmd_build_derivation, "assemble a derivation from weighted data",
                         DOCUMENT_FLAGS),
    "build-sigma-q": (_cmd_build_sigma_q, "assemble a coarseness-q derivation", DOCUMENT_FLAGS),
    "classify": (_cmd_classify, "recover constructor data from a derivation",
                 [*DOCUMENT_FLAGS, ("--mode", {"choices": ["positive", "sigma-q"], **REQUIRED})]),
    "q-check": (_cmd_q_check, "decide the scalar Q with sigma d sigma^{-1} = Q d", DOCUMENT_FLAGS),
    "degree-profile": (_cmd_degree_profile, "degree shift of a derivation under a grading",
                       [*DOCUMENT_FLAGS, ("--w", {**REQUIRED_INT, "help": "degree of h"}),
                        ("--k", {**REQUIRED_INT, "help": "degree of x"})]),
    "inner-witness": (_cmd_inner_witness, "search for a twisted-commutator witness",
                      [*DOCUMENT_FLAGS, ("--degree-bound", REQUIRED_INT),
                       ("--poly-bound", REQUIRED_INT)]),
    "ortho-build": (_cmd_ortho_build, "construct an orthogonality certificate", DOCUMENT_FLAGS),
    "ortho-verify": (_cmd_ortho_verify, "verify an orthogonality certificate", DOCUMENT_FLAGS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse grammar of `COMMANDS`, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="gwa-skew",
        description="Exact computations with skew derivations on generalized Weyl algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        for flag, options in flags:
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return BAD_INPUT if exc.code not in (0, None) else OK
    try:
        payload, code = args.handler(args), OK
    except VerificationFailure as exc:
        payload, code = exc.payload, VERIFY_FAIL
    except SchemaError as exc:
        payload, code = _error("schema", exc), BAD_INPUT
    except ValueError as exc:  # DerivationError, ClassificationError, CertificateError
        payload, code = _error("invalid-input", exc), BAD_INPUT
    print(ser.dumps(payload))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
