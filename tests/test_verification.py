"""Verification steps raise explicit exceptions, so they survive `python -O`."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from gwa_skew import GwaAlgebra, SkewDerivation, derivations, inner_derivation, inner_witness
from gwa_skew.poly import BezoutWitness, Poly, extended_gcd

SOURCE = Path(__file__).resolve().parents[1] / "src" / "gwa_skew"


def test_library_has_no_assert_statements():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_does_not_import_dataclasses():
    # value types are slotted classes or NamedTuples: importing `dataclasses`
    # (and the inspect/ast machinery behind it) lengthens every CLI start-up
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def test_every_memo_is_bounded():
    # a memo of input-derived values must not grow for as long as the process
    # serves requests: `lru_cache` takes an explicit integer maxsize (a literal
    # or a module constant), and `functools.cache` only memoizes a function of
    # no arguments, which holds one value
    seen, found = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                kind = ast.unparse(call.func if call else dec).split(".")[-1]
                if kind not in ("cache", "lru_cache"):
                    continue
                seen.append(f"{path.name}:{fn.name}")
                if kind == "cache":
                    bounded = call is None and not any(
                        [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs, fn.args.vararg, fn.args.kwarg]
                    )
                else:
                    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"] if call else []
                    size = sizes[0] if sizes else None
                    value = size.value if isinstance(size, ast.Constant) else constants.get(getattr(size, "id", None))
                    bounded = type(value) is int and value > 0
                if not bounded:
                    found.append(f"{path.name}:{fn.lineno}:{fn.name}")
    assert {"cli.py:build_parser", "gwa.py:_cross"} <= set(seen)
    assert found == []


def test_no_signature_takes_an_algebra_beside_an_element_or_derivation():
    # a GwaElement or SkewDerivation carries its algebra, so a GwaAlgebra
    # parameter next to one can only repeat it; list[...] parameters hold
    # several subjects that must agree, and are not matched
    def annotations(fn: ast.FunctionDef) -> set[str]:
        params = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        return {ast.unparse(p.annotation).strip("'\"") for p in params if p.annotation}

    found = [
        f"{path.name}:{node.lineno}:{node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and "GwaAlgebra" in (names := annotations(node))
        and names & {"GwaElement", "SkewDerivation"}
    ]
    assert found == []


def test_only_poly_reads_the_fraction_view():
    # the library works on (num, den); `coeffs` is a view for callers outside it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "coeffs"
    ]
    assert found == []


ENTRY_POINTS = {("cli.py", "main")}  # called from outside the package


def test_every_library_function_is_referenced():
    # a module-level function nothing else names is a dead copy
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in [*SOURCE.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    }
    names = [
        (path.name, node.name)
        for path, tree in trees.items()
        if path.parent == SOURCE
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    ]
    assert names
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    used = {
        getattr(node, fields[type(node)])
        for tree in trees.values()
        for node in ast.walk(tree)
        if type(node) in fields
    }
    unused = [
        f"{module}:{name}"
        for module, name in names
        if name not in used and (module, name) not in ENTRY_POINTS
    ]
    assert unused == []


def test_extended_gcd_raises_on_failed_witness(monkeypatch):
    monkeypatch.setattr(BezoutWitness, "check", lambda self: False)
    with pytest.raises(ArithmeticError):
        extended_gcd(Poly([1, -1]), Poly([1, -2]))


def test_inner_witness_raises_on_failed_reverification(monkeypatch):
    A, mu = GwaAlgebra.plane(2), Fraction(2)
    d = inner_derivation(A.x(), mu)
    # a rebuild that disagrees with d, as a faulty solve would produce
    rebuild_zero = lambda b, mu: SkewDerivation.zero(b.algebra, mu)
    monkeypatch.setattr(derivations, "inner_derivation", rebuild_zero)
    with pytest.raises(ArithmeticError):
        inner_witness(d, 1, 1)
