"""Tests of the benchmark itself: determinism, exact counts, honest checks.

    python3 -m pytest perfbench/test_perfbench.py -q

from the repository root.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT = [
    "poly.mul.calls",
    "poly.mul.coeff_products",
    "poly.auto_apply.calls",
    "poly.gcd.calls",
    "gwa.mul.calls",
    "gwa.mul.term_pairs",
    "derivations.check_relations.calls",
    "derivations.evaluate.calls",
    "linalg.calls",
    "linalg.cells",
    "ortho.build.calls",
    "ortho.verify.calls",
]
# Long enough that every designated layer of the workload is reached:
SHORT = {"products": 10, "certify": 79, "solve": 11}  # one round each
REFUSED = {"code": 2, "out": "", "exc": None, "t": 0.0}


def payloads(workload: str, seed: int, n: int) -> list[str]:
    """The first n requests, with every request answered by a refusal so
    that no follow-up depends on the library."""
    out = []
    for req in workloads.WORKLOADS[workload](seed):
        req.result = REFUSED
        out.append(json.dumps(req.payload, sort_keys=True))
        if len(out) == n:
            return out
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_requests(workload):
    n = 150
    first = payloads(workload, 7, n)
    assert first == payloads(workload, 7, n)
    assert first != payloads(workload, 8, n)
    assert len(set(first)) == n  # requests are all distinct


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(workload):
    counts = []
    for _ in range(2):
        reqs, _, final = run.run_pass(workload, 3, trace=True, count=SHORT[workload])
        assert run.judge(reqs)[0] == 0
        assert tracer.designated_problems(workload, final["trace"]) == []
        metrics = tracer.layer_metrics(final["trace"])
        counts.append({name: metrics[name] for name in EXACT})
    assert counts[0] == counts[1]
    if workload == "solve":
        assert counts[0]["linalg.calls"] > 0
    else:
        assert counts[0]["linalg.calls"] == 0


def test_wrong_expected_answers_raise_failures(monkeypatch):
    products, _, _ = run.run_pass("products", 5, trace=False, count=8)
    solve, _, _ = run.run_pass("solve", 5, trace=False, count=8)
    assert run.judge(products)[0] == 0 and run.judge(solve)[0] == 0

    # Expected answers are computed when the check runs, so a wrong
    # reference now must turn correct results into failures.
    right_emul, right_inner = ref.emul, ref.inner

    def off_by_one(A, e1, e2):
        return ref.eadd(right_emul(A, e1, e2), {0: ref.ONE})

    def wrong_inner(A, b, mu):
        return right_inner(A, ref.eadd(b, {1: ref.ONE}), mu)

    monkeypatch.setattr(ref, "emul", off_by_one)
    monkeypatch.setattr(ref, "inner", wrong_inner)
    muls = [r for r in products if r.kind == "mul"]
    assert muls and run.judge(muls)[0] == len(muls)
    witnesses = [r for r in solve if r.kind == "inner-witness" and json.loads(r.result["out"])["witness"]]
    assert witnesses and run.judge(witnesses)[0] == len(witnesses)


def test_known_defects_stay_visible():
    probes = [
        workloads.malformed_request(workloads.random.Random(0), i, ref.Algebra.disc(Fraction(2)))
        for i in range(len(workloads.MALFORMED))
    ]
    host = run.Host(trace=False)
    try:
        for req in probes:
            req.result = host.call(req.payload)
        host.close()
    finally:
        host.kill()
    verdicts = [workloads.outcome(req)[0] for req in probes]
    assert "failed" not in verdicts
    tagged = [v for v, req in zip(verdicts, probes) if req.defect]
    # Every tagged probe still misbehaves today; a fix would turn it "ok".
    assert tagged and set(tagged) == {"known-defect"}
    b_list = next(r for r in probes if r.defect == "type-error-escapes" and '"b_list":5' in r.payload["stdin"])
    assert b_list.result["exc"].startswith("TypeError")


def _check_derivation_via_cli():
    from gwa_skew import cli

    A = ref.Algebra.disc(Fraction(2))
    d = ref.weighted(A, Fraction(2), {1: (Fraction(3),)})
    sys_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(ref.derivation_doc(d)))
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.run(["check-derivation", "--algebra=disc", "--q=2", "--input=-"]) == 0
    finally:
        sys.stdin = sys_stdin


def test_wrappers_reach_every_binding():
    tr = tracer.Tracer()
    tr.install()
    try:
        _check_derivation_via_cli()
    finally:
        tr.uninstall()
    assert tr.calls["derivations.check_relations"] == 1
    assert tr.calls["cli.run"] == 1


def test_a_wrapper_that_misses_its_target_fails_the_check():
    from gwa_skew import derivations

    # Patching only the defining module misses cli's own binding of
    # check_relations, which is the one check-derivation calls.
    tr = tracer.Tracer()
    original = derivations.check_relations
    derivations.check_relations = tr._wrap("derivations.check_relations", original, None)
    try:
        _check_derivation_via_cli()
    finally:
        derivations.check_relations = original
    problems = tracer.designated_problems("certify", tr.export())
    assert "derivations.check_relations recorded no calls" in problems


def test_reference_product_matches_library_on_shifted_algebra():
    from gwa_skew.gwa import GwaAlgebra
    from gwa_skew.poly import AffineAuto, Poly

    rng = workloads.random.Random(1)
    for R in workloads.SHIFTED:
        A = GwaAlgebra(Poly(R.a), AffineAuto(R.u, R.v))
        e1 = workloads.rand_element(rng, 3, 4, 4)
        e2 = workloads.rand_element(rng, 3, 4, 4)
        lib = A.element({k: Poly(p) for k, p in e1.items()}) * A.element({k: Poly(p) for k, p in e2.items()})
        assert ref.emul(R, e1, e2) == {k: p.coeffs for k, p in lib.terms.items()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "products", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
