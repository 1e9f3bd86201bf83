"""Per-layer spans and counters for the traced pass, kept in memory.

`Tracer.install` wraps the public functions and methods of each gwa_skew
module from outside; the library's source is untouched.  A function is
replaced at every place it is bound -- its defining module, every module
that imported it by name, and every class attribute that aliases it (such
as `SkewDerivation.__call__ = evaluate`) -- so no call path slips past its
span.  `uninstall` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
Counter hooks and the bookkeeping after a span are timed and charged to no
span.  Aggregates are kept per span name, per (parent, child) edge and per
request, and exported once, when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# Span names checked per workload: each listed layer must record calls on
# its designated workload, and the `zero` ones must record none, so a wrapper
# that misses its target fails the run instead of reporting zeros.
DESIGNATED = {
    "products": {
        "nonzero": ["poly.mul", "poly.add", "poly.auto_apply", "gwa.mul", "serialize.parse", "serialize.emit", "cli.run"],
        "zero": ["linalg", "ortho.build", "ortho.verify", "derivations.check_relations"],
    },
    "certify": {
        "nonzero": [
            "poly.divrem",
            "poly.gcd",
            "derivations.check_relations",
            "derivations.evaluate",
            "disc_plane.to_monomial_basis",
            "ortho.build",
            "ortho.verify",
            "serialize.parse",
            "serialize.emit",
            "cli.run",
        ],
        "zero": ["linalg"],
    },
    "solve": {
        "nonzero": ["linalg", "disc_plane.sigma_q_dimension", "derivations.inner_witness", "cli.run"],
        "zero": [],
    },
}


def _targets():
    """(owner, attribute, span name, counter hook) for every wrapped entry point."""
    from gwa_skew import cli, derivations, disc_plane, gwa, linalg, ortho, poly, serialize

    Poly, GwaElement = poly.Poly, gwa.GwaElement

    def poly_mul(tr, args, kwargs):
        self, other = args
        if isinstance(other, Poly):
            tr.counts["poly.mul.calls"] += 1
            tr.counts["poly.mul.coeff_products"] += len(self.coeffs) * len(other.coeffs)

    def auto_apply(tr, args, kwargs):
        k = args[2] if len(args) > 2 else kwargs.get("k", 1)
        tr.counts["poly.auto_apply.abs_k"] += abs(k)
        if args[0].v != 0:
            tr.counts["poly.auto_apply.shift"] += 1

    def gcd(tr, args, kwargs):
        degree = max(len(args[0].coeffs), len(args[1].coeffs)) - 1
        tr.maxima["poly.gcd.max_degree"] = max(tr.maxima.get("poly.gcd.max_degree", 0), degree)

    def gwa_mul(tr, args, kwargs):
        self, other = args
        if isinstance(other, GwaElement):
            right = other.terms.keys()
        elif isinstance(other, (Poly, int, Fraction)):
            right = (0,)
        else:
            return
        tr.counts["gwa.mul.term_pairs"] += len(self.terms) * len(right)
        A = self.algebra
        algebra = (A.label, A.a.coeffs, A.phi.u, A.phi.v)
        for j in self.terms:
            for k in right:
                if j * k < 0:
                    tr.counts["gwa.mul.mixed_pairs"] += 1
                    tr.mixed.add((algebra, j, k))

    def linalg_entry(tr, args, kwargs):
        if tr.stack and tr.stack[-1][0] == "linalg":
            return  # rank called from nullspace_dimension: same system
        matrix = args[0]
        cols = len(matrix[0]) if matrix else 0
        tr.counts["linalg.calls"] += 1
        tr.counts["linalg.cells"] += len(matrix) * cols
        tr.counts["linalg.nonzero"] += sum(1 for row in matrix for c in row if c != 0)

    def verify(tr, args, kwargs):
        tr.counts["ortho.cert_pairs"] += sum(len(row) for row in args[0].rows)

    out = [
        (Poly, "__mul__", "poly.mul", poly_mul),
        (Poly, "__add__", "poly.add", None),
        (Poly, "__sub__", "poly.add", None),
        (poly.AffineAuto, "apply", "poly.auto_apply", auto_apply),
        (Poly, "divrem", "poly.divrem", None),
        (poly, "extended_gcd", "poly.gcd", gcd),
        (GwaElement, "__mul__", "gwa.mul", gwa_mul),
        (derivations, "check_relations", "derivations.check_relations", None),
        (derivations.SkewDerivation, "evaluate", "derivations.evaluate", None),
        (derivations, "inner_witness", "derivations.inner_witness", None),
        (disc_plane, "sigma_q_dimension", "disc_plane.sigma_q_dimension", None),
        (disc_plane, "to_monomial_basis", "disc_plane.to_monomial_basis", None),
        (linalg, "rank", "linalg", linalg_entry),
        (linalg, "nullspace_dimension", "linalg", linalg_entry),
        (linalg, "solve", "linalg", linalg_entry),
        (ortho, "certificate_from_ideal", "ortho.build", None),
        (ortho, "verify_certificate", "ortho.verify", verify),
        (cli, "run", "cli.run", None),
    ]
    for name in sorted(vars(serialize)):
        if name.endswith("_from_json"):
            out.append((serialize, name, "serialize.parse", None))
        elif name.endswith("_to_json") or name == "dumps":
            out.append((serialize, name, "serialize.emit", None))
    return out


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [span name, start, time covered by children]
        self.request: int | None = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.per_request: defaultdict = defaultdict(dict)
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.mixed: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer, stack, clock = self, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                t0 = clock()
                hook(tracer, args, kwargs)
                if stack:
                    stack[-1][2] += clock() - t0
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer._record(name, stack[-1][0] if stack else None, duration, duration - frame[2])
                if stack:
                    stack[-1][2] += duration + (clock() - end)

        return functools.update_wrapper(wrapper, fn)

    def _record(self, name: str, parent: str | None, duration: float, self_time: float) -> None:
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += self_time
        self.edges[(parent, name)] += 1
        row = self.per_request[self.request].get(name)
        if row is None:
            self.per_request[self.request][name] = [1, duration, self_time]
        else:
            row[0] += 1
            row[1] += duration
            row[2] += self_time

    # -- patching -----------------------------------------------------------

    def install(self, targets=None) -> None:
        for owner, attr, name, hook in _targets() if targets is None else targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                places = [owner]
            else:
                places = [m for key, m in list(sys.modules.items()) if key == "gwa_skew" or key.startswith("gwa_skew.")]
            patched = 0
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        self._patches.append((place, key, original))
                        setattr(place, key, wrapper)
                        patched += 1
            if not patched:
                raise LookupError(f"{owner!r}.{attr} is bound nowhere")

    def uninstall(self) -> None:
        for place, key, original in reversed(self._patches):
            setattr(place, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "mixed_distinct": len(self.mixed),
            "edges": [[parent, child, n] for (parent, child), n in sorted(self.edges.items(), key=str)],
            "requests": {str(k): v for k, v in self.per_request.items()},
        }


def designated_problems(workload: str, export: dict) -> list[str]:
    calls = export["calls"]
    spec = DESIGNATED[workload]
    problems = [f"{name} recorded no calls" for name in spec["nonzero"] if not calls.get(name)]
    problems += [f"{name} recorded {calls[name]} calls" for name in spec["zero"] if calls.get(name)]
    return problems


def layer_metrics(export: dict) -> dict[str, float]:
    """The per-layer metrics, totals over the traced pass."""
    calls, self_s, counts = export["calls"], export["self_s"], export["counts"]
    ratio = lambda num, den: num / den if den else 0.0
    apply_calls = calls.get("poly.auto_apply", 0)
    return {
        "poly.mul.calls": counts.get("poly.mul.calls", 0),
        "poly.mul.coeff_products": counts.get("poly.mul.coeff_products", 0),
        "poly.mul.self_s": self_s.get("poly.mul", 0.0),
        "poly.add.self_s": self_s.get("poly.add", 0.0),
        "poly.auto_apply.calls": apply_calls,
        "poly.auto_apply.self_s": self_s.get("poly.auto_apply", 0.0),
        "poly.auto_apply.mean_abs_k": ratio(counts.get("poly.auto_apply.abs_k", 0), apply_calls),
        "poly.auto_apply.shift_share": ratio(counts.get("poly.auto_apply.shift", 0), apply_calls),
        "poly.divrem.self_s": self_s.get("poly.divrem", 0.0),
        "poly.gcd.calls": calls.get("poly.gcd", 0),
        "poly.gcd.max_degree": export["maxima"].get("poly.gcd.max_degree", 0),
        "poly.gcd.self_s": self_s.get("poly.gcd", 0.0),
        "gwa.mul.calls": calls.get("gwa.mul", 0),
        "gwa.mul.term_pairs": counts.get("gwa.mul.term_pairs", 0),
        "gwa.mul.mixed_pairs": counts.get("gwa.mul.mixed_pairs", 0),
        "gwa.mul.mixed_distinct_ratio": ratio(export["mixed_distinct"], counts.get("gwa.mul.mixed_pairs", 0)),
        "gwa.mul.self_s": self_s.get("gwa.mul", 0.0),
        "derivations.check_relations.calls": calls.get("derivations.check_relations", 0),
        "derivations.check_relations.self_s": self_s.get("derivations.check_relations", 0.0),
        "derivations.evaluate.calls": calls.get("derivations.evaluate", 0),
        "derivations.evaluate.self_s": self_s.get("derivations.evaluate", 0.0),
        "derivations.inner_witness.self_s": self_s.get("derivations.inner_witness", 0.0),
        "disc_plane.sigma_q_dimension.self_s": self_s.get("disc_plane.sigma_q_dimension", 0.0),
        "disc_plane.to_monomial_basis.self_s": self_s.get("disc_plane.to_monomial_basis", 0.0),
        "linalg.calls": counts.get("linalg.calls", 0),
        "linalg.cells": counts.get("linalg.cells", 0),
        "linalg.density": ratio(counts.get("linalg.nonzero", 0), counts.get("linalg.cells", 0)),
        "linalg.self_s": self_s.get("linalg", 0.0),
        "ortho.build.calls": calls.get("ortho.build", 0),
        "ortho.build.self_s": self_s.get("ortho.build", 0.0),
        "ortho.verify.calls": calls.get("ortho.verify", 0),
        "ortho.verify.self_s": self_s.get("ortho.verify", 0.0),
        "ortho.cert_pairs": counts.get("ortho.cert_pairs", 0),
        "serialize.parse.self_s": self_s.get("serialize.parse", 0.0),
        "serialize.emit.self_s": self_s.get("serialize.emit", 0.0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
    }
