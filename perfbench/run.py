"""Seeded request benchmark for gwa_skew.

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ./src in fresh
child interpreters; nothing is installed.  Load model: one client, closed
loop, one request at a time, in a seeded order (see workloads.py).

--trace 0 runs the workload in a fresh host process until the summed
service time of its requests, scaled to the reference speed, reaches
--seconds, then finishes the round it is in (see workloads.py), and
reports the end-to-end metrics.  On a machine so slow that the raw service
time reaches RAW_CAP times --seconds first, the pass stops there.  Set-up
time is the median over fresh interpreters started during the pass.

--trace 1 runs a fixed-length prefix of the same stream twice, each in a
fresh host: untraced, then with the tracer's wrappers installed.  It reports
the per-layer totals of the traced pass, so exact counts repeat from run to
run, plus trace.overhead_ratio.  The aggregates are written to
.perfbench-out/.

Times are scaled to a reference machine speed (calibrate.py): the host
times a small stdlib kernel between requests, and each request's time is
multiplied by REFERENCE_S / (kernel time around it).  Raw wall-clock
figures are printed next to the scaled ones.

Every answer is checked after its pass; checking is never timed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
`failed` counts wrong answers other than the known defects listed in
workloads.DEFECTS; fail_ratio, printed above it, counts both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
from workloads import WORKLOADS, outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 11
RAW_CAP = 1.75
# Requests in the traced prefix; each takes a few seconds untraced.
TRACE_REQUESTS = {"products": 60, "certify": 400, "solve": 40}
WARMUP = {"argv": ["lemma52", "--q=2", "--n=1"], "stdin": ""}


class HostError(RuntimeError):
    pass


def child_env() -> dict:
    """The environment of child interpreters: ./src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Host:
    """A fresh interpreter running host.py; one JSON line per request."""

    def __init__(self, trace: bool):
        cmd = [sys.executable, str(HERE / "host.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
        )

    def call(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise HostError(f"host exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> dict:
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.wait(timeout=60)
        if not line:
            raise HostError(f"host exited with code {self.proc.returncode}")
        return json.loads(line)["final"]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_pass(workload: str, seed: int, trace: bool, seconds=None, count=None, between=None):
    """Send the workload's stream to a fresh host.  Stop after `count`
    requests, or at the end of the round in which the service time, scaled
    by the latest kernel timings, reaches `seconds`, or when the raw service
    time reaches RAW_CAP * seconds.

    `between(busy)` runs after each request, while the host waits.
    """
    host = Host(trace)
    try:
        warm = host.call(WARMUP)
        if warm["code"] != 0:
            raise HostError(f"warm-up request failed: {warm}")
        done, busy, raw, recent = [], 0.0, 0.0, [calibrate.REFERENCE_S]
        for req in WORKLOADS[workload](seed):
            if seconds is not None and busy >= seconds and req.round != done[-1].round:
                break
            req.result = host.call(req.payload)
            done.append(req)
            if "cal" in req.result:
                recent = (recent + [req.result["cal"][1]])[-9:]
            raw += req.result["t"]
            busy += req.result["t"] * calibrate.REFERENCE_S / statistics.median(recent)
            if between is not None:
                between(busy)
            if (count is not None and len(done) >= count) or (seconds is not None and raw >= RAW_CAP * seconds):
                break
        final = host.close()
    finally:
        host.kill()
    return done, busy, final


class SetupProbes:
    """Set-up seconds of fresh interpreters, one probe each time the
    measured pass crosses another 1/SETUP_PROBES of its time budget, so
    the probes see the same stretches of machine speed as the requests.
    A first probe, which may compile bytecode, is discarded."""

    def __init__(self, seconds: float):
        self.step = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.ok = True
        self.probe()
        self.times.clear()
        self.scaled.clear()

    def probe(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
        )
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.ok = self.ok and proc.returncode == 0 and doc["code"] == 0 and doc["out"] == '{"ok":true}'
        self.times.append(doc["setup_s"])
        self.scaled.append(doc["setup_s"] * calibrate.REFERENCE_S / doc["cal"])

    def __call__(self, busy: float) -> None:
        if busy >= self.step * len(self.times):
            self.probe()


def scaled_times(reqs) -> list[float]:
    """Each request's seconds at the reference machine speed."""
    marks = sorted(tuple(r.result["cal"]) for r in reqs if "cal" in r.result)
    factors = calibrate.scale_factors([r.result["at"] for r in reqs], marks)
    return [r.result["t"] * f for r, f in zip(reqs, factors)]


def timing_metrics(times: list[float]) -> tuple[float, float, float, int]:
    """(requests per second, p50 ms, p90 ms, samples above p90)."""
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    above = sum(1 for t in times if t > p90)
    return len(times) / sum(times), statistics.median(times) * 1000, p90 * 1000, above


def judge(reqs) -> tuple[int, int, list[str]]:
    """(unexpected failures, known-defect failures, first few reasons)."""
    failed = known = 0
    reasons = []
    for i, req in enumerate(reqs):
        verdict, reason = outcome(req)
        if verdict == "failed":
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"request {i} ({req.kind}): {reason}")
        elif verdict == "known-defect":
            known += 1
    return failed, known, reasons


def wire_bytes(reqs) -> tuple[int, int]:
    """Bytes in (--input text and JSON-valued flags) and out (stdout)."""
    bytes_in = bytes_out = 0
    for req in reqs:
        if "argv" in req.payload:
            bytes_in += len(req.payload["stdin"].encode())
            for arg in req.payload["argv"]:
                if arg.startswith(("--lhs=", "--rhs=", "--algebra-json=")):
                    bytes_in += len(arg.split("=", 1)[1].encode())
            bytes_out += len(req.result["out"].encode())
    return bytes_in, bytes_out


def end_to_end(args) -> dict:
    probes = SetupProbes(args.seconds)
    reqs, busy, final = run_pass(args.workload, args.seed, trace=False, seconds=args.seconds, between=probes)
    while len(probes.times) < SETUP_PROBES:
        probes.probe()
    failed, known, reasons = judge(reqs)
    rps, p50, p90, above = timing_metrics(scaled_times(reqs))
    raw_rps, raw_p50, raw_p90, _ = timing_metrics([r.result["t"] for r in reqs])
    metrics = {
        "throughput_rps": (rps, raw_rps, "1/s"),
        "latency_p50_ms": (p50, raw_p50, "ms"),
        "latency_p90_ms": (p90, raw_p90, "ms"),
        "setup_s": (statistics.median(probes.scaled), statistics.median(probes.times), "s"),
        "peak_rss_mb": (final["peak_rss_mb"], final["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(reqs)} requests in {busy:.2f} s of service time")
    print(f"  {'metric':<16} {'value':>12}       {'raw wall clock':>14}")
    for name, (value, raw, unit) in metrics.items():
        note = {
            "latency_p90_ms": f"  ({above} samples above)",
            "setup_s": f"  (median of {len(probes.times)} fresh interpreters)",
        }.get(name, "")
        print(f"  {name:<16} {value:12.4f} {unit:<5} {raw:14.4f}{note}")
    print(
        f"  {'fail_ratio':<16} {(failed + known) / len(reqs):12.4f}  "
        f"({failed + known} of {len(reqs)} attempted: {failed} unexpected, {known} known defects)"
    )
    for reason in reasons:
        print(f"  FAILED {reason}", file=sys.stderr)
    if not probes.ok:
        print("  FAILED set-up probe answered wrongly", file=sys.stderr)
    return {
        "correct": failed == 0 and probes.ok,
        "attempted": len(reqs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, _, u) in metrics.items()},
    }


def per_layer(args) -> dict:
    from tracer import designated_problems, layer_metrics

    count = TRACE_REQUESTS[args.workload]
    plain, _, _ = run_pass(args.workload, args.seed, trace=False, count=count)
    traced, _, final = run_pass(args.workload, args.seed, trace=True, count=count)
    export = final["trace"]
    failed = known = 0
    reasons = []
    for reqs in (plain, traced):
        f, k, r = judge(reqs)
        failed, known, reasons = failed + f, known + k, reasons + r
    problems = designated_problems(args.workload, export)
    if [r.payload for r in plain] != [r.payload for r in traced]:
        problems.append("traced and untraced passes sent different requests")

    # Span times are scaled by the traced pass's overall speed factor.
    plain_s, traced_s = sum(scaled_times(plain)), sum(scaled_times(traced))
    speed = traced_s / sum(r.result["t"] for r in traced)
    values = layer_metrics(export)
    for name in values:
        if name.endswith("self_s"):
            values[name] *= speed
    values["serialize.bytes_in"], values["serialize.bytes_out"] = wire_bytes(traced)
    values["trace.overhead_ratio"] = (len(plain) / plain_s) / (len(traced) / traced_s)
    units = {
        "self_s": "s", "bytes_in": "bytes", "bytes_out": "bytes", "max_degree": "degree",
        "shift_share": "ratio", "mixed_distinct_ratio": "ratio", "density": "ratio", "overhead_ratio": "ratio",
    }
    metrics = {
        name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "count")}
        for name, value in values.items()
    }

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    export["kinds"] = [r.kind for r in traced]
    trace_file.write_text(json.dumps(export))

    print(f"workload {args.workload}, seed {args.seed}: traced prefix of {len(traced)} requests")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:16.6g} {m['unit']}")
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    for item in reasons + problems:
        print(f"  FAILED {item}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gwa_skew" / "cli.py").is_file():
        print(f"error: no gwa_skew sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
