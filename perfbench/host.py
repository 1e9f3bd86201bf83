"""Runs requests in-process against gwa_skew, one JSON line in, one out.

Started by run.py in a fresh interpreter for each pass of a workload, with
the repository's `src` on PYTHONPATH.  Each request line is either
{"argv": [...], "stdin": "..."} for `gwa_skew.cli.run` or
{"call": "sigma_q_dimension", "algebra": ..., "q": ..., "M": ..., "N": ...}.
Only the library call is timed; the --input text, the algebra of a direct
call and the capture buffers are prepared before the clock starts.  After
a request, once CALIBRATE_EVERY_S of request time has passed since the last
one, the host times the calibration kernel and sends it with the reply.  At
end of input the host answers with peak memory and, under --trace, the
tracer's in-memory aggregates.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from fractions import Fraction

import calibrate

CALIBRATE_EVERY_S = 0.05


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    proto_in, proto_out = sys.stdin, sys.stdout

    import gwa_skew.cli
    from gwa_skew import disc_plane
    from gwa_skew.gwa import GwaAlgebra

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    algebras: dict[tuple[str, str], GwaAlgebra] = {}
    index = 0
    since_calibration = CALIBRATE_EVERY_S
    for line in proto_in:
        req = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        if "call" in req:
            key = (req["algebra"], req["q"])
            if key not in algebras:
                make = GwaAlgebra.disc if req["algebra"] == "disc" else GwaAlgebra.plane
                algebras[key] = make(Fraction(req["q"]))
            A, M, N = algebras[key], req["M"], req["N"]
            if tracer:
                tracer.request = index
            start = time.perf_counter()
            try:
                value = disc_plane.sigma_q_dimension(A, M, N)
            except Exception as e:  # reported as a failed request
                value, exc = None, f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
            out.write(str(value))
        else:
            argv = req["argv"]
            sys.stdin, sys.stdout, sys.stderr = io.StringIO(req["stdin"]), out, err
            if tracer:
                tracer.request = index
            start = time.perf_counter()
            try:
                code = gwa_skew.cli.run(argv)
            except Exception as e:  # an escaped exception is a contract break
                exc = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = proto_in, proto_out, sys.__stderr__
        reply = {"code": code, "out": out.getvalue().strip(), "exc": exc, "t": elapsed, "at": start}
        since_calibration += elapsed
        if since_calibration >= CALIBRATE_EVERY_S:
            reply["cal"] = (time.perf_counter(), calibrate.kernel_seconds())
            since_calibration = 0.0
        proto_out.write(json.dumps(reply) + "\n")
        proto_out.flush()
        index += 1

    final = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        final["trace"] = tracer.export()
    proto_out.write(json.dumps({"final": final}) + "\n")
    proto_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
