"""Set-up time of a fresh interpreter: import gwa_skew.cli, answer one request.

The clock starts just before the import, so interpreter boot is left out.
Prints one JSON line: the elapsed seconds, the exit code, the output, and
the median of five calibration-kernel timings taken afterwards.
"""

import io
import sys
import time

start = time.perf_counter()
import gwa_skew.cli  # noqa: E402

buf = io.StringIO()
sys.stdout = buf
code = gwa_skew.cli.run(["lemma52", "--q=2", "--n=1"])
sys.stdout = sys.__stdout__
elapsed = time.perf_counter() - start

import json  # noqa: E402
import statistics  # noqa: E402

import calibrate  # noqa: E402

cal = statistics.median(calibrate.kernel_seconds() for _ in range(5))
print(json.dumps({"setup_s": elapsed, "code": code, "out": buf.getvalue().strip(), "cal": cal}))
