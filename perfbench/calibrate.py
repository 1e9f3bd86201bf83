"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On the hosts this benchmark was built on, the same pure-Python work ran up
to twice as slow for stretches of seconds to minutes, so raw wall times of
two identical runs differed by 20-35%.  A fixed kernel of exact Fraction
arithmetic, the kind of work gwa_skew does, slows down in step with it.  The
benchmark times that kernel between requests (never inside one) and scales
each request's time by REFERENCE_S / (kernel time nearby): a figure is the
time the request would take on a machine where the kernel takes
REFERENCE_S.  The kernel uses only the standard library, so no change to
gwa_skew can change it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Typical kernel time on the 2-CPU Intel Xeon container the baseline was
# taken on (Python 3.11); its fast stretches ran the kernel in 1.4 ms.
REFERENCE_S = 0.002
# Half-width, in seconds of wall time, of the window of kernel timings
# that sets the speed for one request.
WINDOW_S = 1.0

_A = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(24)]
_B = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(24)]


def kernel_seconds() -> float:
    """One timed run of the kernel, with the collector off so that garbage
    left by the program cannot be collected on the kernel's clock."""
    gc.disable()
    try:
        start = time.perf_counter()
        out = [Fraction(0)] * (len(_A) + len(_B) - 1)
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                out[i + j] += a * b
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale_factors(request_times: list[float], marks: list[tuple[float, float]]) -> list[float]:
    """REFERENCE_S over the median kernel time within WINDOW_S of each
    request start; marks are (wall time, kernel seconds), sorted by time."""
    at = [m[0] for m in marks]
    out = []
    for t in request_times:
        lo = bisect.bisect_left(at, t - WINDOW_S)
        hi = bisect.bisect_right(at, t + WINDOW_S)
        if hi - lo < 3:  # too few nearby: take the three nearest
            i = bisect.bisect_left(at, t)
            lo, hi = max(0, i - 2), min(len(at), i + 2)
        out.append(REFERENCE_S / statistics.median(m[1] for m in marks[lo:hi]))
    return out
