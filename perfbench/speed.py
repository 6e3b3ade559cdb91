"""Machine-speed sampling, so that run times can be stated at a fixed speed.

The benchmark shares a few cores of a host with other tenants. Over a
minute the same pass can take twice as long, and the CPU time slows down
with the wall time, so the drift is the speed of the core and not waiting
for it. Medians and longer runs do not remove drift on that time scale.

A `Sampler` measures the speed all through a run. A SIGALRM timer
interrupts the one benchmark thread every `PERIOD_S` of wall time and runs
a fixed snippet of pure-Python dict, int and loop work, like the solver's,
and records how long it took. Over two-second windows a solve's time and
the snippet's time moved together to within about 5% while either one moved
by 30%.

`normalize(t0, t1, raw)` restates the raw time of the interval [t0, t1] at
the reference speed. The reference speed is the speed at which one snippet
takes `REF_SNIPPET_S`. The result is `raw` times the mean of
`REF_SNIPPET_S / snippet time` over the samples near the interval. A mean
of speeds, not of times, keeps a sample the scheduler stretched from
counting for more than one. The snippet is part of the benchmark and never
changes with the program, so a faster program still shows as a shorter
normalized time. The time spent inside the handler is counted in `spent`
and callers take it out of their raw times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

PERIOD_S = 0.02
REF_SNIPPET_S = 200e-6
WINDOW_S = 0.5  # samples this close to an interval count for it
MIN_SAMPLES = 10


def snippet() -> int:
    """Fixed pure-Python work, about 0.2 ms on a 2.1 GHz Xeon core."""
    d = {}
    acc = 0
    for i in range(600):
        k = (i * 2654435761) & 511
        d[k] = d.get(k, 0) + i
        acc ^= k << (i & 7)
    return acc


class Sampler:
    """Times `snippet()` every PERIOD_S of wall time from a SIGALRM handler."""

    def __init__(self) -> None:
        self.at = array("d")  # perf_counter() at the start of each sample
        self.took = array("d")  # seconds the snippet took
        self.spent = 0.0  # seconds spent inside the handler in total
        self._busy = False
        self._old = None

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a late tick while the previous one still runs
            return
        self._busy = True
        t0 = perf_counter()
        snippet()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed near [t0, t1], as a multiple of the reference speed."""
        at, took = self.at, self.took
        if not at:
            raise RuntimeError("no speed samples: the sampler never ran")
        lo = bisect.bisect_left(at, t0 - WINDOW_S)
        hi = bisect.bisect_right(at, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:  # widen to the nearest samples
            mid = bisect.bisect_left(at, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(at) - MIN_SAMPLES))
            hi = min(len(at), lo + MIN_SAMPLES)
        return statistics.fmean(REF_SNIPPET_S / took[i] for i in range(lo, hi))

    def normalize(self, t0: float, t1: float, raw: float) -> float:
        """`raw` seconds spent in [t0, t1], restated at the reference speed."""
        return raw * self.speed(t0, t1)

    def summary(self) -> dict:
        took = sorted(self.took)
        return {
            "samples": len(took),
            "snippet_p10_us": round(1e6 * took[len(took) // 10], 1) if took else None,
            "snippet_p50_us": round(1e6 * statistics.median(took), 1) if took else None,
            "snippet_p90_us": round(1e6 * took[9 * len(took) // 10], 1) if took else None,
            "handler_s": round(self.spent, 4),
        }
