"""Host speed, sampled by a fixed reference kernel all through a run.

The shared host the benchmark was tuned on (2 vCPUs of a VM) changes speed
for seconds to minutes at a time: the same code runs 1.0x, 1.4x, 1.7x or 2x
as long, in CPU time as in wall time, on either vCPU. Wall times alone then
measure the neighbours. So every run also times a small fixed kernel every
CADENCE_S seconds, from a SIGALRM handler that runs between bytecodes of
whatever the main thread is doing, edhi calls included, and reports each
operation's time scaled to nominal host speed:

    normalized = busy seconds * REF_S / (mean kernel time around it)

Busy seconds are the operation's wall time less the probes that ran inside
it (about 6 ms each, 2-3% of the run).

The kernel is the benchmark's own code, never edhi's, so a change to edhi
moves the normalized times exactly as it moves wall time, while a change of
host speed moves the kernel with the operations and cancels. The kernel mixes
small numpy calls and interpreter work the way edhi's hot loops do (an LSTM
cell step on 30 units, then a 20-cycle squared distance): over 150 s on the
tuning host its time tracked the median predict_one's within a few percent
through every speed level, where raw times moved by up to 2x. The costliest
predict_one calls slow down less than the kernel, so latency tails keep more
of the host's noise than medians and totals do.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Best-of-three kernel time at the tuning host's full speed, seconds (its
# median over 15 s was 1.7 ms, its 5th percentile 1.0 ms). It only sets the
# scale: a normalized time is the wall time the operation would take on a
# host where the kernel takes REF_S.
REF_S = 1.0e-3
CADENCE_S = 0.25
# One probe is noisier than the host's speed levels are short: an operation
# is scaled by the mean of the probes up to WINDOW_S before and after it.
WINDOW_S = 1.0
_BEST_OF = 3

_rng = np.random.default_rng(20160820)
_X = _rng.standard_normal(40)
_Y = _rng.standard_normal(40)
_W = 0.1 * _rng.standard_normal((33, 120))


def _kernel() -> float:
    h = np.zeros(30)
    total = 0.0
    for i in range(100):
        z = np.concatenate((_X[:3], h)) @ _W
        h = np.tanh(z[:30]) * (1.0 / (1.0 + np.exp(-z[30:60])))
        d = _X[i % 10 : i % 10 + 20] - _Y[:20]
        total += float(d @ d)
    return total


class HostClock:
    """Reference-kernel samples over one run, and scaling by them.

    Use as a context manager around the run: it probes on entry, every
    CADENCE_S seconds while inside, and on exit.
    """

    def __init__(self) -> None:
        self.times: list[float] = []  # probe start times, ascending
        self.kernel_s: list[float] = []
        self.spent_s = 0.0  # wall time spent probing
        self._probing = False

    def probe(self, *_signal) -> None:
        if self._probing:  # an alarm during a probe
            return
        self._probing = True
        start = time.perf_counter()
        best = float("inf")
        for _ in range(_BEST_OF):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append(start)
        self.kernel_s.append(best)
        self.spent_s += time.perf_counter() - start
        self._probing = False

    def __enter__(self) -> HostClock:
        self.probe()
        self._saved = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, CADENCE_S, CADENCE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self.probe()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean kernel time around [start, end].

        Around: the probes from WINDOW_S before to WINDOW_S after the
        interval, and at least the last one before and the first one after.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        hi = max(hi, bisect.bisect_right(self.times, end) + 1)
        return REF_S / statistics.fmean(self.kernel_s[lo:hi])

    def normalize(self, span: tuple[float, float, float]) -> float:
        """Normalized seconds of a (start, end, busy seconds) span."""
        start, end, busy = span
        return busy * self.scale(start, end)


CLOCK = HostClock()
