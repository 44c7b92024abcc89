"""Timings corrected for the drift of the machine's speed.

On a shared host the speed at which one vCPU runs Python drifts by up to
2x, in bursts from under a second to tens of seconds, with nothing in the
guest to show for it (no steal time, CPU time grows with wall time).
Identical operations then differ by as much as the changes the benchmark is
meant to find.  The speed changes within a tenth of a second, so an
interval timer runs a short fixed reference computation -- plain
interpreter work, as the solver is pure Python -- every ``PERIOD_S``,
during the operations and between them, and each measured span is scaled
by the reference's speed around it:

    seconds = (wall time of the span - time spent in the timer)
              * REF_S / median(reference times within MARGIN_S of the span)

that is, the seconds the span would take on a machine that runs the
reference computation in ``REF_S``, about its median time on a 2-vCPU
Intel Xeon virtual machine with Python 3.11.7.  The timer costs about 1 %
of the run.  The uncorrected wall times are kept next to the corrected ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from time import perf_counter

PERIOD_S = 0.005
MARGIN_S = 0.02
REF_S = 0.00005


def reference():
    counts = {}
    for i in range(400):
        counts[i % 37] = counts.get(i % 37, 0) + i * 3 // 7
    return sorted(counts.values())


class Sampler:
    """Times ``reference`` every ``PERIOD_S`` on SIGALRM while started."""

    def __init__(self):
        self.at, self.took = [], []  # midpoints and durations, in time order
        self.spent = 0.0  # time inside the handler, taken out of every span
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        reference()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self.spent += perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Sample for ``MARGIN_S`` more, so the last span has samples after it."""
        time.sleep(MARGIN_S)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self):
        """``perf_counter`` less the time spent in the timer so far."""
        return perf_counter() - self.spent

    def begin(self):
        return perf_counter(), self.spent

    def end(self, mark):
        """Span (start, end, wall seconds less the timer's) since ``begin``."""
        start, spent = mark
        end = perf_counter()
        return start, end, end - start - (self.spent - spent)

    def scale(self, span):
        """Seconds of ``span`` at the reference speed; call after ``stop``."""
        start, end, wall = span
        lo = bisect.bisect_left(self.at, start - MARGIN_S)
        hi = bisect.bisect_right(self.at, end + MARGIN_S)
        near = self.took[lo:hi]
        if len(near) < 3:  # the timer was starved: use the closest samples
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            near = self.took[max(0, mid - 2):mid + 2]
        return wall * REF_S / statistics.median(near)
