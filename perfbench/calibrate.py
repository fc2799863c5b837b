"""Host-speed sampling, so that timings can be scaled to a reference host.

On a shared host the same pure-Python work can run twice as fast at one
moment as a minute later, in CPU time as well as wall time.  A `Sampler`
times a short fixed slice of pure-Python work (Fraction arithmetic, tuple
and dict operations, like the library's) every SAMPLE_EVERY_S of process CPU
time, from a SIGVTALRM handler, so slices also land inside long operations.
An operation's time is then scaled by REFERENCE_S over the mean duration of
the slices taken during it, leaving out the fastest and the slowest fifth: a
slice in which the process lost the core for a moment is far slower than
the others, while the operation around it lost only that moment.  An
operation too short to hold NEAREST slices is scaled by the plain mean of
the NEAREST slices next to it, as trimming those few only lost precision.
The slice uses only the standard library, so a change to blocko cannot
change it; the time spent in slices is subtracted from the operations they
interrupted.
"""

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010  # one slice on the reference host
SLICE_ITERATIONS = 2400
SAMPLE_EVERY_S = 0.2
NEAREST = 5  # slices used for an operation that holds fewer


def slice_seconds():
    """Wall time of one calibration slice."""
    start = time.perf_counter()
    total = Fraction(0)
    counts = {}
    for i in range(1, SLICE_ITERATIONS):
        total += Fraction(i % 97 + 1, i % 13 + 1)
        key = (i % 31, i % 7, i % 5)
        counts[key] = counts.get(key, 0) + 1
        tuple(sorted((i % 11, i % 3, i % 17)))
    return time.perf_counter() - start


class Sampler:
    """Calibration slices, as (time, seconds), and the time they took."""

    def __init__(self, tracer=None):
        self.slices = []
        self.spent = 0.0
        self.tracer = tracer  # its open call is not charged for slices

    def sample(self, *_):
        start = time.perf_counter()
        self.slices.append((start, slice_seconds()))
        spent = time.perf_counter() - start
        self.spent += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)

    def start(self):
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def factor(self, start=None, end=None):
        """Scale for the interval [start, end] (default: all slices)."""
        if start is None:
            chosen = self.slices
        else:
            chosen = [s for s in self.slices if start <= s[0] <= end]
            if len(chosen) < NEAREST:
                middle = (start + end) / 2
                nearest = sorted(self.slices, key=lambda s: abs(s[0] - middle))[:NEAREST]
                return REFERENCE_S / statistics.mean(seconds for _, seconds in nearest)
        durations = sorted(seconds for _, seconds in chosen)
        cut = len(durations) // 5
        return REFERENCE_S / statistics.mean(durations[cut:len(durations) - cut])
