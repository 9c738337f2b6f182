"""Machine-speed sampling, so timings from a shared, drifting host compare.

On a machine shared with other tenants the same work can take anywhere from
1x to 1.7x as long, and the speed drifts over seconds to minutes.  A
``Speed`` samples it during a repetition without a thread: ``SIGALRM`` runs a
fixed pure-Python probe every ``INTERVAL_S`` seconds (in the main thread,
between bytecodes).  ``clock()`` is ``perf_counter`` with the time spent in
probes taken out.  ``factor()`` turns a probe-free duration into reference
seconds: the time it would have taken at the speed where one probe takes
``REF_S`` seconds.  Short operations take ``BRACKET`` probes right before
and after themselves as well, so their factor reflects the speed at that
moment.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.2
REF_S = 0.0025      # one probe on an uncontended core of the reference host
BRACKET = 3         # probes before and after each short operation


def probe_work() -> int:
    s = 0
    d = {}
    for i in range(25_000):
        s += i * i % 7
        d[i & 255] = s
    return s


class Speed:
    def __init__(self):
        self.samples: list = []     # every probe's duration
        self.ticks: list = []       # the timer's probes, evenly spaced
        self.spent = 0.0

    def probe(self, *signal_args) -> None:
        t = perf_counter()
        probe_work()
        d = perf_counter() - t
        self.samples.append(d)
        if signal_args:
            self.ticks.append(d)
        self.spent += d

    def __enter__(self) -> "Speed":
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        while True:
            spent = self.spent
            t = perf_counter()
            if spent == self.spent:     # no probe ran in between
                return t - spent

    def bracket(self) -> int:
        """Probe BRACKET times; returns the index of the first of them."""
        first = len(self.samples)
        for _ in range(BRACKET):
            self.probe()
        return first

    def factor(self, first: int = 0) -> float:
        """REF_S over the median of probes[first:]: the speed around one
        operation, robust to a probe that was interrupted."""
        if len(self.samples) <= first:
            raise RuntimeError("no speed samples taken")
        return REF_S / statistics.median(self.samples[first:])

    def average_factor(self) -> float:
        """REF_S over the mean timer probe: the average speed while the timer
        ran (all probes if it never fired)."""
        return REF_S / statistics.fmean(self.ticks or self.samples)
