"""Machine speed, sampled while a pass runs, to time work at a fixed speed.

The shared 2-vCPU machine the benchmark was tuned on (Intel Xeon,
virtual machine) changes speed by up to 1.9x: in spells of a second to tens
of seconds, and in phases of tens of minutes.  Both vCPUs do so, and
process CPU time grows with wall time, so neither pinning nor CPU time
helps.  A pass therefore samples the machine's speed every PERIOD_S
seconds: a SIGALRM handler runs a fixed pure-Python reference loop,
which does no work of the program, and times it.  ``reference_s``
turns a stretch of wall time into the seconds it would have taken with
the reference loop at REFERENCE_S, by scaling each stretch between
samples by the speed the samples around it measured.  The samples'
own time is left out.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# the reference loop's time on that machine at its full speed
REFERENCE_S = 0.00085


def reference_loop() -> int:
    """Fixed interpreter work: arithmetic, calls, a dict and a list, with
    no objects the garbage collector tracks beyond those two, so that no
    collection of the program's objects runs inside a sample."""
    table, out, x = {}, [], 1
    for i in range(3000):
        x = (x * 1103515245 + i) & 0xFFFF
        key = (x & 255) * 8 + (i & 7)
        table[key] = table.get(key, 0) + 1
        out.append(abs(x - i))
    return len(table) + len(out)


class Speedometer:
    """Samples the reference loop every PERIOD_S seconds while running."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic()
        reference_loop()
        self.samples.append((t0, time.monotonic() - t0))

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def reference_s(self, start: float, end: float) -> float:
        """Wall time from start to end (monotonic clock), less the
        samples, in seconds at the reference speed.  A stretch before
        the first sample takes that sample's speed."""
        total, prev_end, prev_d = 0.0, start, None
        for t0, d in self.samples:
            if t0 > prev_end:
                stretch = min(t0, end) - prev_end
                speed = d if prev_d is None else (prev_d + d) / 2
                total += max(stretch, 0.0) * REFERENCE_S / speed
            if t0 >= end:
                return total
            prev_end, prev_d = max(prev_end, t0 + d), d
        if end > prev_end:
            total += (end - prev_end) * REFERENCE_S / prev_d
        return total
