"""Machine-speed meter: a fixed reference task timed between measured work.

On a shared machine the speed of the core drifts by tens of percent within
seconds, and every kind of pure-Python work slows together.  Each timing the
benchmark reports is therefore scaled by the reference task's nominal time
over its mean time in samples taken during the same window of work:

    reported = measured * REFERENCE_NOMINAL_S / mean(reference samples)

so figures read as if the reference task took REFERENCE_NOMINAL_S.  A
window spans seconds of work: the speed swings faster than that, so a
window as short as one fresh CLI process would be scaled by noise.  The
reference task never touches the program, so a change to the program moves
the reported figures exactly as it moves the measured ones.  The measured
figures and the scale factor are printed to standard error as well.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time

clock = time.perf_counter

#: The reference task's time on the machine the figures are scaled to.
REFERENCE_NOMINAL_S = 0.004
#: Share of the measured time spent on reference samples.  A quarter gives
#: dozens of samples per window of seconds, enough to average out the
#: speed's swings, while costing only a quarter more run time.
DUTY = 0.25

# Nested dicts like the protocol state: deep copy, canonical JSON and
# SHA-256 are the program's own hot operations; the loop adds bytecode.
_DATA = {f"k{i:04d}": {"a": i, "b": [i, str(i)], "c": {"x": i * 0.5}} for i in range(300)}


def reference_task() -> float:
    """Run the fixed task once; returns its wall time in seconds."""
    t0 = clock()
    dumped = json.dumps(copy.deepcopy(_DATA), sort_keys=True, separators=(",", ":"))
    hashlib.sha256(dumped.encode("utf-8")).hexdigest()
    total = 0
    for i in range(7000):
        total += i * i
    return clock() - t0


class Meter:
    """Samples the reference task for a fixed share of the measured time.

    `tick` is called between timed operations; it runs the reference task
    until samples cover DUTY of the time elapsed since the previous tick,
    so that long operations get as many samples as many short ones.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = clock()
        self._owed = 0.0

    def sample(self) -> None:
        seconds = reference_task()
        self.samples.append(seconds)
        self._owed -= seconds
        self._last = clock()

    def tick(self) -> None:
        self._owed += (clock() - self._last) * DUTY
        self._last = clock()
        while self._owed > 0:
            self.sample()

    def mark(self) -> int:
        """Open a window: samples now and returns the window's first index."""
        self.sample()
        self._owed = 0.0
        return len(self.samples) - 1

    def scale(self, start: int) -> float:
        """Close a window opened by `mark`: nominal over mean sample time."""
        self.tick()
        self.sample()
        window = self.samples[start:]
        return REFERENCE_NOMINAL_S * len(window) / sum(window)
