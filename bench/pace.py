"""Host-speed correction of the benchmark's CPU times.

On a shared virtual machine the same pure-Python work takes from 1x to
2x the CPU time, in states that last from a second to minutes (other
guests contend for the core; steal time is already left out of CPU
time). A fixed piece of reference work, a small DPLL run on fixed
formulas, slows down with the program: timed in alternation with
program commands, the two moved together (correlation 0.97 over 2.5 s
windows), and their ratio spread a quarter to an eighth as much as the
program's time alone. One verify of a point certificate, repeated twelve times in one
process, took 2.5-3.9 CPU seconds and 1.91-2.18 reference seconds.

`Pace` therefore interrupts the program every SAMPLE_S of CPU time
(ITIMER_PROF), times one reference unit, and counts the program's CPU
time since the previous sample at the speed that unit showed. The result
is program time in reference seconds: CPU seconds on a host where one
reference unit takes REFERENCE_UNIT_S. The reference is the benchmark's
own code, so a change to the program moves these times as it moves the
raw ones; the sampler's own time is left out of them.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import time

import checks
import inputs

# The main thread's CPU clock. Once a process-wide CPU timer such as
# ITIMER_PROF is armed, Linux reads the process clock from the timer's
# tick-updated total, so time.process_time() then moves in 4 ms steps
# (and may read the same across a whole unit); the thread clock stays
# exact. The program runs in this one thread.
CLOCK = time.thread_time
SAMPLE_S = 0.1
# One reference unit in a calm state of the 2-vCPU host (2.0 GHz) the
# benchmark was tuned on; it fixes the scale of the reported seconds.
REFERENCE_UNIT_S = 0.004
_FORMULAS = [inputs.random_3cnf(22, 94, random.Random("reference"))
             for _ in range(3)]


def slowdown(units: int = 5) -> float:
    """The host's slowdown now: the median of a few reference units."""
    times = sorted(reference_unit() for _ in range(units))
    return times[units // 2] / REFERENCE_UNIT_S


def reference_unit() -> float:
    """CPU seconds of one fixed piece of reference work.

    The collector is off while it runs: a collection there would walk
    the program's heap and charge the program's size to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = CLOCK()
        for clauses in _FORMULAS:
            checks.dpll_sat(clauses)
        return CLOCK() - start
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Program CPU time in reference seconds, sampled while it runs."""

    def __init__(self):
        self.slowdown = 1.0
        self.total = 0.0      # program time so far, in reference seconds
        self.samples = []     # slowdown of each sample
        self._busy = False
        self._measure()
        self._mark = CLOCK()  # CPU time at the end of the counted time

    def _measure(self):
        unit = reference_unit()
        self.slowdown = unit / REFERENCE_UNIT_S
        self.samples.append(self.slowdown)

    def _count(self, now):
        self.total += (now - self._mark) / self.slowdown
        self._mark = now

    def _sample(self, signum, frame):
        if self._busy:   # read() or another sample is updating the fields
            return
        self._busy = True
        try:
            self._count(CLOCK())
            self._measure()
            self._mark = CLOCK()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def paused(self):
        """No samples in this block, for work that times references itself."""
        self._busy = True
        try:
            yield
        finally:
            self._busy = False

    def read(self) -> float:
        """Program time so far, in reference seconds."""
        self._busy = True
        self._count(CLOCK())
        self._busy = False
        return self.total

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._mark = CLOCK()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

