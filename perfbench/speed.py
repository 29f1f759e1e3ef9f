"""The machine's speed, sampled while a workload runs.

The benchmark runs on shared hosts whose speed drifts by up to 1.5x over
seconds to minutes, and the same code then takes 1.5x as long. `SpeedProbe`
interrupts the process every INTERVAL_S seconds (SIGALRM) and times one
fixed pure-Python reference loop, `reference`, that does the same kinds of
work as sympdirac: Fraction arithmetic, integer arithmetic and dict traffic.
It does not call sympdirac, so a change to the program does not move it.

A time t measured while the loop took r seconds on average is reported at
reference speed: t * REFERENCE_S / r, the time t would have been on a
machine on which the loop takes exactly REFERENCE_S. The time the loop
itself took is removed from t first. Wall times are scaled by the loop's
mean wall time, which also counts the time the process was preempted;
CPU times by its mean CPU time, which does not. Spans too short for the
timer, such as set-up, are instead bracketed by loops run just before and
just after them (`calibrate`), and scaled by their median.
"""

from __future__ import annotations

import gc
import os
import signal
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time
from typing import List, Tuple

INTERVAL_S = 0.25
# nominal time of one reference loop: its median on a 2-core Intel Xeon VM
# (Python 3.11.7); it only scales the reported figures
REFERENCE_S = 0.004

Sample = Tuple[float, float, float]   # (start, wall time, CPU time)


def reference() -> Fraction:
    """A fixed amount of pure-Python work, about 4 ms."""
    acc = Fraction(0)
    table = {}
    n = 3 ** 40
    for i in range(1, 700):
        acc += Fraction(i, i + 7)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        n = (n * 7 + i) % (1 << 130)
    return acc + (n & 1)


def _timed() -> Sample:
    # the collector would make the loop's time depend on the program's heap
    enabled = gc.isenabled()
    gc.disable()
    t0, c0 = perf_counter(), thread_time()
    reference()
    sample = t0, perf_counter() - t0, thread_time() - c0
    if enabled:
        gc.enable()
    return sample


class SpeedProbe:
    """Times `reference` every INTERVAL_S seconds between start and stop."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._previous = None
        self._log = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(_timed())
        if self._log is not None:
            self._log.write("%r %r %r\n" % self.samples[-1])

    def calibrate(self, n: int) -> List[float]:
        """Wall times of n loops run now, back to back."""
        return [_timed()[1] for _ in range(n)]

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start_in_forks(self, log_dir: Path) -> None:
        """Sample in every process forked from now on, instead of this one.
        A process pool's workers keep both cores busy, so a loop run in the
        waiting parent would time the scheduler; each worker samples on
        its own core and writes its samples to log_dir (`read_forks`).
        perf_counter is system-wide, so the samples share one clock."""
        log_dir.mkdir(parents=True, exist_ok=True)

        def in_child() -> None:
            self.samples = []
            self._log = open(log_dir / f"speed-{os.getpid()}.txt", "a", buffering=1)
            self.start()

        os.register_at_fork(after_in_child=in_child)

    @staticmethod
    def read_forks(log_dir: Path) -> List[Sample]:
        samples = []
        for path in sorted(log_dir.glob("speed-*.txt")):
            for line in path.read_text().splitlines():
                start, wall, cpu = map(float, line.split())
                samples.append((start, wall, cpu))
        return samples

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def within(self, t0: float, t1: float) -> List[Sample]:
        return [s for s in self.samples if t0 <= s[0] < t1]


def at_reference_speed(t: float, loop_s: float) -> float:
    """t, measured while the reference loop took loop_s, at reference speed."""
    return t * REFERENCE_S / loop_s
