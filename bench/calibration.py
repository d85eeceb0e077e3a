"""Host speed, read off work that owes nothing to ultranorm.

A shared host can run the same code at half speed for tens of seconds at
a time, and change speed within a second.  Each timed operation is
therefore scaled by the mean host speed read just before it and just after
it, relative to a nominal speed, about that of an idle 2-core x86-64
CPython 3.11 host.

- Work in this process is read against a fixed loop of the kind of work
  ultranorm does, ``Fraction`` arithmetic and counting prime factors, also
  every ``INTERVAL_S`` while the operation runs (``Sampler``).
- A process (a set-up, a CLI call) is read against a bare interpreter
  start, which the loop does not follow.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.002
STEPS = 450
INTERVAL_S = 0.05
NOMINAL_PROCESS_S = 0.05


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, STEPS):
        a = Fraction(i, 3 ** (i % 5) + 1) - acc
        num, v = a.numerator, 0
        while num and num % 3 == 0:
            num //= 3
            v += 1
        acc = Fraction(1, 3 ** v) + Fraction(i % 7, 2)
    return perf_counter() - t0


def speed() -> float:
    """How much faster than nominal the host runs now (below 1: slower)."""
    return NOMINAL_S / calibrate()


def process_speed(env: dict) -> float:
    """``speed`` for processes: a bare ``python -c pass`` against nominal."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return NOMINAL_PROCESS_S / (perf_counter() - t0)


class Sampler:
    """Reads ``speed()`` every ``INTERVAL_S`` while armed, from a SIGALRM
    handler in the main thread, and keeps the time spent doing so."""

    def __init__(self):
        self.speeds: list[float] = []
        self.paused = 0.0
        self._armed = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.speeds.append(speed())
        self.paused += perf_counter() - t0

    def arm(self) -> None:
        self.disarm()
        self.speeds, self.paused = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._armed = False
