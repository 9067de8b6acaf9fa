"""A work clock: time measured at a fixed reference speed of the machine.

The machine this benchmark was tuned on changes speed many times a second:
a share of the time the same Python code runs about 1.7 times slower, and
the CPU time grows with the wall time, so the process is not descheduled
but slowed.  How much of a run falls in the slow state differs from run to
run and from minute to minute, by more than a change worth measuring.

``WorkClock`` samples the current speed every ``TICK_S`` seconds from a
SIGALRM handler: it times a fixed pure-Python kernel of Fraction arithmetic,
which does not use fisheq, and advances its reading by wall time times
``KERNEL_S`` over the kernel's time.  Its readings are therefore seconds
at the speed at which the kernel takes ``KERNEL_S``, about the fast state of
that machine, and the handler's own time is left out.  Timings of the
program taken with it move with the program and far less with the machine.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

TICK_S = 0.005
# The kernel's time on an uncontended core of the machine the benchmark was
# tuned on (an Intel Xeon KVM guest with 2 vCPUs, Python 3.11).
KERNEL_S = 0.0001


def kernel():
    """Fixed Fraction arithmetic, about 0.1 ms on that machine."""
    x = Fraction(1)
    for i in range(1, 20):
        y = x * Fraction(i % 97 + 1, i % 89 + 2) + Fraction(1, i % 13 + 1)
        x = Fraction(y.numerator % 1000, 7)
    return x


class WorkClock:
    """Call it for the current reading, in reference seconds.  Only one may
    run at a time: it owns SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = 0
        self._work = 0.0
        self._last = perf_counter()
        self._speed = 1.0
        self._previous = None

    def __call__(self):
        return self._work + (perf_counter() - self._last) * self._speed

    def _sample(self):
        began = perf_counter()
        kernel()
        self._last = perf_counter()
        self._speed = KERNEL_S / (self._last - began)

    def _tick(self, signum, frame):
        self._work += (perf_counter() - self._last) * self._speed
        self._sample()
        self.samples += 1

    def start(self):
        self._sample()  # the first call warms the kernel up
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
