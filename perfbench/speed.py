"""Timing at a reference host speed.

On a shared virtual machine the same code can run 1.5 to 2 times slower
for tens of seconds at a time, and every process on the box slows
together. Raw wall times of identical runs then differ by 20 to 40 %,
which hides any change to the program. The benchmark therefore times
each operation twice over:

* its raw wall time, and
* the host's current speed, by running a fixed pure-Python kernel just
  before and after the operation and, on a SIGALRM interval timer, every
  ``interval`` seconds during it (in the same thread, so on the same CPU).

Reference time = (raw time - time spent in the kernel during the
operation) x mean(REFERENCE_KERNEL_S / kernel time). It is the wall time
the operation would take on a host where the kernel takes
REFERENCE_KERNEL_S, a figure measured on an idle 2-core Xeon VM at
2.1 GHz. Work the program adds or removes moves it one-for-one; the host
slowing down does not. Raw times are kept next to it in the run's result
file.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

KERNEL_STEPS = 16000
REFERENCE_KERNEL_S = 9.0e-4
BOUNDARY_SAMPLES = 3


def kernel() -> int:
    s = 0
    for i in range(KERNEL_STEPS):
        s += (i * i) % 7
    return s


def kernel_time() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


@dataclass
class Timing:
    raw_s: float
    ref_s: float
    samples: int


class Clock:
    """Measures a call in raw and in reference seconds."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval

    def measure(self, fn, *args, **kwargs):
        """Returns (fn's result, Timing)."""
        samples = [kernel_time() for _ in range(BOUNDARY_SAMPLES)]
        inside = [0.0]

        def on_alarm(signum, frame):
            t = time.perf_counter()
            samples.append(kernel_time())
            inside[0] += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        samples += [kernel_time() for _ in range(BOUNDARY_SAMPLES)]
        speed = sum(REFERENCE_KERNEL_S / s for s in samples) / len(samples)
        return result, Timing(raw, (raw - inside[0]) * speed, len(samples))
