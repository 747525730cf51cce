"""Host speed, sampled while the benchmark times the program.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop, timed back to back for six minutes on a 2-vCPU
x86_64 guest, took between 21 and 42 ms, in phases of several seconds, and
the same ``eval`` probe took 0.37 s in one run and 0.58 s twenty minutes
later.  Raw times of two runs of the same code then differ by more than any
useful bound.

So the end-to-end times are reported at a fixed reference speed.  While the
program runs, an interval timer interrupts it every ``PERIOD`` seconds to run
``spin``, a fixed loop that touches nothing of the program.  A timed interval
is scaled by the mean speed (``REF_S`` over the spin's time) of the spins in
it and within ``MARGIN`` seconds of it, after the spins' own time inside the
interval is taken off.  On a host where ``spin`` takes ``REF_S``, scaled
times equal wall times.

The spin follows the speed of the core.  Slowdowns it does not see, such as
neighbours' use of the shared cache, stay in the scaled times.  On the guest
above, the quartile spread (as a share of the median) of 15-second medians
of one-point ``dfield.rho`` probes fell from 0.27 unscaled to 0.07 when
scaled by a loop timed beside each probe, and over ten whole runs per
workload every scaled time spread by 0.12 or less.
"""

from __future__ import annotations

import signal
import statistics
import time

SPIN_ITERS = 7_000
REF_S = 0.0005  # seconds spin() takes at the reference speed
PERIOD = 0.025  # 2% of the program's time goes to spins
# The host's speed also changes within a second, so an interval's speed is
# taken from the spins close to it.
MARGIN = 0.05


def spin() -> float:
    """Seconds taken by a fixed loop of integer arithmetic."""
    t0 = time.perf_counter()
    s = 0
    for i in range(SPIN_ITERS):
        s += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Spins taken on a timer between ``start`` and ``stop``, or by hand."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each spin
        self._old = None

    def sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append((t0, spin()))

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed, relative to the reference, in and around ``[t0, t1]``."""
        speeds = [REF_S / d for s, d in self.samples if t0 - MARGIN <= s <= t1 + MARGIN]
        if not speeds:
            raise RuntimeError(f"no host-speed sample within {MARGIN} s of [{t0}, {t1}]")
        return statistics.fmean(speeds)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval ``[t0, t1]`` would take at the reference speed.

        A spin runs in the main thread, so one that started inside the
        interval also ended inside it.
        """
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        return (t1 - t0 - inside) * self.factor(t0, t1)
