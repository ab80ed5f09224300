"""Host-speed probe: a fixed slice of work timed every 50 ms during a round.

On a shared host the same round runs ±25% slower or faster from one minute
to the next, and process CPU time follows wall time, so the spread is the
host's speed, not preemption. A round's time is therefore scaled by how
fast the host ran the fixed slice during that round:

    normalized = (wall - time in slices) * NOMINAL_SLICE_S / median slice time

The slice runs from a SIGALRM handler, so the samples are spread over the
round whatever it is doing; its inputs are kept small (an 18 KB matrix) so
that the program's own working set moves it as little as possible. The handler runs between
bytecodes of the main thread, never inside a native call.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.linalg

INTERVAL_S = 0.05
# about the median slice time inside rounds on a 2-core Xeon host with one
# OpenBLAS thread; normalized times are seconds at that speed
NOMINAL_SLICE_S = 0.8e-3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((48, 48))
        self._a = a @ a.T + 48.0 * np.eye(48)
        self._b = rng.standard_normal(48)
        self.busy_s = 0.0
        self.slice_s: list[float] = []

    def _slice(self) -> None:
        x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(self._a), self._b)
        for _ in range(100):
            x = 0.5 * (x + 1e-3 * self._a[0])
            float(x @ x)
        s = 0
        for i in range(4000):
            s += i * i

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._slice()
        dt = time.perf_counter() - t0
        self.busy_s += dt
        self.slice_s.append(dt)

    def start(self) -> None:
        self.busy_s = 0.0
        self.slice_s = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter minus the time spent in slices so far."""
        return time.perf_counter() - self.busy_s

    def speed(self) -> float:
        """Host speed during the last start/stop window, 1.0 at nominal.

        The median slice, not the mean: a slice preempted by the host for
        a scheduling quantum would otherwise weigh as much as the whole
        round's drift.
        """
        return NOMINAL_SLICE_S / float(np.median(self.slice_s)) if self.slice_s else 1.0
