"""Host-speed correction for times measured on a shared host.

The benchmark host shares its cores with other tenants.  Their load slows
every instruction of a workload, by up to a third, for seconds to minutes
at a time, and CPU time slows with wall time, so no other clock is
steadier.  This module measures the slowdown instead.  It times a fixed
calibration kernel (small dense solves and dict building: the same mix of
interpreter and small-LAPACK work as the program) throughout the measured
section, and scales each measured interval by ``REFERENCE_S / k``, where
``k`` is the mean kernel time around that interval.  A corrected time is
in *reference seconds*: how long the interval takes on a host where the
kernel runs in ``REFERENCE_S``, which is about its mean time on the quiet
2-vCPU host of ``baseline/machine.json``.

While :meth:`HostSpeed.sampling` is active, a profiling timer runs the
kernel inside the workload's own thread every ``PERIOD_S`` of process CPU
time.  The samples therefore cover the whole run, including the inside of
long units, and not only the gaps between units.  Python runs the handler
between two bytecodes, never inside a native call, so the program's state
is consistent whenever the kernel runs.  The kernel's own time inside a
measured interval is subtracted from it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Kernel time that defines a reference second (see the module docstring).
REFERENCE_S = 0.005
#: Process CPU time between two samples while sampling: about 2.5% of the
#: run goes to the kernel, and all of it is subtracted.
PERIOD_S = 0.2
#: Fewest samples behind one correction.  An interval with fewer samples
#: inside it uses the samples nearest to its midpoint.
MIN_SAMPLES = 3
#: Back-to-back samples behind a one-off correction, such as set-up time.
BURST = 40
#: Solve-and-dict rounds in one kernel run (about 5 ms).
KERNEL_ROUNDS = 400

_clock = time.perf_counter


class HostSpeed:
    """Kernel timings of one process, and the corrections they give.

    Attributes:
        samples: ``(start, seconds)`` of every kernel run, in clock order.
        stolen: Total seconds the timer handler has taken from the
            workload; an interval subtracts the part that fell inside it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((24, 24)) + 24.0 * np.eye(24)
        self.samples: list[tuple[float, float]] = []
        self.stolen = 0.0
        self._busy = False

    def sample(self) -> None:
        """Run the kernel once and record how long it took."""
        a = self._matrix
        start = _clock()
        for i in range(KERNEL_ROUNDS):
            np.linalg.solve(a, a[:, i % 24])
            sum({k: 2 * k for k in range(40)}.values())
        self.samples.append((start, _clock() - start))

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = _clock()
        try:
            self.sample()
        finally:
            self.stolen += _clock() - start
            self._busy = False

    @contextmanager
    def sampling(self):
        """Sample every ``PERIOD_S`` of CPU time until the block ends."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def factor(self, start: float, end: float) -> float:
        """Correction for an interval: ``REFERENCE_S`` over the mean kernel
        time of the samples inside ``[start, end]``, or of the
        ``MIN_SAMPLES`` samples nearest its midpoint when fewer fall
        inside."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
            inside = [s for _, s in nearest[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.fmean(inside)

    def burst(self) -> None:
        """Take ``BURST`` samples back to back, so that a short interval
        just before has samples near it."""
        for _ in range(BURST):
            self.sample()
