"""Unit tests of the host-speed correction and of how the worker's loop
excludes the sampling time from each execution.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/flowbench -q
"""

from __future__ import annotations

import signal
import time

import pytest

import worker
from hostspeed import BURST, REFERENCE_S, HostSpeed


@pytest.mark.parametrize(
    "start, end, kernel_mean",
    [
        (0.5, 3.5, 0.010),  # three samples inside: their mean
        (9.9, 10.1, (0.020 + 0.010 + 0.010) / 3),  # one inside: nearest three
    ],
)
def test_factor_uses_samples_in_or_nearest_the_interval(start, end, kernel_mean):
    speed = HostSpeed()
    speed.samples = [(0.0, 0.005), (1.0, 0.010), (2.0, 0.010), (3.0, 0.010), (10.0, 0.020)]
    assert speed.factor(start, end) == pytest.approx(REFERENCE_S / kernel_mean)


def test_a_short_interval_is_corrected_by_the_burst_after_it():
    speed = HostSpeed()
    start = time.perf_counter()
    end = time.perf_counter()
    speed.burst()
    assert len(speed.samples) == BURST
    nearest = [s for _, s in speed.samples[:3]]
    assert speed.factor(start, end) == pytest.approx(REFERENCE_S * 3 / sum(nearest))


class _Spin:
    """A workload whose one unit burns CPU for a fixed time."""

    units = ["spin"]

    def prepare(self, unit):
        return None

    def cleanup(self, prepared):
        return None

    def run(self, unit, prepared):
        end = time.process_time() + 0.8
        while time.process_time() < end:
            pass
        return unit


def test_sampling_time_is_excluded_and_the_timer_restored():
    previous = signal.getsignal(signal.SIGPROF)
    speed = HostSpeed()
    loop = worker.Loop(_Spin(), ["spin"], speed)
    with speed.sampling():
        interval = loop.execute("spin")
    start, end, stolen = interval
    assert len(speed.samples) >= 2
    assert stolen == pytest.approx(speed.stolen)
    assert stolen >= sum(s for _, s in speed.samples)
    assert worker.seconds_of(interval) == pytest.approx(end - start - stolen)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous
