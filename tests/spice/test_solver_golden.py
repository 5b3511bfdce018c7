"""Golden-waveform agreement: sparse backend versus dense backend.

For each benchmark testbench (5T OTA, StrongARM comparator,
ring-oscillator VCO) the sparse backend reproduces the dense backend's
measured metrics within the cost-function tolerance, and on a linear
network the two backends agree to solver precision pointwise.  Each
test compares both backends, so it pins them in turn by moving the size
threshold (the ``backend`` fixture pins one per test instead).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.spice import (
    Circuit,
    CompiledCircuit,
    dc_operating_point,
    ac_analysis,
    kernel,
    transient,
)
from repro.spice.waveforms import Pulse
from repro.tech import Technology

#: Relative metric tolerance -- the optimization cost function treats
#: metric deviations below ~1% as noise; the backends agree far tighter
#: on most metrics, but Newton convergence decisions can flip on
#: last-bit differences between LU orderings.
COST_TOL = 1e-2


@contextmanager
def use_solver(name):
    """Pin every system to backend ``name`` inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            kernel,
            "SPARSE_MIN_SIZE",
            0 if name == kernel.SPARSE else sys.maxsize,
        )
        yield


def _compare(dense: dict, sparse: dict):
    assert set(sparse) == set(dense)
    for key, ref in dense.items():
        assert sparse[key] == pytest.approx(ref, rel=COST_TOL), key


def test_rc_ladder_waveforms_agree_pointwise(tech):
    """Linear network: identical step sequence, so the backends must
    agree to solver precision, not just metric tolerance."""
    c = Circuit("ladder")
    c.add_vsource(
        "vin", "n0", "0", Pulse(0.0, 1.0, delay=1e-10, rise=1e-11, width=1.0)
    )
    for k in range(6):
        c.add_resistor(f"r{k}", f"n{k}", f"n{k + 1}", 1e3)
        c.add_capacitor(f"c{k}", f"n{k + 1}", "0", 2e-13)
    cc = CompiledCircuit(c, tech.rules)
    waves = {}
    for backend in ("dense", "sparse"):
        with use_solver(backend):
            tr = transient(cc, t_stop=5e-9, dt=1e-11)
        waves[backend] = tr.v("n6")
    np.testing.assert_allclose(
        waves["sparse"], waves["dense"], rtol=1e-9, atol=1e-12
    )


def test_ac_sweep_agrees_across_backends(tech):
    c = Circuit("rcfilt")
    c.add_vsource("vin", "in", "0", 0.0, ac_magnitude=1.0)
    c.add_resistor("r1", "in", "out", 10e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    cc = CompiledCircuit(c, tech.rules)
    op = dc_operating_point(cc)
    with use_solver("dense"):
        dense = ac_analysis(cc, op)
    with use_solver("sparse"):
        sparse = ac_analysis(cc, op)
    np.testing.assert_allclose(dense.freqs, sparse.freqs)
    np.testing.assert_allclose(
        sparse.v("out"), dense.v("out"), rtol=1e-9, atol=1e-15
    )


@pytest.fixture(scope="module")
def _tech():
    return Technology.default()


def test_ota_metrics_agree(_tech):
    from repro.circuits import FiveTransistorOta

    ota = FiveTransistorOta(_tech)
    with use_solver("dense"):
        dense = ota.measure(ota.schematic())
    with use_solver("sparse"):
        sparse = ota.measure(ota.schematic())
    _compare(dense, sparse)


def test_strongarm_metrics_agree(_tech):
    from repro.circuits import StrongArmComparator

    comparator = StrongArmComparator(_tech)
    with use_solver("dense"):
        dense = comparator.measure(comparator.schematic(), dt=2e-12)
    with use_solver("sparse"):
        sparse = comparator.measure(comparator.schematic(), dt=2e-12)
    _compare(dense, sparse)


def test_vco_metrics_agree(_tech):
    from repro.circuits import RingOscillatorVco

    vco = RingOscillatorVco(_tech)
    with use_solver("dense"):
        dense = vco.measure(vco.schematic(), periods=6, steps_per_period=150)
    with use_solver("sparse"):
        sparse = vco.measure(vco.schematic(), periods=6, steps_per_period=150)
    _compare(dense, sparse)
