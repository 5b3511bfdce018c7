"""Transient analysis against analytic waveforms."""

import numpy as np
import pytest

from repro.devices.mosfet import MosGeometry
from repro.errors import NetlistError
from repro.spice import Circuit, CompiledCircuit, dc_operating_point, transient
from repro.spice import kernel, measure
from repro.spice import tran as tran_mod
from repro.spice.waveforms import Pulse, Sin


def test_rc_step_response(tech):
    c = Circuit("rc")
    c.add_vsource("vin", "in", "0", Pulse(0.0, 1.0, delay=1e-9, rise=1e-12, width=1.0))
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)  # tau = 1ns
    cc = CompiledCircuit(c, tech.rules)
    tr = transient(cc, t_stop=6e-9, dt=5e-12)
    v = tr.v("out")
    k1 = np.argmin(np.abs(tr.t - 2e-9))  # 1 tau after the step
    k3 = np.argmin(np.abs(tr.t - 4e-9))  # 3 tau
    assert v[k1] == pytest.approx(1 - np.exp(-1), abs=0.01)
    assert v[k3] == pytest.approx(1 - np.exp(-3), abs=0.01)


def test_sinusoid_through_resistor(tech):
    c = Circuit("sin")
    c.add_vsource("vin", "in", "0", Sin(0.0, 1.0, 1e9))
    c.add_resistor("r1", "in", "0", 1e3)
    cc = CompiledCircuit(c, tech.rules)
    tr = transient(cc, t_stop=6e-9, dt=2e-12)
    assert np.max(tr.v("in")) == pytest.approx(1.0, abs=0.01)
    freq = measure.oscillation_frequency(tr.t, tr.v("in"), settle_fraction=0.0)
    assert freq == pytest.approx(1e9, rel=0.02)


def test_lc_oscillation_frequency(tech):
    # An LC tank rung by an initial current through the inductor.
    c = Circuit("lc")
    c.add_isource("ikick", "0", "t", Pulse(1e-3, 0.0, delay=0.0, rise=1e-12, width=1.0))
    c.add_inductor("l1", "t", "0", 1e-9)
    c.add_capacitor("c1", "t", "0", 1e-12)
    c.add_resistor("rl", "t", "0", 10e3)
    cc = CompiledCircuit(c, tech.rules)
    tr = transient(cc, t_stop=4e-9, dt=2e-12)
    # After the kick source drops, the tank rings near f0.
    freq = measure.oscillation_frequency(tr.t, tr.v("t"), settle_fraction=0.3)
    f0 = 1.0 / (2 * np.pi * np.sqrt(1e-9 * 1e-12))
    assert freq == pytest.approx(f0, rel=0.08)


def test_starts_from_dc_operating_point(tech):
    c = Circuit("hold")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_resistor("r1", "vdd", "out", 1e3)
    c.add_resistor("r2", "out", "0", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    cc = CompiledCircuit(c, tech.rules)
    tr = transient(cc, t_stop=1e-9, dt=1e-11)
    # No stimulus change: the node stays at its DC value.
    assert np.allclose(tr.v("out"), 0.4, atol=1e-3)


def _inverter(tech) -> Circuit:
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_vsource(
        "vin", "in", "0", Pulse(0.0, 0.8, delay=0.1e-9, rise=10e-12, fall=10e-12)
    )
    c.add_mosfet("mp", "out", "in", "vdd", "vdd", tech.pmos, MosGeometry(8, 2, 1))
    c.add_mosfet("mn", "out", "in", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    c.add_capacitor("cl", "out", "0", 5e-15)
    return c


def test_cmos_inverter_switches(tech):
    cc = CompiledCircuit(_inverter(tech), tech.rules)
    tr = transient(cc, t_stop=1e-9, dt=1e-12)
    assert tr.v("out")[0] > 0.75
    assert tr.v("out")[-1] < 0.05
    delay = measure.delay_between(
        tr.t, tr.v("in"), tr.v("out"), 0.4, 0.4, "rise", "fall"
    )
    assert 0 < delay < 0.3e-9


def test_transient_evaluates_devices_once_per_newton_iteration(tech, monkeypatch):
    """A step's first Newton iterate is the previous point, whose model
    evaluation already built the capacitance companions; it is reused,
    not repeated."""
    cc = CompiledCircuit(_inverter(tech), tech.rules)
    op = dc_operating_point(cc)
    real_eval = CompiledCircuit.eval_mosfets
    calls = []

    def counting_eval(self, x):
        calls.append(1)
        return real_eval(self, x)

    monkeypatch.setattr(CompiledCircuit, "eval_mosfets", counting_eval)
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        tr = transient(cc, t_stop=0.3e-9, dt=1e-12, op=op)
    assert stats.tran_steps == 300
    assert stats.newton_iterations > stats.tran_steps
    assert len(calls) == stats.newton_iterations
    assert tr.v("out")[-1] < 0.05


def test_inductor_current_ramp(tech):
    # V = L di/dt: 1V across 1nH ramps 1A/ns.
    c = Circuit("lramp")
    c.add_vsource("v1", "a", "0", Pulse(0.0, 1.0, delay=0.0, rise=1e-12))
    c.add_inductor("l1", "a", "b", 1e-9)
    c.add_resistor("rs", "b", "0", 1e-3)
    cc = CompiledCircuit(c, tech.rules)
    tr = transient(cc, t_stop=1e-9, dt=1e-12)
    assert tr.i("l1")[-1] == pytest.approx(1.0, rel=0.05)


def test_invalid_args_rejected(tech):
    c = Circuit("bad")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    cc = CompiledCircuit(c, tech.rules)
    with pytest.raises(NetlistError):
        transient(cc, t_stop=0.0, dt=1e-12)
    with pytest.raises(NetlistError):
        transient(cc, t_stop=1e-9, dt=2e-9)


def test_vdiff_waveform(tech):
    c = Circuit("d")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_resistor("r1", "a", "b", 1e3)
    c.add_resistor("r2", "b", "0", 1e3)
    cc = CompiledCircuit(c, tech.rules)
    tr = transient(cc, t_stop=1e-10, dt=1e-11)
    assert np.allclose(tr.vdiff("a", "b"), 0.5, atol=1e-6)


def test_energy_conservation_rc_discharge(tech):
    # A charged capacitor discharging through a resistor: exponential.
    c = Circuit("dis")
    c.add_vsource("vin", "in", "0", Pulse(1.0, 0.0, delay=0.5e-9, rise=1e-12, width=1.0))
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    cc = CompiledCircuit(c, tech.rules)
    tr = transient(cc, t_stop=4e-9, dt=5e-12)
    k = np.argmin(np.abs(tr.t - 1.5e-9))  # 1 tau after fall
    assert tr.v("out")[k] == pytest.approx(np.exp(-1), abs=0.02)


def test_newton_failure_is_retried_as_half_steps_and_counted(tech, monkeypatch):
    c = Circuit("rc")
    c.add_vsource("vin", "in", "0", Pulse(0.0, 1.0, delay=1e-9, rise=1e-12, width=1.0))
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    cc = CompiledCircuit(c, tech.rules)
    clean = transient(cc, t_stop=3e-9, dt=1e-11)

    real_step = tran_mod._Integrator.step
    failed = []

    def fail_once(self, x_prev, xdot_prev, t_new, dt):
        if not failed and t_new > 1.5e-9:
            failed.append(t_new)
            return None
        return real_step(self, x_prev, xdot_prev, t_new, dt)

    monkeypatch.setattr(tran_mod._Integrator, "step", fail_once)
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        tr = transient(cc, t_stop=3e-9, dt=1e-11)
    assert len(failed) == 1
    assert stats.tran_rejected == 1
    assert stats.tran_steps == 300
    np.testing.assert_array_equal(tr.t, clean.t)
    np.testing.assert_allclose(tr.v("out"), clean.v("out"), atol=1e-3)
