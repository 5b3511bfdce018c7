"""AC analysis against analytically-known responses."""

import numpy as np
import pytest

from repro.devices.mosfet import MosGeometry
from repro.spice import Circuit, CompiledCircuit, ac_analysis, dc_operating_point
from repro.spice import measure
from repro.spice.ac import ac_analysis_many


def run_ac(circuit, tech, **kw):
    cc = CompiledCircuit(circuit, tech.rules)
    op = dc_operating_point(cc)
    return ac_analysis(cc, op, **kw)


def test_rc_lowpass_pole(tech):
    c = Circuit("rc")
    c.add_vsource("vin", "in", "0", 0.0, ac_magnitude=1.0)
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    ac = run_ac(c, tech, f_start=1e3, f_stop=1e12, points_per_decade=20)
    f3db = measure.bandwidth_3db(ac.freqs, ac.v("out"))
    assert f3db == pytest.approx(1.0 / (2 * np.pi * 1e3 * 1e-12), rel=0.02)


def test_rc_highpass(tech):
    c = Circuit("cr")
    c.add_vsource("vin", "in", "0", 0.0, ac_magnitude=1.0)
    c.add_capacitor("c1", "in", "out", 1e-12)
    c.add_resistor("r1", "out", "0", 1e3)
    ac = run_ac(c, tech, f_start=1e3, f_stop=1e12, points_per_decade=10)
    h = np.abs(ac.v("out"))
    assert h[0] < 0.01
    assert h[-1] == pytest.approx(1.0, rel=0.01)


def test_lc_resonance(tech):
    c = Circuit("lc")
    c.add_isource("i1", "0", "t", 0.0, ac_magnitude=1.0)
    c.add_inductor("l1", "t", "0", 1e-9)
    c.add_capacitor("c1", "t", "0", 1e-12)
    # Moderate Q so the discrete sweep cannot miss the peak.
    c.add_resistor("r1", "t", "0", 300.0)
    ac = run_ac(c, tech, f_start=1e8, f_stop=1e11, points_per_decade=80)
    z = np.abs(ac.v("t"))
    f_res = ac.freqs[np.argmax(z)]
    expected = 1.0 / (2 * np.pi * np.sqrt(1e-9 * 1e-12))
    assert f_res == pytest.approx(expected, rel=0.05)
    assert np.max(z) == pytest.approx(300.0, rel=0.1)


def test_common_source_gain_matches_gmro(tech):
    c = Circuit("cs")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_vsource("vin", "in", "0", 0.45, ac_magnitude=1.0)
    c.add_isource("ibias", "vdd", "out", 150e-6)
    c.add_mosfet("m1", "out", "in", "0", "0", tech.nmos, MosGeometry(8, 8, 1))
    cc = CompiledCircuit(c, tech.rules)
    op = dc_operating_point(cc)
    gm = op.mos("m1")["gm"]
    gds = op.mos("m1")["gds"]
    ac = ac_analysis(cc, op, f_start=1e4, f_stop=1e6, points_per_decade=5)
    gain = measure.low_frequency_gain(ac.v("out"))
    assert gain == pytest.approx(gm / gds, rel=0.02)


def test_vdiff(tech):
    c = Circuit("d")
    c.add_vsource("vin", "a", "0", 0.0, ac_magnitude=1.0)
    c.add_resistor("r1", "a", "b", 1e3)
    c.add_resistor("r2", "b", "0", 1e3)
    ac = run_ac(c, tech, f_start=1e3, f_stop=1e4, points_per_decade=2)
    d = ac.vdiff("a", "b")
    assert abs(d[0]) == pytest.approx(0.5, rel=1e-6)


def test_ground_node_zero(tech):
    c = Circuit("g")
    c.add_vsource("vin", "a", "0", 0.0, ac_magnitude=1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    ac = run_ac(c, tech, f_start=1e3, f_stop=1e4, points_per_decade=2)
    assert np.all(ac.v("0") == 0)


def test_source_current_through_vsource(tech):
    c = Circuit("i")
    c.add_vsource("vin", "a", "0", 0.0, ac_magnitude=1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    ac = run_ac(c, tech, f_start=1e3, f_stop=1e4, points_per_decade=2)
    # |I| = V/R; the branch current flows + -> - internally.
    assert abs(ac.i("vin")[0]) == pytest.approx(1e-3, rel=1e-6)


def test_ac_phase_of_source(tech):
    c = Circuit("p")
    c.add_vsource("vin", "a", "0", 0.0, ac_magnitude=1.0, ac_phase_deg=90.0)
    c.add_resistor("r1", "a", "0", 1e3)
    ac = run_ac(c, tech, f_start=1e3, f_stop=1e4, points_per_decade=2)
    assert np.angle(ac.v("a")[0], deg=True) == pytest.approx(90.0, abs=1e-6)


def test_invalid_sweep_rejected(tech):
    from repro.errors import SimulationError

    c = Circuit("x")
    c.add_vsource("vin", "a", "0", 0.0, ac_magnitude=1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    cc = CompiledCircuit(c, tech.rules)
    op = dc_operating_point(cc)
    with pytest.raises(SimulationError):
        ac_analysis(cc, op, f_start=1e6, f_stop=1e3)
    with pytest.raises(SimulationError):
        ac_analysis(cc, op, points_per_decade=0)
    # The batched form checks the grid before it solves any member,
    # even when there is none.
    for batch in ([cc], []):
        ops = [op] * len(batch)
        with pytest.raises(SimulationError):
            ac_analysis_many(batch, ops, f_start=1e6, f_stop=1e3)
        with pytest.raises(SimulationError):
            ac_analysis_many(batch, ops, f_start=0.0)
        with pytest.raises(SimulationError):
            ac_analysis_many(batch, ops, points_per_decade=0)
