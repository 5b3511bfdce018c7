"""The shared testbench helper functions."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.devices.mosfet import MosGeometry
from repro.errors import MeasureError, NetlistError
from repro.primitives import testbenches as tbh
from repro.spice import Circuit, kernel
from repro.spice.dc import dc_operating_point


def test_attach_dut_maps_ports_identically(tech, small_dp):
    dut = small_dp.schematic_circuit()
    tb = Circuit("tb")
    tbh.attach_dut(tb, dut)
    # Port nets keep their names; internals are prefixed.
    nodes = set()
    for e in tb.elements:
        from repro.spice.netlist import element_nodes

        nodes.update(element_nodes(e))
    for port in dut.ports:
        assert port in nodes


def test_freq_index_log_distance():
    freqs = np.logspace(6, 10, 5)  # 1e6 .. 1e10
    assert tbh.freq_index(freqs, 1.0e8) == 2
    assert tbh.freq_index(freqs, 2.0e6) == 0
    assert tbh.freq_index(freqs, 9.0e9) == 4


def test_port_capacitance_of_known_cap(tech):
    tb = Circuit("c")
    tb.add_vsource("vp", "a", "0", 0.0, ac_magnitude=1.0)
    tb.add_capacitor("c1", "a", "0", 7e-15)
    cap = tbh.port_capacitance("vp")(*tbh.run_ac(tb, tech))
    assert cap == pytest.approx(7e-15, rel=0.01)


def test_port_resistance_of_known_resistor(tech):
    tb = Circuit("r")
    tb.add_vsource("vp", "a", "0", 0.0, ac_magnitude=1.0)
    tb.add_resistor("r1", "a", "0", 3.3e3)
    res = tbh.port_resistance("vp")(*tbh.run_ac(tb, tech))
    assert res == pytest.approx(3.3e3, rel=0.01)


def test_port_resistance_negative_reported_as_magnitude(tech):
    # A negative conductance (VCCS feedback) reports its magnitude.
    tb = Circuit("neg")
    tb.add_vsource("vp", "a", "0", 0.0, ac_magnitude=1.0)
    tb.add_vccs("g1", "a", "0", "a", "0", 2e-3)  # pulls current out of a
    tb.add_resistor("stab", "a", "0", 200.0)  # keep DC solvable
    r = tbh.port_resistance("vp")(*tbh.run_ac(tb, tech))
    assert r > 0


def test_metric_reader_failure_marks_only_its_member(tech):
    def build(prim, volts):
        tb = Circuit("divider")
        tb.add_vsource("vs", "a", "0", volts)
        tb.add_resistor("r1", "a", "b", 1e3)
        tb.add_resistor("r2", "b", "0", 1e3)
        return tb

    def read(op):
        if op.v("b") > 1.0:
            raise MeasureError("out of range")
        return op.v("b")

    metric = tbh.dc_metric("vb", 1.0, build, read)
    prim = SimpleNamespace(tech=tech)
    members = [1.0, 4.0, 1.5]
    out = metric.batch_evaluate(prim, members, [{} for _ in members])
    assert out[0] == metric.evaluate(prim, 1.0, {})
    assert out[2] == metric.evaluate(prim, 1.5, {})
    assert isinstance(out[1], MeasureError)
    with pytest.raises(MeasureError):
        metric.evaluate(prim, 4.0, {})

    # Anything but an evaluation failure is a bug and propagates.
    broken = tbh.dc_metric("vb", 1.0, build, lambda op: op.v("missing"))
    with pytest.raises(NetlistError):
        broken.batch_evaluate(prim, members, [{} for _ in members])


def test_solve_gate_bias_monotone_increasing(tech):
    from repro.devices.mosfet import MosGeometry

    def build(v):
        c = Circuit("bias")
        c.add_vsource("vg", "g", "0", v)
        c.add_vsource("vd", "d", "0", 0.6)
        c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
        return c

    v = tbh.solve_gate_bias(
        tech, build, lambda op: abs(op.i("vd")), i_target=50e-6
    )
    op_check = tbh.run_op(build(v), tech)
    assert abs(op_check.i("vd")) == pytest.approx(50e-6, rel=0.01)


def test_standard_pulse_polarity():
    rise = tbh.standard_pulse(0.0, 0.8)
    fall = tbh.standard_pulse(0.8, 0.0)
    assert rise.value(0.0) == 0.0
    assert rise.value(1e-9) == 0.8
    assert fall.value(0.0) == 0.8
    assert fall.value(1e-9) == 0.0


def test_dc_offset_bisection_finds_injected_offset(tech):
    # A linear "circuit": response = x - 3 mV.
    def build(x):
        c = Circuit("lin")
        c.add_vsource("vx", "a", "0", x - 3e-3)
        c.add_resistor("r", "a", "0", 1e3)
        return c

    root = tbh.dc_offset_bisection(
        build, tech, lambda op: op.v("a"), lo=-0.05, hi=0.05
    )
    assert root == pytest.approx(3e-3, abs=1e-6)


def _dp_variants(tech, count=3):
    """A small DP and ``count`` extracted same-pattern variants of it."""
    from repro.cellgen.generator import WireConfig
    from repro.primitives import DifferentialPair

    prim = DifferentialPair(tech, base_fins=8, name="bisect_dp")
    base = prim.variants()[0]
    duts = [
        prim.layout_circuit(
            base, "ABAB", WireConfig(parallel={"tail": k, "outp": k, "outn": k})
        )
        for k in range(1, count + 1)
    ]
    return prim, duts


def _dp_response(op) -> float:
    return op.i("voutp") - op.i("voutn")


def _drifting_build(prim, dut, calls: list):
    """A DP offset testbench that grows a node after its first build."""

    def build(x):
        tb = prim._bias_testbench(dut, vin_diff=x)
        if calls:
            tb.add_resistor("rdrift", "tail", "drift", 1e15)
            tb.add_resistor("rdrift_g", "drift", "0", 1e15)
        calls.append(x)
        return tb

    return build


def test_dc_offset_bisection_many_matches_serial_bitwise(tech, monkeypatch):
    prim, duts = _dp_variants(tech)

    def builds(drift_calls):
        stacked = [
            lambda x, dut=dut: prim._bias_testbench(dut, vin_diff=x)
            for dut in duts
        ]
        # The last member's structure drifts after the first round, so
        # the compile-once path drops it to the serial solver.
        return stacked + [_drifting_build(prim, duts[0], drift_calls)]

    serial_stats = kernel.SolverStats()
    with kernel.collect(serial_stats):
        serial = [
            tbh.dc_offset_bisection(build, tech, _dp_response)
            for build in builds([])
        ]
    serial_solves = []

    def serial_solve(compiled, **kwargs):
        serial_solves.append(compiled.circuit.name)
        return dc_operating_point(compiled, **kwargs)

    monkeypatch.setattr(tbh, "dc_operating_point", serial_solve)
    drift_calls: list = []
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        stacked = tbh.dc_offset_bisection_many(
            builds(drift_calls), tech, _dp_response
        )
    assert stacked == serial  # bitwise: float equality per member
    # Same starting guesses, so the same Newton trajectories.
    assert stats.newton_iterations == serial_stats.newton_iterations
    assert stats.analyses == serial_stats.analyses
    assert stats.batched_solves > 0
    # Only the drifting member left the stack, from its second point on.
    assert len(serial_solves) == len(drift_calls) - 1 > 0


def test_dc_offset_bisection_warm_starts_each_solve(tech):
    # Successive bisection points differ by at most the bracket width,
    # so each DC solve after the first starts from the member's previous
    # solution.  Cold starts take ~7 Newton iterations per solve here.
    prim, duts = _dp_variants(tech)
    builds = [
        lambda x, dut=dut: prim._bias_testbench(dut, vin_diff=x) for dut in duts
    ]
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        tbh.dc_offset_bisection_many(builds, tech, _dp_response)
    solves = stats.analyses["dc"]
    assert solves >= 3 * 20
    assert stats.newton_iterations / solves <= 4.0
