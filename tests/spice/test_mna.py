"""MNA compilation: indexing, stamping, device arrays."""

import numpy as np
import pytest

from repro.devices.mosfet import MosGeometry
from repro.errors import NetlistError
from repro.spice import Circuit, CompiledCircuit, dc_operating_point
from repro.spice.ac import _ac_parts


def ac_matrices(cc):
    """The AC template's assembled conductance and susceptance parts at
    the DC operating point (dense: these systems are small)."""
    template, g, sus = _ac_parts(cc, dc_operating_point(cc))
    assert template.backend == "dense"
    return g, sus


def test_node_indexing(tech):
    c = Circuit("t")
    c.add_resistor("r1", "b", "a", 1.0)
    c.add_resistor("r2", "a", "0", 1.0)
    cc = CompiledCircuit(c, tech.rules)
    assert cc.num_nodes == 2
    assert cc.nodes == ["a", "b"]
    assert cc.index_of("0") == cc.ghost


def test_unknown_node_raises(tech):
    c = Circuit("t")
    c.add_resistor("r1", "a", "0", 1.0)
    cc = CompiledCircuit(c, tech.rules)
    with pytest.raises(NetlistError):
        cc.index_of("zz")


def test_branch_indices_for_sources_and_inductors(tech):
    c = Circuit("t")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_inductor("l1", "a", "b", 1e-9)
    c.add_resistor("r1", "b", "0", 1.0)
    cc = CompiledCircuit(c, tech.rules)
    assert cc.num_branches == 2
    assert set(cc.branch_index) == {"v1", "l1"}
    assert cc.size == cc.num_nodes + 2


def test_conductance_matrix_symmetric_for_resistors(tech):
    c = Circuit("t")
    c.add_resistor("r1", "a", "b", 2.0)
    c.add_resistor("r2", "b", "0", 4.0)
    cc = CompiledCircuit(c, tech.rules)
    g, _sus = ac_matrices(cc)
    assert np.array_equal(g, g.T)
    assert not np.any(g.imag)
    ia, ib = cc.index_of("a"), cc.index_of("b")
    assert g[ia, ia] == pytest.approx(0.5)
    assert g[ib, ib] == pytest.approx(0.75)
    assert g[ia, ib] == pytest.approx(-0.5)


def test_capacitance_matrix(tech):
    c = Circuit("t")
    c.add_capacitor("c1", "a", "0", 3e-15)
    c.add_resistor("r1", "a", "0", 1.0)
    cc = CompiledCircuit(c, tech.rules)
    g, sus = ac_matrices(cc)
    ia = cc.index_of("a")
    assert sus[ia, ia] == pytest.approx(3e-15)
    assert g[ia, ia] == pytest.approx(1.0)  # the resistor stays out of S


def test_source_rhs_dc_and_time(tech):
    from repro.spice.waveforms import Pulse

    c = Circuit("t")
    c.add_isource("i1", "0", "a", Pulse(1e-3, 2e-3, delay=1e-9, rise=1e-12))
    c.add_resistor("r1", "a", "0", 1.0)
    cc = CompiledCircuit(c, tech.rules)
    ia = cc.index_of("a")
    assert cc.source_rhs(t=None)[ia] == pytest.approx(1e-3)
    assert cc.source_rhs(t=2e-9)[ia] == pytest.approx(2e-3)
    assert cc.source_rhs(t=None, scale=0.5)[ia] == pytest.approx(0.5e-3)


def test_mosfet_arrays_and_eval(tech):
    c = Circuit("t")
    c.add_vsource("vd", "d", "0", 0.8)
    c.add_vsource("vg", "g", "0", 0.6)
    c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    c.add_mosfet("m2", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
    cc = CompiledCircuit(c, tech.rules)
    op = dc_operating_point(cc)
    ev = op.mos_eval
    assert ev is not None
    # m2 has twice the fins of m1: twice the current.
    assert ev.ids[1] == pytest.approx(2 * ev.ids[0], rel=1e-9)
    assert op.mos("m1")["id"] == pytest.approx(float(ev.ids[0]))


def test_mos_eval_unknown_name(tech):
    c = Circuit("t")
    c.add_vsource("vd", "d", "0", 0.8)
    c.add_mosfet("m1", "d", "d", "0", "0", tech.nmos, MosGeometry(8))
    cc = CompiledCircuit(c, tech.rules)
    op = dc_operating_point(cc)
    with pytest.raises(NetlistError):
        op.mos("zz")


def test_mos_capacitance_matrix_symmetric(tech):
    c = Circuit("t")
    c.add_vsource("vd", "d", "0", 0.8)
    c.add_vsource("vg", "g", "0", 0.5)
    c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    cc = CompiledCircuit(c, tech.rules)
    _g, cm = ac_matrices(cc)  # no element capacitors: S is the MOSFET's
    assert np.allclose(cm, cm.T)
    assert np.any(cm)
    # Diagonal entries non-negative.
    assert np.all(np.diag(cm).real >= 0)


def test_ac_source_rhs_phasors(tech):
    c = Circuit("t")
    c.add_vsource("v1", "a", "0", 0.0, ac_magnitude=2.0, ac_phase_deg=90.0)
    c.add_resistor("r1", "a", "0", 1.0)
    cc = CompiledCircuit(c, tech.rules)
    rhs = cc.ac_source_rhs()
    br = cc.branch_index["v1"]
    assert rhs[br] == pytest.approx(2j)


def test_unsupported_element_type(tech):
    c = Circuit("t")

    class Bogus:
        name = "x"

    c._elements.append(Bogus())  # bypass type checks deliberately
    c._names.add("x")
    with pytest.raises(NetlistError):
        CompiledCircuit(c, tech.rules)


@pytest.mark.parametrize("family", ["differential_pair", "pmos_differential_pair"])
def test_with_dc_sources_solves_like_a_fresh_compile(tech, family):
    # A copy driven to input x solves bitwise like the testbench built
    # and compiled at x, and leaves the original's sources alone.
    from repro.primitives import PrimitiveLibrary

    prim = PrimitiveLibrary().create(family, tech, base_fins=8)
    dut = prim.schematic_circuit()
    tb = prim._bias_testbench(dut)
    levels = {name: tb.element(name).waveform.dc_value for name in ("vinp", "vinn")}
    compiled = CompiledCircuit(tb, tech.rules)
    rhs = compiled.source_rhs()
    for x in (-0.05, -1.3e-3, 0.0, 7.5e-4, 0.05):
        driven = dc_operating_point(compiled.with_dc_sources(prim.input_drive(x)))
        fresh = dc_operating_point(
            CompiledCircuit(prim._bias_testbench(dut, vin_diff=x), tech.rules)
        )
        assert np.array_equal(driven.x, fresh.x)
        assert driven.recovery == fresh.recovery
    assert np.array_equal(compiled.source_rhs(), rhs)
    # The caller's netlist is never touched.
    assert {n: tb.element(n).waveform.dc_value for n in levels} == levels


def test_with_dc_sources_rejects_non_sources(tech):
    c = Circuit("t")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    cc = CompiledCircuit(c, tech.rules)
    with pytest.raises(NetlistError, match="r1"):
        cc.with_dc_sources({"r1": 0.5})
