"""DC operating-point analysis against hand-calculable circuits."""

import numpy as np
import pytest

from repro.devices.mosfet import MosGeometry
from repro.errors import NetlistError
from repro.spice import Circuit, CompiledCircuit, dc_operating_point


def compiled(circuit, tech):
    return CompiledCircuit(circuit, tech.rules)


def test_voltage_divider(tech):
    c = Circuit("div")
    c.add_vsource("v1", "in", "0", 2.0)
    c.add_resistor("r1", "in", "mid", 1000.0)
    c.add_resistor("r2", "mid", "0", 3000.0)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("mid") == pytest.approx(1.5, rel=1e-6)
    assert op.i("v1") == pytest.approx(-0.5e-3, rel=1e-6)


def test_current_source_into_resistor(tech):
    c = Circuit("ir")
    c.add_isource("i1", "0", "n", 1e-3)
    c.add_resistor("r1", "n", "0", 2000.0)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("n") == pytest.approx(2.0, rel=1e-6)


def test_ground_voltage_is_zero(tech):
    c = Circuit("g")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_resistor("r1", "a", "0", 1.0e3)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("0") == 0.0
    assert op.v("gnd") == 0.0


def test_vcvs_gain(tech):
    c = Circuit("e")
    c.add_vsource("v1", "in", "0", 0.25)
    c.add_vcvs("e1", "out", "0", "in", "0", 4.0)
    c.add_resistor("rl", "out", "0", 1e3)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("out") == pytest.approx(1.0, rel=1e-9)


def test_vccs_transconductance(tech):
    c = Circuit("gm")
    c.add_vsource("v1", "in", "0", 0.5)
    c.add_vccs("g1", "0", "out", "in", "0", 2e-3)  # pushes into out
    c.add_resistor("rl", "out", "0", 1e3)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("out") == pytest.approx(1.0, rel=1e-9)


def test_inductor_is_dc_short(tech):
    c = Circuit("l")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_inductor("l1", "a", "b", 1e-9)
    c.add_resistor("r1", "b", "0", 1e3)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("b") == pytest.approx(1.0, rel=1e-6)
    assert op.i("l1") == pytest.approx(1e-3, rel=1e-6)


def test_diode_connected_nmos(tech):
    c = Circuit("dio")
    c.add_isource("i1", "0", "d", 100e-6)
    c.add_mosfet("m1", "d", "d", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
    op = dc_operating_point(compiled(c, tech))
    vgs = op.v("d")
    assert 0.2 < vgs < 0.7
    assert op.mos("m1")["id"] == pytest.approx(100e-6, rel=1e-4)


def test_nmos_resistor_load_kcl(tech):
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_vsource("vg", "g", "0", 0.5)
    c.add_resistor("rl", "vdd", "d", 5e3)
    c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    op = dc_operating_point(compiled(c, tech))
    i_r = (op.v("vdd") - op.v("d")) / 5e3
    assert i_r == pytest.approx(op.mos("m1")["id"], rel=1e-4)


def test_cmos_inverter_transfer(tech):
    def inverter_out(vin):
        c = Circuit("cminv")
        c.add_vsource("vdd", "vdd", "0", 0.8)
        c.add_vsource("vin", "in", "0", vin)
        c.add_mosfet("mp", "out", "in", "vdd", "vdd", tech.pmos, MosGeometry(8, 2, 1))
        c.add_mosfet("mn", "out", "in", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
        return dc_operating_point(compiled(c, tech)).v("out")

    assert inverter_out(0.0) > 0.75
    assert inverter_out(0.8) < 0.05
    # Monotone-decreasing transfer with a threshold inside the rails.
    lo, hi = inverter_out(0.3), inverter_out(0.5)
    assert lo > hi
    assert inverter_out(0.2) > 0.5


def test_warm_start_converges_faster(tech):
    c = Circuit("ws")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_resistor("rl", "vdd", "d", 2e3)
    c.add_vsource("vg", "g", "0", 0.6)
    c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
    cc = compiled(c, tech)
    op1 = dc_operating_point(cc)
    op2 = dc_operating_point(cc, x0=op1.x)
    assert np.allclose(op1.x, op2.x, atol=1e-9)


def test_force_pins_node(tech):
    c = Circuit("force")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_resistor("r1", "vdd", "a", 1e3)
    c.add_resistor("r2", "a", "0", 1e3)
    op_free = dc_operating_point(compiled(c, tech))
    op_forced = dc_operating_point(compiled(c, tech), force={"a": 0.1})
    assert op_free.v("a") == pytest.approx(0.4, rel=1e-4)
    assert op_forced.v("a") < 0.2


def test_branch_current_unknown_element(tech):
    c = Circuit("b")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    op = dc_operating_point(compiled(c, tech))
    with pytest.raises(NetlistError):
        op.i("r1")


def _latch(tech, name):
    """Cross-coupled inverters on a 0.8 V supply."""
    c = Circuit(name)
    c.add_vsource("vdd", "vdd", "0", 0.8)
    for a, b in (("q", "qb"), ("qb", "q")):
        c.add_mosfet(f"mp_{a}", a, b, "vdd", "vdd", tech.pmos, MosGeometry(8, 2, 1))
        c.add_mosfet(f"mn_{a}", a, b, "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    return c


def test_bistable_latch_converges(tech):
    """Cross-coupled inverters (bistable) still yield an operating point.

    Newton tends to limit-cycle between the two stable basins; the
    oscillation-aware damping must settle it into one.
    """
    op = dc_operating_point(compiled(_latch(tech, "latch"), tech))
    # Some consistent solution: both nodes inside the rails.
    assert -0.01 <= op.v("q") <= 0.81
    assert -0.01 <= op.v("qb") <= 0.81


def test_latch_with_force_lands_in_chosen_basin(tech):
    op = dc_operating_point(
        compiled(_latch(tech, "latch2"), tech), force={"q": 0.8, "qb": 0.0}
    )
    assert op.v("q") > 0.6
    assert op.v("qb") < 0.2


# -- the recovery ladder, pinned bit for bit ------------------------------
#
# Each case asserts the recovery tags, the Newton iteration count and the
# whole solution vector as hex floats, per backend: any change to the
# order of the ladder's rungs or to the arithmetic of a Newton step shows.


def _hv_diode(tech):
    # 36 V through 1 kOhm into a diode-connected nMOS: plain Newton and
    # gmin stepping both fail, source stepping lands it.
    c = Circuit("hv")
    c.add_vsource("v1", "in", "0", 36.0)
    c.add_resistor("r1", "in", "d", 1000.0)
    c.add_mosfet("m1", "d", "d", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    return c, None


def _vco_cell_tb(tech):
    # The VCO delay cell's transient testbench at t = 0, whose initial
    # operating point needs gmin stepping alone.
    from repro.circuits import RingOscillatorVco
    from repro.primitives import testbenches as tbh
    from repro.spice.elements import VoltageSource

    prim = RingOscillatorVco(tech).cell
    vdd = tech.vdd
    tb = prim.bias_testbench(prim.schematic_circuit(), vin=0.0)
    for name, node, lo, hi in (("vina", "ina", 0.0, vdd), ("vinb", "inb", vdd, 0.0)):
        tb.replace_element(
            name, VoltageSource(name, node, "0", tbh.standard_pulse(lo, hi))
        )
    return tb, None


def _forced_latch(tech):
    return _latch(tech, "latch2"), {"q": 0.8, "qb": 0.0}


_LADDER_CASES = {
    "gmin-then-source-stepping": (
        _hv_diode,
        ("gmin-stepping", "source-stepping"),
        380,
        {
            "dense": [
                "0x1.071f73cdb5a2ep+2", "0x1.2000000000000p+5",
                "-0x1.053b765104592p-5",
            ],
            "sparse": [
                "0x1.071f73cdb5a2fp+2", "0x1.2000000000000p+5",
                "-0x1.053b765104591p-5",
            ],
        },
    ),
    "gmin-stepping-only": (
        _vco_cell_tb,
        ("gmin-stepping",),
        153,
        {
            "dense": [
                "0x1.e866e851fd223p-24", "0x1.afe7b099302c9p-24",
                "0x1.9999960b3a293p-1", "0x1.9999942021c86p-1",
                "0x0.0p+0", "0x1.999999999999ap-1",
                "0x1.99999471ae107p-1", "0x1.378f7b4ea93f1p-23",
                "0x1.0000000000000p-1", "0x1.3333333333334p-2",
                "0x1.999999999999ap-1", "-0x1.553a338f81332p-29",
                "-0x1.51c51ce3718e2p-42", "-0x1.19799812dea11p-41",
                "0x0.0p+0", "-0x1.c25c268497682p-41",
            ],
            "sparse": [
                "0x1.e866e851ed864p-24", "0x1.afe7b098467aep-24",
                "0x1.9999960b3a291p-1", "0x1.9999942021c87p-1",
                "0x0.0p+0", "0x1.999999999999ap-1",
                "0x1.99999471ae105p-1", "0x1.378f7b4dfbedep-23",
                "0x1.0000000000000p-1", "0x1.3333333333334p-2",
                "0x1.999999999999ap-1", "-0x1.553a33932b835p-29",
                "-0x1.51c51ce3718e2p-42", "-0x1.19799812dea11p-41",
                "0x0.0p+0", "-0x1.c25c268497682p-41",
            ],
        },
    ),
    "force-pinned-latch": (
        _forced_latch,
        (),
        4,
        {
            "dense": [
                "0x1.9999999998e15p-1", "0x1.ae017b3da40b8p-42",
                "0x1.999999999999ap-1", "-0x1.a4cfcdb10fa49p-32",
            ],
            "sparse": [
                "0x1.9999999998e15p-1", "0x1.ae017b3da4099p-42",
                "0x1.999999999999ap-1", "-0x1.a4cfcdafffe9dp-32",
            ],
        },
    ),
}


@pytest.mark.parametrize("case", _LADDER_CASES.values(), ids=_LADDER_CASES)
def test_dc_ladder_is_bitwise_pinned(tech, backend, case):
    from repro.spice import kernel

    build, tags, iterations, expected = case
    circuit, force = build(tech)
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        op = dc_operating_point(compiled(circuit, tech), force=force)
    assert op.recovery == tags
    assert stats.newton_iterations == iterations
    assert stats.analyses == {"dc": 1}
    assert [float(v).hex() for v in op.x] == expected[backend]
