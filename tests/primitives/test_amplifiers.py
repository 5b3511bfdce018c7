"""Amplifier primitives: auto-biasing and metric testbenches."""

import pytest

from repro.devices.mosfet import MosGeometry
from repro.primitives import (
    CommonDrainAmplifier,
    CommonGateAmplifier,
    CommonSourceAmplifier,
)


@pytest.fixture(scope="module")
def cs(tech):
    return CommonSourceAmplifier(tech, base_fins=96)


def test_auto_bias_hits_target_current(tech, cs):
    from repro.primitives import testbenches as tbh

    tb = cs.bias_testbench(cs.schematic_circuit())
    (op,) = tbh.run_op_many([tb], tech)
    assert abs(op.i("vout")) == pytest.approx(cs.i_target, rel=0.01)


def test_explicit_vin_override(tech):
    cs = CommonSourceAmplifier(tech, base_fins=96, vin=0.5)
    assert cs.vin == 0.5


def test_gm_and_rout_positive(cs):
    ref = cs.schematic_reference()
    assert ref["gm"] > 0
    assert ref["rout"] > 0


def test_gm_scales_with_current(tech):
    low = CommonSourceAmplifier(tech, base_fins=96, i_target=20e-6)
    high = CommonSourceAmplifier(tech, base_fins=96, i_target=80e-6)
    assert high.schematic_reference()["gm"] > low.schematic_reference()["gm"]


def test_layout_degrades_metrics(cs):
    ref = cs.schematic_reference()
    vals, _ = cs.evaluate(cs.layout_circuit(MosGeometry(8, 6, 2), "ABAB"))
    assert vals["gm"] < ref["gm"]


def test_common_gate_biases(tech):
    cg = CommonGateAmplifier(tech, base_fins=96)
    ref = cg.schematic_reference()
    assert ref["gm"] > 0
    assert cg.v_gate > cg.vin  # gate above source for an NMOS


def test_common_drain_gain_below_unity(tech):
    cd = CommonDrainAmplifier(tech, base_fins=96)
    ref = cd.schematic_reference()
    assert 0.5 < ref["gain"] < 1.0  # source follower
    assert ref["rout"] > 0


def test_follower_rout_near_inverse_gm(tech):
    cd = CommonDrainAmplifier(tech, base_fins=96)
    ref = cd.schematic_reference()
    # Rout of a follower ~ 1/gm; sanity bound within a factor of 3.
    from repro.primitives import testbenches as tbh

    tb = cd.bias_testbench(cd.schematic_circuit())
    (op,) = tbh.run_op_many([tb], tech)
    gm = op.mos("dut.M1")["gm"]
    assert ref["rout"] == pytest.approx(1.0 / gm, rel=2.0)
