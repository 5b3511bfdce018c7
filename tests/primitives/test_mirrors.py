"""Current-mirror metric testbenches."""

import pytest

from repro.devices.mosfet import MosGeometry
from repro.primitives import (
    ActiveCurrentMirror,
    CascodeCurrentMirror,
    LowVoltageCascodeMirror,
    PassiveCurrentMirror,
    PmosCurrentMirror,
)


@pytest.fixture(scope="module")
def cm(tech):
    return PassiveCurrentMirror(tech, base_fins=96, ratio=1)


def test_schematic_ratio_near_unity(cm):
    ref = cm.schematic_reference()
    assert ref["current_ratio"] == pytest.approx(1.0, abs=0.08)


def test_ratioed_mirror(tech):
    cm8 = PassiveCurrentMirror(tech, base_fins=48, ratio=8)
    ref = cm8.schematic_reference()
    assert ref["current_ratio"] == pytest.approx(8.0, rel=0.1)


def test_ratio_validation(tech):
    with pytest.raises(ValueError):
        PassiveCurrentMirror(tech, ratio=0)


def test_cout_positive(cm):
    assert cm.schematic_reference()["cout"] > 0


def test_layout_ratio_shifts(cm):
    vals, _ = cm.evaluate(cm.layout_circuit(MosGeometry(8, 6, 2), "ABAB"))
    ref = cm.schematic_reference()
    assert vals["current_ratio"] != ref["current_ratio"]
    assert vals["current_ratio"] == pytest.approx(ref["current_ratio"], rel=0.15)


def test_ratioed_templates_have_m_ratio(tech):
    cm4 = PassiveCurrentMirror(tech, base_fins=48, ratio=4)
    by_name = {t.name: t for t in cm4.templates()}
    assert by_name["MREF"].m_ratio == 1
    assert by_name["MOUT"].m_ratio == 4


def test_pmos_mirror(tech):
    cm = PmosCurrentMirror(tech, base_fins=96, ratio=1)
    ref = cm.schematic_reference()
    assert ref["current_ratio"] == pytest.approx(1.0, abs=0.1)


def test_active_mirror_weights(tech):
    am = ActiveCurrentMirror(tech, base_fins=96, ratio=1)
    weights = {m.name: m.weight for m in am.metrics()}
    assert weights["cout"] == 0.5  # medium for the active mirror
    pm = PassiveCurrentMirror(tech, base_fins=96, ratio=1)
    weights_p = {m.name: m.weight for m in pm.metrics()}
    assert weights_p["cout"] == 0.1  # low for the passive mirror


def test_cascode_mirror_evaluates(tech):
    cm = CascodeCurrentMirror(tech, base_fins=96, ratio=1)
    ref = cm.schematic_reference()
    assert ref["current_ratio"] == pytest.approx(1.0, abs=0.15)
    assert ref["rout"] > 0


def test_cascode_rout_beats_simple(tech):
    simple = PassiveCurrentMirror(tech, base_fins=96, ratio=1)
    casc = CascodeCurrentMirror(tech, base_fins=96, ratio=1)
    from repro.primitives import testbenches as tbh

    read = tbh.port_resistance("vout")
    r_simple = read(
        *tbh.run_ac(simple.cout_testbench(simple.schematic_circuit()), tech)
    )
    r_casc = read(*tbh.run_ac(casc.cout_testbench(casc.schematic_circuit()), tech))
    assert r_casc > 3 * r_simple


def test_lv_cascode_evaluates(tech):
    cm = LowVoltageCascodeMirror(tech, base_fins=96, ratio=1)
    ref = cm.schematic_reference()
    assert ref["current_ratio"] == pytest.approx(1.0, abs=0.2)


def test_layout_with_lde_disabled_better_ratio(tech, tech_no_lde):
    from repro.primitives import PassiveCurrentMirror as CM

    geo = MosGeometry(16, 6, 1)
    with_lde = CM(tech, base_fins=96, ratio=1)
    without = CM(tech_no_lde, base_fins=96, ratio=1)
    v1, _ = with_lde.evaluate(with_lde.layout_circuit(geo, "ABAB"))
    v2, _ = without.evaluate(without.layout_circuit(geo, "ABAB"))
    d1 = abs(v1["current_ratio"] - with_lde.schematic_reference()["current_ratio"])
    d2 = abs(v2["current_ratio"] - without.schematic_reference()["current_ratio"])
    # LDEs contribute real mirror error (the paper's motivation from [10]).
    assert d1 > d2 * 0.5  # LDE error present (not strictly ordered: wires too)
