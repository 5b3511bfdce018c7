"""Passive primitives."""

import pytest

from repro.primitives import (
    MomCapacitorPrimitive,
    PolyResistorPrimitive,
    SpiralInductorPrimitive,
)


def test_capacitor_schematic_value(tech):
    cap = MomCapacitorPrimitive(tech, value=100e-15)
    ref = cap.schematic_reference()
    assert ref["capacitance"] == pytest.approx(100e-15, rel=0.02)


def test_capacitor_layout_value_close(tech):
    cap = MomCapacitorPrimitive(tech, value=100e-15)
    variant = cap.variants()[0]
    vals, _ = cap.evaluate(cap.layout_circuit(variant))
    assert vals["capacitance"] == pytest.approx(100e-15, rel=0.1)


def test_capacitor_more_segments_higher_corner(tech):
    cap = MomCapacitorPrimitive(tech, value=100e-15)
    v1, v8 = cap.variants()[0], cap.variants()[-1]
    f1 = cap.evaluate(cap.layout_circuit(v1))[0]["frequency"]
    f8 = cap.evaluate(cap.layout_circuit(v8))[0]["frequency"]
    assert f8 > f1  # shorter fingers, lower ESR, higher corner


def test_resistor_schematic_value(tech):
    res = PolyResistorPrimitive(tech, value=10e3)
    ref = res.schematic_reference()
    assert ref["resistance"] == pytest.approx(10e3, rel=0.01)


def test_resistor_folding_adds_contacts(tech):
    res = PolyResistorPrimitive(tech, value=10e3)
    v1, v8 = res.variants()[0], res.variants()[-1]
    r1 = res.evaluate(res.layout_circuit(v1))[0]["resistance"]
    r8 = res.evaluate(res.layout_circuit(v8))[0]["resistance"]
    assert r8 > r1


def test_inductor_value(tech):
    ind = SpiralInductorPrimitive(tech, value=1e-9)
    variant = ind.variants()[0]
    vals, _ = ind.evaluate(ind.layout_circuit(variant))
    assert vals["inductance"] == pytest.approx(1e-9, rel=0.15)


def test_inductor_q_grows_with_segments(tech):
    ind = SpiralInductorPrimitive(tech, value=1e-9)
    v1, v8 = ind.variants()[0], ind.variants()[-1]
    q1 = ind.evaluate(ind.layout_circuit(v1))[0]["q_factor"]
    q8 = ind.evaluate(ind.layout_circuit(v8))[0]["q_factor"]
    assert q8 > q1


def test_validation(tech):
    from repro.errors import OptimizationError

    with pytest.raises(OptimizationError):
        MomCapacitorPrimitive(tech, value=0.0)
    with pytest.raises(OptimizationError):
        PolyResistorPrimitive(tech, value=-1.0)
    with pytest.raises(OptimizationError):
        SpiralInductorPrimitive(tech, value=0.0)


#: ``evaluate`` values (hex floats) of the default-valued passives on the
#: schematic and the 4-segment folding, captured before the passives'
#: metrics became impedance-probe readers on the shared stacked evaluator.
_GOLDEN = {
    MomCapacitorPrimitive: {
        "schematic": {
            "capacitance": "0x1.c25c268497663p-44",
            "frequency": "0x1.69e05e9e3bcbep+50",
        },
        "seg4": {
            "capacitance": "0x1.c25c1f232ba81p-44",
            "frequency": "0x1.747b790737744p+37",
        },
    },
    PolyResistorPrimitive: {
        "schematic": {"parasitic_c": "0x0.0p+0", "resistance": "0x1.3880020c49ba6p+13"},
        "seg4": {
            "parasitic_c": "0x1.41f015f9d35c8p-97",
            "resistance": "0x1.39c0020c49ba6p+13",
        },
    },
    SpiralInductorPrimitive: {
        "schematic": {
            "inductance": "0x1.12e0be826d695p-30",
            "q_factor": "0x1.1409e5216a2a5p+15",
        },
        "seg4": {
            "inductance": "0x1.130eac3936737p-30",
            "q_factor": "0x1.a4dff60175391p+3",
        },
    },
}


@pytest.mark.parametrize("cls", list(_GOLDEN), ids=lambda cls: cls.family)
def test_passive_evaluate_golden(tech, cls):
    prim = cls(tech)
    (seg4,) = [v for v in prim.variants() if v.segments == 4]
    duts = {"schematic": prim.schematic_circuit(), "seg4": prim.layout_circuit(seg4)}
    for label, dut in duts.items():
        values, sims = prim.evaluate(dut)
        assert {k: float(v).hex() for k, v in values.items()} == _GOLDEN[cls][label]
        assert sims == 2
