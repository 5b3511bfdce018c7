"""Cross-module integration invariants.

These tie independent subsystems together: geometry vs extraction,
extraction vs simulation, optimizer vs flow.
"""

import pytest

from repro.cellgen.generator import WireConfig
from repro.devices.mosfet import MosGeometry
from repro.extraction.rc import extract_all_nets, extract_net_parasitics
from repro.geometry import Layout


@pytest.mark.parametrize(
    "pattern, wires",
    [
        ("ABAB", None),
        ("ABBA", None),
        ("ABBA", WireConfig(parallel={"outp": 3, "tail": 2})),
    ],
    ids=["ABAB", "ABBA", "ABBA-tuned"],
)
def test_extracted_capacitance_matches_geometry(tech, small_dp, pattern, wires):
    """The extractor's net C is the exact in-order sum over the net's
    shapes: its wires in layout order, then its vias.  This holds for the
    generated layout and for a copy built from its shape lists."""
    geo = MosGeometry(8, 4, 3)
    layout = small_dp.generate(geo, pattern, wires, verify=False)
    nets = ("tail", "outp")
    # Extract before anything reads the shape lists: the generator's
    # columns, not a list conversion, feed this extraction.
    generated = {net: extract_net_parasitics(layout, net, tech) for net in nets}
    listed = Layout(
        layout.name, list(layout.devices), list(layout.wires),
        list(layout.vias), list(layout.ports), layout.well_rect,
        dict(layout.metadata),
    )
    listed_all = extract_all_nets(listed, tech)
    for net in nets:
        manual = 0.0
        for wire in (w for w in layout.wires if w.net == net):
            layer = tech.stack.metal(wire.layer)
            manual += layer.wire_capacitance(wire.length, wire.width)
        for via in (v for v in layout.vias if v.net == net):
            manual += tech.stack.via_between(
                via.lower_layer, via.upper_layer
            ).capacitance
        assert generated[net].c_wire == manual
        assert extract_net_parasitics(listed, net, tech).c_wire == manual
        assert listed_all[net].c_wire == manual


def test_offset_testbench_reads_back_lde_mismatch(tech, small_dp):
    """An injected Vth mismatch appears 1:1 as measured input offset."""
    from dataclasses import replace

    circuit = small_dp.schematic_circuit()
    ma = circuit.element("MA")
    for delta in (0.002, -0.004):
        trial = circuit.copy(f"mm_{delta}")
        trial.replace_element("MA", replace(ma, vth_mismatch=delta))
        values, _ = small_dp.evaluate(trial)
        assert values["offset"] == pytest.approx(abs(delta), rel=0.12)


def test_pattern_offset_traceable_to_extraction(tech, paper_dp):
    """The AABB offset measured by SPICE matches the extracted dVth gap."""
    geo = MosGeometry(12, 20, 4)
    extracted = paper_dp.extract(paper_dp.generate(geo, "AABB"), geo)
    dvth = abs(
        extracted.device_lde["MA"].vth_shift
        - extracted.device_lde["MB"].vth_shift
    )
    values, _ = paper_dp.evaluate(extracted.build_circuit())
    assert values["offset"] == pytest.approx(dvth, rel=0.25)


def test_flow_assembly_contains_all_devices(tech):
    from repro.circuits import CommonSourceAmpCircuit
    from repro.flow import HierarchicalFlow

    circuit = CommonSourceAmpCircuit(tech, i_bias=50e-6, stage_fins=48,
                                     load_fins=72)
    flow = HierarchicalFlow(tech, n_bins=1, max_wires=2, placer_iterations=100)
    result = flow.run(circuit, flavor="conventional")
    mosfets = {m.name for m in result.assembled.mosfets()}
    assert "xstage.M1" in mosfets
    assert "xload.M1" in mosfets


def test_optimizer_deterministic(tech, small_dp):
    from repro.core import PrimitiveOptimizer
    from repro.devices.mosfet import MosGeometry

    variants = [MosGeometry(8, 4, 3), MosGeometry(8, 6, 2)]
    r1 = PrimitiveOptimizer(n_bins=2, max_wires=3).optimize(
        small_dp, variants=variants, patterns=["ABAB"]
    )
    r2 = PrimitiveOptimizer(n_bins=2, max_wires=3).optimize(
        small_dp, variants=variants, patterns=["ABAB"]
    )
    assert [o.cost for o in r1.options] == [o.cost for o in r2.options]
    assert r1.best.base == r2.best.base


def test_tuned_wire_config_survives_regeneration(tech, small_dp):
    """Regenerating a tuned option reproduces its exact cost."""
    from repro.core.selection import evaluate_option
    from repro.core.tuning import tune_option

    option = evaluate_option(small_dp, MosGeometry(8, 4, 3), "ABAB")
    tuned = tune_option(small_dp, option, max_wires=3)
    regenerated = evaluate_option(
        small_dp, tuned.option.base, tuned.option.pattern, tuned.option.wires
    )
    assert regenerated.cost == pytest.approx(tuned.option.cost, rel=1e-9)
