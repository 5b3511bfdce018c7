"""Wire RC extraction: sensitivities the optimizer relies on."""

import pytest

from repro.cellgen import CellDevice, CellSpec, WireConfig, generate_layout
from repro.devices.mosfet import MosGeometry
from repro.errors import ExtractionError
from repro.extraction.rc import extract_all_nets, extract_net_parasitics


def dp_spec(geo=MosGeometry(8, 8, 4)):
    return CellSpec(
        name="dp",
        devices=(
            CellDevice("MA", "n", geo, {"d": "outp", "g": "inp", "s": "tail"}),
            CellDevice("MB", "n", geo, {"d": "outn", "g": "inn", "s": "tail"}),
        ),
        matched_group=("MA", "MB"),
        port_nets=("inp", "inn", "outp", "outn", "tail"),
        symmetric_pairs=(("outp", "outn"), ("inp", "inn")),
    )


@pytest.fixture(scope="module")
def dp_layout(tech):
    return generate_layout(dp_spec(), "ABAB", tech)


def test_all_wired_nets_extract(tech, dp_layout):
    nets = extract_all_nets(dp_layout, tech)
    assert {"inp", "inn", "outp", "outn", "tail"} <= set(nets)


def test_parasitics_positive(tech, dp_layout):
    par = extract_net_parasitics(dp_layout, "tail", tech)
    assert par.r_trunk > 0
    assert par.c_wire > 0
    assert all(r > 0 for r in par.r_branches.values())


def test_tail_has_branches_for_both_sources(tech, dp_layout):
    par = extract_net_parasitics(dp_layout, "tail", tech)
    assert par.branch("MA", "s") > 0
    assert par.branch("MB", "s") > 0


def test_missing_branch_raises(tech, dp_layout):
    par = extract_net_parasitics(dp_layout, "tail", tech)
    with pytest.raises(ExtractionError):
        par.branch("MA", "d")  # drains are not on the tail net


def test_unknown_net_raises(tech, dp_layout):
    with pytest.raises(ExtractionError):
        extract_net_parasitics(dp_layout, "bogus", tech)


def test_parallel_straps_reduce_branch_resistance(tech):
    spec = dp_spec()
    base = extract_net_parasitics(
        generate_layout(spec, "ABAB", tech), "tail", tech
    )
    tuned = extract_net_parasitics(
        generate_layout(spec, "ABAB", tech, WireConfig(parallel={"tail": 4})),
        "tail",
        tech,
    )
    assert tuned.branch("MA", "s") < base.branch("MA", "s")
    assert tuned.c_wire > base.c_wire  # the R/C trade-off


def test_more_rows_reduce_branch_resistance(tech):
    few_rows = extract_net_parasitics(
        generate_layout(dp_spec(MosGeometry(16, 8, 2)), "ABAB", tech), "tail", tech
    )
    many_rows = extract_net_parasitics(
        generate_layout(dp_spec(MosGeometry(4, 8, 8)), "ABAB", tech), "tail", tech
    )
    assert many_rows.branch("MA", "s") < few_rows.branch("MA", "s")


def test_aabb_clustering_raises_branch_resistance(tech):
    spec = dp_spec()
    abab = extract_net_parasitics(
        generate_layout(spec, "ABAB", tech), "tail", tech
    )
    aabb = extract_net_parasitics(
        generate_layout(spec, "AABB", tech), "tail", tech
    )
    # Each device spans half the rows in AABB: fewer parallel paths.
    assert aabb.branch("MA", "s") > abab.branch("MA", "s")


def test_symmetric_nets_extract_identically(tech, dp_layout):
    outp = extract_net_parasitics(dp_layout, "outp", tech)
    outn = extract_net_parasitics(dp_layout, "outn", tech)
    assert outp.branch("MA", "d") == pytest.approx(
        outn.branch("MB", "d"), rel=0.05
    )
    assert outp.c_wire == pytest.approx(outn.c_wire, rel=0.05)


@pytest.mark.parametrize("pattern", ["ABAB", "ABBA", "CC2D"])
@pytest.mark.parametrize(
    "wires",
    [
        WireConfig(),
        WireConfig(parallel={"tail": 4, "outp": 3, "outn": 3}, dummies=True),
    ],
    ids=["default", "tuned"],
)
def test_all_nets_equal_per_net_extraction(tech, pattern, wires):
    # extract_all_nets groups shapes in one pass; every net must come
    # out bitwise equal to the per-net path, which filters the layout.
    layout = generate_layout(dp_spec(), pattern, tech, wires, verify=False)
    nets = extract_all_nets(layout, tech)
    assert set(nets) == {w.net for w in layout.wires}
    for net, par in nets.items():
        single = extract_net_parasitics(layout, net, tech)
        assert par == single
        assert par.c_wire.hex() == single.c_wire.hex()
        assert par.r_trunk.hex() == single.r_trunk.hex()
        assert {k: v.hex() for k, v in par.r_branches.items()} == {
            k: v.hex() for k, v in single.r_branches.items()
        }
