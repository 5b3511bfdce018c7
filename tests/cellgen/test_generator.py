"""The primitive cell generator."""

import pytest

from repro.cellgen import CellDevice, CellSpec, WireConfig, generate_layout
from repro.devices.mosfet import MosGeometry
from repro.errors import LayoutError


def dp_spec(geo=MosGeometry(8, 4, 2), geo_b=None):
    return CellSpec(
        name="dp",
        devices=(
            CellDevice("MA", "n", geo, {"d": "outp", "g": "inp", "s": "tail"}),
            CellDevice("MB", "n", geo_b or geo, {"d": "outn", "g": "inn", "s": "tail"}),
        ),
        matched_group=("MA", "MB"),
        port_nets=("inp", "inn", "outp", "outn", "tail"),
    )


@pytest.mark.parametrize("pattern", ["ABAB", "ABBA", "AABB", "CC2D"])
def test_generates_all_patterns(tech, pattern):
    lay = generate_layout(dp_spec(), pattern, tech)
    assert len(lay.devices) == 4  # 2 devices x m=2 units
    assert lay.width > 0 and lay.height > 0
    assert lay.metadata["pattern"] == pattern


def test_unit_count_matches_multiplicity(tech):
    lay = generate_layout(dp_spec(MosGeometry(8, 4, 3)), "ABAB", tech)
    assert len([p for p in lay.devices if p.device == "MA"]) == 3


def test_ports_exist_for_all_port_nets(tech):
    lay = generate_layout(dp_spec(), "ABAB", tech)
    assert set(lay.port_nets()) == {"inp", "inn", "outp", "outn", "tail"}


def test_rows_metadata(tech):
    lay = generate_layout(dp_spec(MosGeometry(8, 4, 3)), "ABAB", tech)
    assert lay.metadata["rows"] == 3


def test_well_rect_encloses_devices(tech):
    lay = generate_layout(dp_spec(), "ABBA", tech)
    well = lay.well_rect
    for p in lay.devices:
        assert well.x0 <= p.rect.x0 and well.x1 >= p.rect.x1


def test_stub_owners_recorded(tech):
    lay = generate_layout(dp_spec(), "ABAB", tech)
    owners = {w.owner for w in lay.wires if w.role == "finger_stub"}
    assert "MA.s" in owners and "MB.d" in owners and "MA.g" in owners


def test_parallel_straps_increase_wire_count_and_height(tech):
    base = generate_layout(dp_spec(), "ABAB", tech)
    tuned = generate_layout(
        dp_spec(), "ABAB", tech, WireConfig(parallel={"tail": 4})
    )
    n_base = sum(w.net == "tail" for w in base.wires)
    n_tuned = sum(w.net == "tail" for w in tuned.wires)
    assert n_tuned > n_base
    assert tuned.height > base.height


def test_dummies_widen_cell(tech):
    base = generate_layout(dp_spec(), "ABAB", tech)
    dummied = generate_layout(dp_spec(), "ABAB", tech, WireConfig(dummies=True))
    assert dummied.width > base.width
    assert all(p.dummy_fingers > 0 for p in dummied.devices)


def test_rails_present_per_net(tech):
    from repro.cellgen.generator import RAILS_PER_NET

    # A 2-row cell gets min(RAILS_PER_NET, rows) rails per signal net.
    lay = generate_layout(dp_spec(), "ABAB", tech)
    rails = [w for w in lay.wires if w.role == "rail" and w.net == "tail"]
    assert len(rails) == min(RAILS_PER_NET, 2)
    # More rows, more rails (up to the cap).
    tall = generate_layout(dp_spec(MosGeometry(8, 4, 6)), "ABAB", tech)
    tall_rails = [w for w in tall.wires if w.role == "rail" and w.net == "tail"]
    assert len(tall_rails) == RAILS_PER_NET


def test_mismatched_matched_group_sizing_rejected(tech):
    spec = dp_spec(MosGeometry(8, 4, 2), geo_b=MosGeometry(16, 4, 2))
    with pytest.raises(LayoutError):
        generate_layout(spec, "ABAB", tech)


def test_empty_matched_group_rejected(tech):
    spec = CellSpec(
        name="x",
        devices=(CellDevice("M1", "n", MosGeometry(8), {"d": "d", "g": "g", "s": "0"}),),
        matched_group=(),
        port_nets=("d",),
    )
    with pytest.raises(LayoutError):
        generate_layout(spec, "ABAB", tech)


def test_unmatched_device_gets_own_row(tech):
    geo = MosGeometry(8, 4, 2)
    spec = CellSpec(
        name="sdp",
        devices=(
            CellDevice("MA", "n", geo, {"d": "outp", "g": "inp", "s": "t"}),
            CellDevice("MB", "n", geo, {"d": "outn", "g": "inn", "s": "t"}),
            CellDevice("MSW", "n", MosGeometry(8, 4, 1), {"d": "t", "g": "en", "s": "tail"}),
        ),
        matched_group=("MA", "MB"),
        port_nets=("inp", "inn", "outp", "outn", "tail", "en"),
    )
    lay = generate_layout(spec, "ABBA", tech)
    assert lay.metadata["rows"] == 3  # 2 matched rows + 1 for the switch


def test_missing_terminal_rejected():
    with pytest.raises(LayoutError):
        CellDevice("MX", "n", MosGeometry(8), {"d": "a", "g": "b"})


def test_bad_strap_count_rejected(tech):
    with pytest.raises(LayoutError):
        generate_layout(
            dp_spec(), "ABAB", tech, WireConfig(parallel={"tail": 0})
        )


def test_aspect_ratio_varies_with_sizing(tech):
    wide = generate_layout(dp_spec(MosGeometry(4, 16, 1)), "ABAB", tech)
    tall = generate_layout(dp_spec(MosGeometry(16, 4, 4)), "ABAB", tech)
    assert wide.aspect_ratio > tall.aspect_ratio


def test_gate_mesh_density(tech):
    # A contact every four fingers plus the centre for nf=8: 2 per unit.
    lay = generate_layout(dp_spec(MosGeometry(8, 8, 1)), "ABAB", tech)
    ma_gate_stubs = [
        w for w in lay.wires if w.role == "finger_stub" and w.owner == "MA.g"
    ]
    assert len(ma_gate_stubs) == 2
