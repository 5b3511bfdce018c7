"""Columnar shapes: generated layouts, their record views and mutation."""

import hashlib

import pytest

from repro.cellgen.generator import WireConfig
from repro.devices.mosfet import MosGeometry
from repro.errors import LayoutError
from repro.extraction.rc import extract_all_nets
from repro.geometry import Layout, Point, Rect, Via, Wire
from repro.geometry.layout import ShapeColumns
from repro.primitives import PrimitiveLibrary

#: Three library cells and the digest of their wire and via records,
#: captured from the generator that emitted one record per shape.
CELLS = [
    (
        "differential_pair", MosGeometry(4, 4, 6), "ABBA",
        WireConfig(parallel={"outp": 3, "outn": 3}), 324, 840,
        "748405d56ccd4edd",
    ),
    (
        "current_mirror", MosGeometry(8, 2, 3), "CC2D",
        WireConfig(dummies=True), 108, 330, "d05d3e809512e4a6",
    ),
    (
        "cross_coupled_inverters", MosGeometry(2, 4, 6), "ABAB",
        None, 376, 1680, "46092975180672b8",
    ),
]


def generate(tech, name, geo, pattern, wires) -> Layout:
    primitive = PrimitiveLibrary().create(
        name, tech, base_fins=geo.nfin * geo.nf * geo.m
    )
    return primitive.generate(geo, pattern, wires, verify=False)


def shape_digest(layout: Layout) -> str:
    h = hashlib.sha256()
    for w in layout.wires:
        r = w.rect
        h.update(repr(
            (w.net, w.layer, (r.x0, r.y0, r.x1, r.y1), w.role, w.owner)
        ).encode())
    for v in layout.vias:
        p = v.position
        h.update(repr(
            (v.net, v.lower_layer, v.upper_layer, p.x, p.y, v.cuts)
        ).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "name, geo, pattern, wires, n_wires, n_vias, digest", CELLS,
    ids=[cell[0] for cell in CELLS],
)
def test_materialized_shapes_match_reference(
    tech, name, geo, pattern, wires, n_wires, n_vias, digest
):
    layout = generate(tech, name, geo, pattern, wires)
    assert len(layout.wires) == n_wires
    assert len(layout.vias) == n_vias
    assert shape_digest(layout) == digest


@pytest.mark.parametrize("name, geo, pattern, wires", [c[:4] for c in CELLS])
def test_columns_round_trip_through_records(tech, name, geo, pattern, wires):
    layout = generate(tech, name, geo, pattern, wires)
    box, nets = layout.bbox(), layout.nets()
    extracted = extract_all_nets(layout, tech)
    # Reading the records switches the layout to its lists; the list
    # conversion must give the same answers as the generator's columns.
    assert ShapeColumns.from_shapes(layout.wires, layout.vias).shapes() == (
        layout.wires, layout.vias
    )
    assert layout.bbox() == box
    assert layout.nets() == nets
    assert extract_all_nets(layout, tech) == extracted


def test_appended_shapes_reach_bbox_nets_and_extraction(tech):
    name, geo, pattern, wires = CELLS[0][:4]
    layout = generate(tech, name, geo, pattern, wires)
    box = layout.bbox()
    before = extract_all_nets(layout, tech)

    layout.wires.append(
        Wire("spare", "M2", Rect(box.x0, box.y1 + 100, box.x1, box.y1 + 132))
    )
    layout.vias.append(Via("tail", "M2", "M3", Point(box.x1 + 500, box.y0)))

    assert layout.bbox() == Rect(box.x0, box.y0, box.x1 + 500, box.y1 + 132)
    assert "spare" in layout.nets()
    after = extract_all_nets(layout, tech)
    assert set(after) == set(before) | {"spare"}
    assert after["spare"].c_wire > 0.0
    assert after["tail"].c_wire > before["tail"].c_wire
    assert after["outp"] == before["outp"]


def test_unknown_wire_role_is_rejected():
    layout = Layout(name="bad")
    layout.wires.append(Wire("n", "M2", Rect(0, 0, 100, 32), role="jumper"))
    with pytest.raises(LayoutError, match="unknown wire role"):
        layout.bbox()


def test_columns_and_lists_are_exclusive():
    columns = ShapeColumns.from_shapes([Wire("n", "M2", Rect(0, 0, 9, 3))], [])
    with pytest.raises(LayoutError):
        Layout("both", wires=[Wire("n", "M2", Rect(0, 0, 9, 3))], columns=columns)
