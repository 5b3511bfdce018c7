"""Layout container: wires, ports, instances."""

import pytest

from repro.errors import LayoutError
from repro.geometry import (
    DevicePlacement,
    Instance,
    Layout,
    Point,
    Port,
    Rect,
    Via,
    Wire,
    flatten_instances,
)


def make_layout():
    lay = Layout(name="cell")
    lay.devices.append(
        DevicePlacement("MA", 0, Rect(0, 0, 1800, 384), nfin=8, nf=20)
    )
    lay.wires.append(Wire("out", "M2", Rect(0, 400, 1800, 432), role="strap"))
    lay.wires.append(
        Wire("out", "M1", Rect(0, 0, 32, 432), role="finger_stub", owner="MA.d")
    )
    lay.vias.append(Via("out", "M1", "M2", Point(0, 400)))
    lay.ports.append(Port("out", "M2", Rect(0, 400, 32, 432)))
    return lay


def test_wire_length_and_width():
    w = Wire("n", "M2", Rect(0, 0, 1000, 32))
    assert w.length == 1000
    assert w.width == 32
    v = Wire("n", "M1", Rect(0, 0, 32, 500))
    assert v.length == 500


def test_via_cuts_validation():
    with pytest.raises(LayoutError):
        Via("n", "M1", "M2", Point(0, 0), cuts=0)


def test_layout_bbox_and_aspect():
    lay = make_layout()
    box = lay.bbox()
    assert box.width == 1800
    assert lay.area == box.area
    assert lay.aspect_ratio == pytest.approx(1800 / 432)


def test_empty_layout_bbox_raises():
    with pytest.raises(LayoutError):
        Layout(name="empty").bbox()


def test_port_lookup():
    lay = make_layout()
    assert lay.port("out").layer == "M2"
    with pytest.raises(LayoutError):
        lay.port("zz")


def test_port_nets_ordered_unique():
    lay = make_layout()
    lay.ports.append(Port("out", "M3", Rect(0, 0, 10, 10)))
    assert lay.port_nets() == ["out"]


def test_nets_listing():
    lay = make_layout()
    assert lay.nets() == ["out"]


def test_nets_include_via_only_nets():
    lay = make_layout()
    lay.vias.append(Via("orphan", "M2", "M3", Point(500, 500)))
    assert lay.nets() == ["orphan", "out"]


def test_bbox_includes_via_positions():
    lay = make_layout()
    base = lay.bbox()
    lay.vias.append(Via("out", "M1", "M2", Point(base.x1 + 400, 0)))
    grown = lay.bbox()
    assert grown.x1 == base.x1 + 400
    assert grown.y0 == base.y0


def test_instance_placed_bbox():
    lay = make_layout()
    inst = Instance("x1", lay, Point(1000, 2000))
    box = inst.placed_bbox()
    assert box.x0 == 1000
    assert box.y0 == 2000
    assert box.width == lay.width


def test_instance_port_center():
    lay = make_layout()
    inst = Instance("x1", lay, Point(100, 200))
    center = inst.port_center("out")
    local = lay.port("out").rect.center
    box = lay.bbox()
    assert center.x == 100 + (local.x - box.x0)
    assert center.y == 200 + (local.y - box.y0)


def test_instance_port_center_flipped():
    lay = make_layout()
    plain = Instance("a", lay, Point(0, 0)).port_center("out")
    flipped = Instance("b", lay, Point(0, 0), flipped_x=True).port_center("out")
    assert flipped.x == lay.width - plain.x
    assert flipped.y == plain.y


def test_wire_roles_and_owner_defaults():
    w = Wire("n", "M2", Rect(0, 0, 100, 32))
    assert w.role == "route"
    assert w.owner == ""


def test_layout_metadata_free_form():
    lay = Layout(name="m")
    lay.metadata["pattern"] = "ABBA"
    assert lay.metadata["pattern"] == "ABBA"


def test_flatten_translates_and_prefixes():
    lay = make_layout()
    flat = flatten_instances(
        "top",
        [
            Instance("x1", lay, Point(0, 0)),
            Instance("x2", lay, Point(5000, 0)),
        ],
    )
    assert len(flat.devices) == 2 * len(lay.devices)
    assert len(flat.wires) == 2 * len(lay.wires)
    assert len(flat.vias) == 2 * len(lay.vias)
    # Unmapped nets get instance prefixes so children cannot alias.
    assert sorted(flat.nets()) == ["x1/out", "x2/out"]
    assert flat.devices[0].device == "x1/MA"
    second = flat.devices[len(lay.devices)]
    assert second.rect.x0 == lay.devices[0].rect.x0 + 5000


def test_flatten_net_map_merges_onto_parent_net():
    lay = make_layout()
    flat = flatten_instances(
        "top",
        [
            Instance("x1", lay, Point(0, 0)),
            Instance("x2", lay, Point(5000, 0)),
        ],
        net_map={"x1": {"out": "bus"}, "x2": {"out": "bus"}},
    )
    assert flat.nets() == ["bus"]


def test_flatten_mirrors_flipped_instances():
    lay = make_layout()
    plain = flatten_instances("p", [Instance("a", lay, Point(0, 0))])
    mirrored = flatten_instances(
        "m", [Instance("a", lay, Point(0, 0), flipped_x=True)]
    )
    width = lay.bbox().width
    rect = plain.devices[0].rect
    mrect = mirrored.devices[0].rect
    assert mrect.x0 == width - rect.x1
    assert mrect.x1 == width - rect.x0
    assert mrect.y0 == rect.y0
