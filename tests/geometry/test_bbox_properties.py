"""Bounding boxes: the single-pass min/max equals a pairwise union fold.

The reference fold below is the definition the geometry code used to
compute boxes by — one :meth:`Rect.union` per shape, vias as degenerate
rectangles.  The single-pass implementations must agree with it exactly,
including for via-only layouts and negative coordinates.
"""

from functools import reduce

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import LayoutError
from repro.geometry import (
    DevicePlacement,
    Layout,
    Point,
    Port,
    Rect,
    Via,
    Wire,
    bounding_box,
)

# Narrow ranges too, so near-coincident edges (off-by-one slips) show up.
coords = st.integers(-100_000, 100_000) | st.integers(-4, 4)
sizes = st.integers(0, 50_000) | st.integers(0, 3)
rects = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h), coords, coords, sizes, sizes
)
points = st.builds(Point, coords, coords)


def union_fold(rs: list[Rect]) -> Rect:
    """Reference: fold the rectangles pairwise with ``Rect.union``."""
    return reduce(Rect.union, rs)


def reference_layout_bbox(layout: Layout) -> Rect:
    rs = [d.rect for d in layout.devices]
    rs += [w.rect for w in layout.wires]
    rs += [p.rect for p in layout.ports]
    rs += [Rect(v.position.x, v.position.y, v.position.x, v.position.y)
           for v in layout.vias]
    return union_fold(rs)


def build_layout(devices, wires, ports, vias) -> Layout:
    lay = Layout(name="prop")
    lay.devices = [
        DevicePlacement(f"M{i}", 0, r, nfin=2, nf=2) for i, r in enumerate(devices)
    ]
    lay.wires = [Wire("n", "M2", r) for r in wires]
    lay.ports = [Port("n", "M2", r) for r in ports]
    lay.vias = [Via("n", "M1", "M2", p) for p in vias]
    return lay


@given(st.lists(rects, min_size=1, max_size=30))
@example([Rect(0, 0, 1, 1), Rect(-1, -1, 2, 2)])  # every edge grows by one
def test_bounding_box_equals_union_fold(rs):
    assert bounding_box(rs) == union_fold(rs)
    # Any iterable works, not only lists.
    assert bounding_box(iter(rs)) == union_fold(rs)


@given(
    st.lists(rects, max_size=8),
    st.lists(rects, max_size=8),
    st.lists(rects, max_size=4),
    st.lists(points, max_size=8),
)
def test_layout_bbox_equals_union_fold(devices, wires, ports, vias):
    lay = build_layout(devices, wires, ports, vias)
    if not (devices or wires or ports or vias):
        with pytest.raises(LayoutError):
            lay.bbox()
        return
    assert lay.bbox() == reference_layout_bbox(lay)


@given(st.lists(points, min_size=1, max_size=12))
def test_via_only_layout_bbox(vias):
    lay = build_layout([], [], [], vias)
    box = lay.bbox()
    assert box == reference_layout_bbox(lay)
    assert box.x0 == min(p.x for p in vias)
    assert box.y1 == max(p.y for p in vias)


def test_negative_coordinates_and_outlying_via():
    lay = build_layout(
        [Rect(-500, -300, -100, -20)], [Rect(-50, -900, 10, -880)], [],
        [Point(-2000, 40), Point(7, -1200)],
    )
    assert lay.bbox() == Rect(-2000, -1200, 10, 40)
    assert lay.bbox() == reference_layout_bbox(lay)


def test_empty_inputs_raise():
    with pytest.raises(LayoutError):
        bounding_box([])
    with pytest.raises(LayoutError):
        bounding_box(iter(()))
    with pytest.raises(LayoutError):
        Layout(name="empty").bbox()
