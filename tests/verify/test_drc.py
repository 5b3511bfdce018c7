"""Seeded design-rule violations must surface exact rule IDs."""

from dataclasses import replace

from repro.geometry import Instance, Layout, Point, Rect, Via, Wire
from repro.verify import Report, run_drc
from repro.verify.drc import check_instance_overlaps


def test_clean_layout_has_no_drc_errors(dp_layout, tech):
    report = run_drc(dp_layout, tech)
    assert not report.errors
    assert report.checked_shapes > 0


def test_off_fin_grid_height_flagged(dp_layout, tech):
    dev = dp_layout.devices[0]
    bad = replace(dev, rect=Rect(dev.rect.x0, dev.rect.y0,
                                 dev.rect.x1, dev.rect.y1 + 7))
    dp_layout.devices[0] = bad
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-FIN-PITCH") == 1


def test_off_poly_grid_width_flagged(dp_layout, tech):
    dev = dp_layout.devices[0]
    bad = replace(dev, rect=Rect(dev.rect.x0, dev.rect.y0,
                                 dev.rect.x1 + 13, dev.rect.y1))
    dp_layout.devices[0] = bad
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-POLY-PITCH") == 1


def test_off_grid_x_origin_flagged(dp_layout, tech):
    dev = dp_layout.devices[0]
    bad = replace(dev, rect=dev.rect.translated(7, 0))
    dp_layout.devices[0] = bad
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-POLY-PITCH") == 1
    # The x-grid phase is not checked in assembly (relative) mode.
    relaxed = run_drc(dp_layout, tech, absolute_grid=False)
    assert relaxed.count("DRC-POLY-PITCH") == 0


def test_wrong_dummy_count_breaks_footprint(dp_layout, tech):
    dev = dp_layout.devices[0]
    dp_layout.devices[0] = replace(dev, dummy_fingers=dev.dummy_fingers + 3)
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-FINGER-FOOTPRINT") >= 1


def test_overlapping_actives_flagged(dp_layout, tech):
    dev = dp_layout.devices[0]
    dp_layout.devices.append(
        replace(dev, unit_index=99, rect=dev.rect.translated(1, 1))
    )
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-ACTIVE-OVERLAP") >= 1


def test_undersized_wire_flagged(dp_layout, tech):
    dp_layout.wires.append(Wire("x", "M2", Rect(0, 5000, 500, 5010)))
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-WIRE-WIDTH") == 1


def test_wire_spacing_violation_flagged(dp_layout, tech):
    # Two routing wires of different nets 1 nm apart, far from the cell.
    dp_layout.wires.append(Wire("a", "M2", Rect(0, 9000, 500, 9032)))
    dp_layout.wires.append(Wire("b", "M2", Rect(0, 9033, 500, 9065)))
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-WIRE-SPACING") >= 1


def test_unknown_layer_flagged(dp_layout, tech):
    dp_layout.wires.append(Wire("x", "M99", Rect(0, 5000, 500, 5032)))
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-LAYER-UNKNOWN") == 1


def test_non_adjacent_via_flagged(dp_layout, tech):
    dp_layout.vias.append(Via("x", "M1", "M3", Point(100, 100)))
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-VIA-STACK") == 1


def test_unlanded_via_is_enclosure_warning(dp_layout, tech):
    dp_layout.vias.append(Via("x", "M1", "M2", Point(99999, 99999)))
    report = run_drc(dp_layout, tech)
    added = [
        v for v in report.violations
        if v.rule == "DRC-VIA-ENCLOSURE" and v.location == Point(99999, 99999)
    ]
    assert len(added) == 2  # neither side lands
    assert all(not v.is_error for v in added)


def test_zero_cut_via_flagged(dp_layout, tech):
    via = dp_layout.vias[0]
    # Via.__post_init__ rejects cuts < 1, so corrupt a frozen instance.
    object.__setattr__(via, "cuts", 0)
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-VIA-CUTS") == 1


def test_shrunken_well_flagged(dp_layout, tech):
    well = dp_layout.well_rect
    assert well is not None
    dp_layout.well_rect = Rect(well.x0 + 100, well.y0 + 100, well.x1, well.y1)
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-WELL-ENCLOSURE") >= 1


def test_missing_well_is_warning(dp_layout, tech):
    dp_layout.well_rect = None
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-WELL-MISSING") == 1
    assert report.ok  # a warning, not an error


def test_port_outside_bbox_flagged(dp_layout, tech):
    port = dp_layout.ports[0]
    dp_layout.ports[0] = replace(port, rect=port.rect.translated(10**6, 0))
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-PORT-BBOX") == 1


def test_port_on_unknown_layer_flagged(dp_layout, tech):
    port = dp_layout.ports[0]
    dp_layout.ports[0] = replace(port, layer="poly")
    report = run_drc(dp_layout, tech)
    assert report.count("DRC-LAYER-UNKNOWN") == 1


def test_instance_overlap_flagged(dp_layout):
    a = Instance("a", dp_layout, Point(0, 0))
    b = Instance("b", dp_layout, Point(10, 10))
    report = Report(target="asm")
    check_instance_overlaps(report, [a, b])
    assert report.count("DRC-PLACE-OVERLAP") == 1


def test_disjoint_instances_clean(dp_layout):
    a = Instance("a", dp_layout, Point(0, 0))
    b = Instance("b", dp_layout, Point(dp_layout.width + 500, 0))
    report = Report(target="asm")
    check_instance_overlaps(report, [a, b])
    assert report.ok


def test_spacing_gap_signs(tech):
    # Abutting wires of different nets are 0 nm apart; overlapping ones
    # are shorts (a connectivity finding), not spacing violations.
    m2 = tech.stack.metal("M2")
    spacing = m2.pitch - m2.min_width

    def spacing_messages(y_b):
        lay = Layout(name="gap", wires=[
            Wire("a", "M2", Rect(0, 0, 500, 32)),
            Wire("b", "M2", Rect(0, y_b, 500, y_b + 32)),
        ])
        report = run_drc(lay, tech)
        return [v.message for v in report.violations if v.rule == "DRC-WIRE-SPACING"]

    assert spacing_messages(32 + spacing) == []
    assert [f"{spacing - 1}nm apart" in m for m in spacing_messages(31 + spacing)] == [True]
    assert ["0nm apart" in m for m in spacing_messages(32)] == [True]
    assert spacing_messages(16) == []


def test_ports_layout_without_ports_is_fine(tech):
    lay = Layout(name="bare")
    assert run_drc(lay, tech).ok
