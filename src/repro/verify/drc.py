"""Design-rule checks over generated layouts.

A pure static-analysis pass: every check reads a :class:`~repro.geometry.
layout.Layout` and tests an invariant derivable from the technology's
:class:`~repro.tech.rules.DesignRules` and metal stack.  No simulation,
no extraction.  Pair checks take their candidates from
:func:`~repro.geometry.search.close_pairs`.

Gridded-FinFET invariants checked here:

* device active areas sit on the fin/poly pitch grid and match the
  footprint formulas in :mod:`repro.tech.rules`,
* no two active areas overlap,
* wires meet their layer's minimum width, and routing wires of different
  nets keep the layer's minimum spacing (``pitch - min_width``),
* vias join adjacent metals with at least one cut and land on same-net
  metal,
* the well encloses every device by the well-enclosure rule,
* ports lie inside the cell and reference real metal layers.

Two geometry conventions of the cell generator are deliberately
tolerated (see ``docs/verification.md`` for the rationale):

* **Finger stubs** (``role == "finger_stub"``) are device-level contact
  bars locked to the poly grid; their mutual spacing is set by the
  contacted poly pitch, not the M1 routing rule, so the wire-spacing
  check skips stub pairs (the grid itself is checked by
  ``DRC-POLY-PITCH``).
* **Via chains** may land on one metal only (``DRC-VIA-ENCLOSURE`` is a
  warning): the generator stacks redundant cuts at every strap crossing
  and relies on the rail mesh for the return path.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
from numpy.typing import NDArray

from repro.errors import TechnologyError
from repro.geometry.layout import FINGER_STUB, DevicePlacement, Layout, ShapeColumns
from repro.geometry.search import close_pairs, first_seen
from repro.geometry.shapes import Rect, bounding_box
from repro.tech.pdk import Technology
from repro.verify.diagnostics import Report


def gate_stubs(cols: ShapeColumns) -> NDArray[np.bool_]:
    """Per wire, True for a gate-contact stub.

    The generator models gate contacts as ``finger_stub`` wires on
    ``"M1"`` owned by a ``.g`` terminal; physically they are contact
    towers over the gate, one level apart from the source/drain trench
    contacts, so they neither short nor connect to s/d stubs by overlap.
    A wire's conducting plane is its layer plus this flag.
    """
    gate_owner = np.array([o.endswith(".g") for o in cols.owners], dtype=bool)
    *_, role, owner = cols.wires
    return np.asarray((role == FINGER_STUB) & gate_owner[owner], dtype=bool)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_device_grid(
    report: Report,
    devices: Iterable[DevicePlacement],
    tech: Technology,
    absolute_grid: bool = True,
) -> None:
    rules = tech.rules
    for dev in devices:
        subject = f"{dev.device}[{dev.unit_index}]"
        if dev.rect.height != dev.nfin * rules.fin_pitch:
            report.add(
                "DRC-FIN-PITCH",
                "error",
                f"active height {dev.rect.height}nm is off the fin grid "
                f"(expected {dev.nfin} fins x {rules.fin_pitch}nm "
                f"= {dev.nfin * rules.fin_pitch}nm)",
                subject=subject,
                rect=dev.rect,
            )
        if dev.rect.width != dev.nf * rules.poly_pitch:
            report.add(
                "DRC-POLY-PITCH",
                "error",
                f"active width {dev.rect.width}nm is off the poly grid "
                f"(expected {dev.nf} fingers x {rules.poly_pitch}nm "
                f"= {dev.nf * rules.poly_pitch}nm)",
                subject=subject,
                rect=dev.rect,
            )
        elif (
            absolute_grid
            and (dev.rect.x0 - rules.diffusion_extension) % rules.poly_pitch
        ):
            report.add(
                "DRC-POLY-PITCH",
                "error",
                f"active x0={dev.rect.x0}nm is not on the poly pitch grid "
                f"(offset {rules.diffusion_extension}nm, "
                f"pitch {rules.poly_pitch}nm)",
                subject=subject,
                rect=dev.rect,
            )
        expected = rules.finger_footprint(
            dev.nf, with_dummies=dev.dummy_fingers > 0
        )
        actual = (
            dev.rect.width
            + 2 * dev.dummy_fingers * rules.poly_pitch
            + 2 * rules.diffusion_extension
        )
        if dev.rect.width == dev.nf * rules.poly_pitch and actual != expected:
            report.add(
                "DRC-FINGER-FOOTPRINT",
                "error",
                f"unit footprint {actual}nm does not match "
                f"finger_footprint({dev.nf}) = {expected}nm "
                f"({dev.dummy_fingers} dummy fingers placed, "
                f"{rules.dummy_fingers} required)",
                subject=subject,
                rect=dev.rect,
            )


def _overlapping(rects: list[Rect]) -> Iterator[tuple[int, int]]:
    """Index pairs of rectangles whose open interiors overlap, in sweep order."""
    x0, y0, x1, y1 = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=np.int64
    ).reshape(-1, 4).T
    for i, j in zip(*(k.tolist() for k in close_pairs(x0, y0, x1, y1))):
        if rects[i].overlaps(rects[j]):
            yield i, j


def _check_active_overlap(
    report: Report, devices: list[DevicePlacement]
) -> None:
    for i, j in _overlapping([d.rect for d in devices]):
        dev_a, dev_b = devices[i], devices[j]
        report.add(
            "DRC-ACTIVE-OVERLAP",
            "error",
            f"active areas of {dev_a.device}[{dev_a.unit_index}] and "
            f"{dev_b.device}[{dev_b.unit_index}] overlap",
            subject=dev_a.device,
            rect=dev_a.rect,
        )


def _check_wires(report: Report, cols: ShapeColumns, tech: Technology) -> None:
    by_name = {metal.name: metal for metal in tech.stack.metals}
    metals = [by_name.get(name) for name in cols.layers]
    net, layer, x0, y0, x1, y1, role, _ = cols.wires
    known = np.array([m is not None for m in metals], dtype=bool)[layer]
    width = np.minimum(x1 - x0, y1 - y0)
    min_width = np.array([m.min_width if m else 0 for m in metals])[layer]
    for i in np.flatnonzero(~known | (width < min_width)).tolist():
        name, metal = cols.layers[layer[i]], metals[layer[i]]
        report.add(
            "DRC-LAYER-UNKNOWN" if metal is None else "DRC-WIRE-WIDTH",
            "error",
            f"wire on unknown layer {name!r}" if metal is None else
            f"{name} wire is {width[i]}nm wide, minimum is {metal.min_width}nm",
            subject=cols.nets[net[i]],
            rect=cols.wire_rect(i),
        )

    # Spacing between routing wires of different nets, layer by layer in
    # order of first appearance.  Device-level finger stubs are excluded:
    # their pitch is the contacted poly pitch, already enforced by
    # DRC-POLY-PITCH.
    pitch = np.array([m.pitch - m.min_width if m else 0 for m in metals])
    rows = np.flatnonzero(known & (role != FINGER_STUB))
    spacing = pitch[layer[rows]]
    a, b = close_pairs(
        x0[rows], y0[rows], x1[rows], y1[rows],
        margin=np.maximum(spacing - 1, 0), group=first_seen(layer)[rows],
    )
    a, b, spacing = rows[a], rows[b], spacing[a]
    gap = np.maximum(
        np.maximum(x0[a] - x1[b], x0[b] - x1[a]),
        np.maximum(y0[a] - y1[b], y0[b] - y1[a]),
    )
    for k in np.flatnonzero((net[a] != net[b]) & (gap >= 0) & (gap < spacing)).tolist():
        net_a, net_b = cols.nets[net[a[k]]], cols.nets[net[b[k]]]
        report.add(
            "DRC-WIRE-SPACING",
            "error",
            f"{cols.layers[layer[a[k]]]} wires on nets {net_a!r} and {net_b!r} "
            f"are {gap[k]}nm apart, minimum spacing is {spacing[k]}nm",
            subject=f"{net_a}/{net_b}",
            rect=cols.wire_rect(a[k]),
        )


def _check_vias(report: Report, cols: ShapeColumns, tech: Technology) -> None:
    # Per layer pair: the two metal indices (None for an unknown metal).
    index = {metal.name: metal.index for metal in tech.stack.metals}
    indices = [(index.get(lower), index.get(upper)) for lower, upper in cols.via_layers]
    net_id, pair_id, _, _, cuts = cols.vias
    landed = np.isin(np.arange(2 * len(cuts)), cols.via_landings()[0]).reshape(-1, 2)
    odd = np.array(
        [lo is None or up is None or up - lo != 1 for lo, up in indices], dtype=bool
    )
    flagged = odd[pair_id] | (cuts < 1) | ~landed.all(axis=1)
    for v in np.flatnonzero(flagged).tolist():
        lower, upper = cols.via_layers[pair_id[v]]
        net = cols.nets[net_id[v]]
        subject, position = f"{net}:{lower}-{upper}", cols.via_position(v)
        lo, up = indices[pair_id[v]]
        if lo is None or up is None:
            report.add(
                "DRC-VIA-STACK",
                "error",
                f"via references unknown layer pair ({lower!r}, {upper!r})",
                subject=subject,
                location=position,
            )
            continue
        if up - lo != 1:
            report.add(
                "DRC-VIA-STACK",
                "error",
                f"via joins non-adjacent metals {lower} (index {lo}) "
                f"and {upper} (index {up})",
                subject=subject,
                location=position,
            )
        if cuts[v] < 1:
            report.add(
                "DRC-VIA-CUTS", "error", f"via has {cuts[v]} cuts, need at least 1",
                subject=subject,
                location=position,
            )
        for side, name in enumerate((lower, upper)):
            if not landed[v, side]:
                report.add(
                    "DRC-VIA-ENCLOSURE",
                    "warning",
                    f"via is not enclosed by {name} metal on net {net!r}",
                    subject=subject,
                    location=position,
                )


def _check_well(report: Report, layout: Layout, tech: Technology) -> None:
    if not layout.devices:
        return
    well = layout.well_rect
    if well is None:
        report.add(
            "DRC-WELL-MISSING",
            "warning",
            "layout places devices but has no well rectangle",
            subject=layout.name,
        )
        return
    margin = tech.rules.well_enclosure
    for dev in layout.devices:
        rect = dev.rect
        if (
            rect.x0 - well.x0 < margin
            or well.x1 - rect.x1 < margin
            or rect.y0 - well.y0 < margin
            or well.y1 - rect.y1 < margin
        ):
            report.add(
                "DRC-WELL-ENCLOSURE",
                "error",
                f"well encloses {dev.device}[{dev.unit_index}] by less "
                f"than {margin}nm",
                subject=dev.device,
                rect=rect,
            )


def _check_ports(
    report: Report, layout: Layout, cols: ShapeColumns, tech: Technology
) -> None:
    if not layout.ports:
        return
    boxes = [d.rect for d in layout.devices]
    _, _, x0, y0, x1, y1, _, _ = cols.wires
    if len(x0):
        boxes.append(Rect(int(x0.min()), int(y0.min()), int(x1.max()), int(y1.max())))
    core = bounding_box(boxes) if boxes else None
    for port in layout.ports:
        try:
            tech.stack.metal(port.layer)
        except TechnologyError:
            report.add(
                "DRC-LAYER-UNKNOWN",
                "error",
                f"port on unknown layer {port.layer!r}",
                subject=port.net,
                rect=port.rect,
            )
            continue
        if core is not None and not (
            core.x0 <= port.rect.x0
            and port.rect.x1 <= core.x1
            and core.y0 <= port.rect.y0
            and port.rect.y1 <= core.y1
        ):
            report.add(
                "DRC-PORT-BBOX",
                "error",
                f"port on net {port.net!r} lies outside the cell "
                f"geometry bounding box",
                subject=port.net,
                rect=port.rect,
            )


def check_instance_overlaps(report: Report, instances: list) -> None:
    """Flag placed instances whose bounding boxes overlap.

    ``instances`` are :class:`~repro.geometry.layout.Instance` records;
    the check runs in parent coordinates via ``placed_bbox``.
    """
    rects = [inst.placed_bbox() for inst in instances]
    for i, j in _overlapping(rects):
        report.add(
            "DRC-PLACE-OVERLAP",
            "error",
            f"placed instances {instances[i].name!r} and "
            f"{instances[j].name!r} overlap",
            subject=instances[i].name,
            rect=rects[i],
        )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_drc(
    layout: Layout, tech: Technology, absolute_grid: bool = True
) -> Report:
    """Run every design-rule check on one layout.

    Args:
        layout: The layout to check (a primitive cell or a flattened
            block).
        tech: The technology whose rules the layout must satisfy.
        absolute_grid: Check device x-origins against the absolute poly
            grid.  Flattened assemblies pass ``False``: placement
            translates each child by an arbitrary offset, so the x-grid
            phase is a cell-internal property already verified per child
            (every translation-invariant check still runs).

    Returns:
        A :class:`Report` with one violation per broken rule instance.
    """
    cols = layout.shape_columns()
    report = Report(target=layout.name)
    report.checked_shapes = (
        len(layout.devices) + cols.wires.shape[1] + cols.vias.shape[1]
        + len(layout.ports)
    )
    _check_device_grid(
        report, layout.devices, tech, absolute_grid=absolute_grid
    )
    _check_active_overlap(report, layout.devices)
    _check_wires(report, cols, tech)
    _check_vias(report, cols, tech)
    _check_well(report, layout, tech)
    _check_ports(report, layout, cols, tech)
    return report
