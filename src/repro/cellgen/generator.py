"""The primitive cell generator.

:func:`generate_layout` turns a :class:`CellSpec` (devices, terminal
nets, matched groups) plus a placement pattern and a :class:`WireConfig`
into a full :class:`~repro.geometry.layout.Layout`.

Geometry model — the 2D mesh arrangement FinFET analog cells use:

* The matched group's units are stacked as ``m`` rows of one unit per
  device (see :func:`repro.cellgen.patterns.pattern_rows`); unmatched
  devices get their own rows below.  This is what makes the paper's
  (nfin, nf, m) factorizations trade bounding-box aspect ratio.
* Each row carries horizontal M2 *row straps* per net; every diffusion
  column rises to them through an M1 *finger stub*.  The number of straps
  per row per net is ``1 + n_parallel(net)`` — the tuning lever of
  primitive tuning (Algorithm 1, step 2).  Straps occupy tracks above the
  row's active area, so adding straps grows the cell height, which is the
  degradation mechanism the paper cites for over-tuned cells.
* Vertical M3 *rails* on the right edge of the cell collect each net's
  row straps and carry it to the port at the bottom.
* Stubs record their owning device+terminal so extraction can build
  per-device branch resistances (a differential pair's Gm degradation
  depends on each transistor's own path to the common node, not on the
  shared trunk).

Wires and vias are emitted as integer columns
(:class:`~repro.geometry.layout.ShapeColumns`), with no record per
shape; the layout builds its ``Wire``/``Via`` records only if something
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cellgen.patterns import PatternRows, pattern_rows
from repro.devices.mosfet import MosGeometry
from repro.errors import LayoutError
from repro.geometry.layout import (
    FINGER_STUB,
    RAIL,
    STRAP,
    STRAP_JUMPER,
    V_CUTS,
    V_NET,
    V_PAIR,
    V_X,
    V_Y,
    DevicePlacement,
    Layout,
    Port,
    ShapeColumns,
    int_columns,
)
from repro.geometry.shapes import Rect, bounding_box
from repro.spice.netlist import is_power_net
from repro.tech.pdk import Technology

#: Number of vertical trunk rails per net (fixed mesh density).
RAILS_PER_NET = 4

#: Default verification policy for emitted layouts.  ``True`` runs the
#: static DRC + connectivity pass on every layout the generator returns
#: and attaches the report to ``layout.metadata["verification"]``.  Hot
#: sweep loops (the optimizer's variant enumeration) pass
#: ``verify=False`` explicitly and verify only the variants they emit.
VERIFY_EMITTED = True


@dataclass(frozen=True)
class CellDevice:
    """One schematic device to lay out.

    Attributes:
        name: Device name (e.g. ``"MA"``).
        polarity: ``"n"`` or ``"p"``.
        geometry: (nfin, nf, m) sizing.
        terminals: Mapping from terminal letter (``"d"``, ``"g"``, ``"s"``,
            optionally ``"b"``) to net name.
    """

    name: str
    polarity: str
    geometry: MosGeometry
    terminals: dict[str, str]

    def __post_init__(self) -> None:
        for required in ("d", "g", "s"):
            if required not in self.terminals:
                raise LayoutError(
                    f"device {self.name!r}: missing terminal {required!r}"
                )


@dataclass(frozen=True)
class CellSpec:
    """Input to the cell generator.

    Attributes:
        name: Cell name.
        devices: All devices in the primitive.
        matched_group: Names of devices placed with the chosen pattern
            (the primitive's matching constraint).  Devices not in the
            group are placed in their own rows below the matched stack.
        port_nets: Nets exposed as ports, in declaration order.
        symmetric_pairs: Net pairs that must stay electrically matched;
            the generator alternates their strap-track assignment per row
            so both see the same average stub length.
    """

    name: str
    devices: tuple[CellDevice, ...]
    matched_group: tuple[str, ...]
    port_nets: tuple[str, ...]
    symmetric_pairs: tuple[tuple[str, str], ...] = ()

    def device(self, name: str) -> CellDevice:
        for dev in self.devices:
            if dev.name == name:
                return dev
        raise LayoutError(f"cell {self.name!r} has no device {name!r}")


@dataclass
class WireConfig:
    """Per-net effective wire widths.

    ``parallel`` maps net names to the number of *additional* parallel
    row straps (the paper's tuning variable); unlisted nets get 1.  The
    generator places ``1 + parallel`` straps per row per net.
    ``dummies`` adds dummy fingers on both sides of every unit.
    """

    parallel: dict[str, int] = field(default_factory=dict)
    dummies: bool = False

    def straps(self, net: str) -> int:
        count = self.parallel.get(net, 1)
        if count < 1:
            raise LayoutError(f"net {net!r}: strap count must be >= 1")
        return count

    def with_straps(self, net: str, count: int) -> "WireConfig":
        updated = dict(self.parallel)
        updated[net] = count
        return WireConfig(parallel=updated, dummies=self.dummies)


def generate_layout(
    spec: CellSpec,
    pattern: str,
    tech: Technology,
    wires: WireConfig | None = None,
    verify: bool | None = None,
    strict: bool = False,
) -> Layout:
    """Generate the layout of a primitive cell.

    Args:
        spec: Devices, matched group and ports.
        pattern: Placement pattern for the matched group (``"ABAB"``,
            ``"ABBA"``, ``"AABB"`` or ``"CC2D"``).
        tech: Technology node.
        wires: Wire configuration; defaults to single extra straps and no
            dummies.
        verify: Run the static DRC + connectivity pass on the emitted
            layout and attach the report to
            ``layout.metadata["verification"]``; ``None`` follows the
            module default :data:`VERIFY_EMITTED`.
        strict: With verification on, raise
            :class:`~repro.errors.VerificationError` on any
            error-severity violation instead of just recording it.

    Returns:
        A layout whose metadata records the pattern, per-device sizing,
        wire configuration and (when enabled) the verification report.

    Raises:
        VerificationError: In strict mode, when verification finds
            errors.
    """
    wires = wires or WireConfig()
    matched = [spec.device(name) for name in spec.matched_group]
    if not matched:
        raise LayoutError(f"cell {spec.name!r} has an empty matched group")
    others = [d for d in spec.devices if d.name not in spec.matched_group]

    nfin = matched[0].geometry.nfin
    nf = matched[0].geometry.nf
    for dev in matched:
        if dev.geometry.nfin != nfin or dev.geometry.nf != nf:
            raise LayoutError(
                f"cell {spec.name!r}: matched devices must share (nfin, nf)"
            )

    counts = {d.name: d.geometry.m for d in matched}
    rows = pattern_rows(pattern, [d.name for d in matched], counts)
    for dev in others:
        rows.append([(dev.name, k) for k in range(dev.geometry.m)])

    layout = _build_layout(spec, pattern, rows, tech, wires)
    if VERIFY_EMITTED if verify is None else verify:
        from repro.verify import verify_layout

        report = verify_layout(layout, tech, spec=spec, strict=strict)
        layout.metadata["verification"] = report
    return layout


def _build_layout(
    spec: CellSpec,
    pattern: str,
    rows: PatternRows,
    tech: Technology,
    wires: WireConfig,
) -> Layout:
    rules = tech.rules
    stack = tech.stack
    m1 = stack.metal("M1")
    m2 = stack.metal("M2")
    m3 = stack.metal("M3")
    dummy = rules.dummy_fingers if wires.dummies else 0
    device_by_name = {d.name: d for d in spec.devices}
    unit_gap = rules.poly_pitch  # diffusion break between units

    devices: list[DevicePlacement] = []
    nets = _nets_in_order(spec)
    net_id = {net: i for i, net in enumerate(nets)}
    owner_id = {"": 0}
    # The baseline mesh density scales with the stack height: single-row
    # cells need less strapping; each tuning "parallel wire" adds one
    # strap.  Power nets (ground and any "...!"-suffixed rail) get a
    # denser mesh — the paper routes power manually with wide straps,
    # outside the methodology.
    multi_row = len(rows) > 1
    signal_base = 2 if multi_row else 1
    power_base = 4 if multi_row else 2
    straps_per_net = {
        net: (power_base if is_power_net(net) else signal_base) + wires.straps(net)
        for net in nets
    }

    # Stub columns per row: (x, net, owner id). Strap extents per row/net.
    y_cursor = 0
    max_row_right = 0
    row_records: list[dict] = []
    for row in rows:
        x_cursor = rules.diffusion_extension
        row_nfin = max(device_by_name[name].geometry.nfin for name, _ in row)
        active_h = row_nfin * rules.fin_pitch
        columns: list[tuple[int, str, str]] = []
        row_nets: list[str] = []
        for device_name, unit_idx in row:
            dev = device_by_name[device_name]
            unit_nf = dev.geometry.nf
            unit_width = unit_nf * rules.poly_pitch
            dummy_width = dummy * rules.poly_pitch
            x_active = x_cursor + dummy_width
            rect = Rect.from_size(
                x_active, y_cursor, unit_width, dev.geometry.nfin * rules.fin_pitch
            )
            devices.append(
                DevicePlacement(
                    device=device_name,
                    unit_index=unit_idx,
                    rect=rect,
                    nfin=dev.geometry.nfin,
                    nf=unit_nf,
                    dummy_fingers=dummy,
                )
            )
            d_net, s_net = dev.terminals["d"], dev.terminals["s"]
            g_net = dev.terminals["g"]
            d_own, s_own, g_own = (
                owner_id.setdefault(f"{device_name}.{t}", len(owner_id))
                for t in "dsg"
            )
            for col in range(unit_nf + 1):
                x = x_active + col * rules.poly_pitch
                if col % 2 == 0:
                    columns.append((x, s_net, s_own))
                else:
                    columns.append((x, d_net, d_own))
            # Gate mesh: a contact every four fingers (plus the centre),
            # as analog FinFET cells strap gates to keep Rg low.
            for col in range(0, unit_nf, 4):
                x = x_active + col * rules.poly_pitch + rules.poly_pitch // 2
                columns.append((x, g_net, g_own))
            for net in (s_net, d_net, g_net):
                if net not in row_nets:
                    row_nets.append(net)
            x_cursor = x_active + unit_width + dummy_width + unit_gap
        row_right = x_cursor - unit_gap + rules.diffusion_extension
        max_row_right = max(max_row_right, row_right)

        # Strap slots above the active area, one per (net, strap copy);
        # triple-width straps occupy three tracks each.
        slot_pitch = 3 * m2.pitch
        slots_needed = sum(straps_per_net[n] for n in row_nets)
        track_region = max(rules.row_height, (slots_needed + 1) * slot_pitch)
        slot_y0 = y_cursor + active_h + m2.pitch // 2
        slot = 0
        strap_slots: dict[str, list[int]] = {}
        # Alternate symmetric pairs' track order per row so matched nets
        # see the same average stub length (the matching constraint the
        # detailed router enforces on routes applies to the mesh too).
        row_index = len(row_records)
        if row_index % 2 == 1:
            for net_a, net_b in spec.symmetric_pairs:
                if net_a in row_nets and net_b in row_nets:
                    ia, ib = row_nets.index(net_a), row_nets.index(net_b)
                    row_nets[ia], row_nets[ib] = row_nets[ib], row_nets[ia]
        for net in row_nets:
            ys = []
            for _ in range(straps_per_net[net]):
                ys.append(slot_y0 + slot * slot_pitch)
                slot += 1
            strap_slots[net] = ys
        row_records.append(
            {
                "y0": y_cursor,
                "active_h": active_h,
                "columns": columns,
                "strap_slots": strap_slots,
                "row_right": row_right,
            }
        )
        y_cursor += active_h + track_region + rules.row_spacing
    total_height = y_cursor - rules.row_spacing

    # --- emit stubs and row straps --------------------------------------
    # Wires go into one flat int list, a row (net, layer, x0, y0, x1, y1,
    # role, owner) per wire; vias into three column lists (net, x, y),
    # M1-M2 stub vias first and M2-M3 rail taps after them, all with one
    # cut.  Layer ids index the tables of the ShapeColumns built at the
    # end.
    M1, M2, M3 = 0, 1, 2
    w: list[int] = []
    via_net: list[int] = []
    via_x: list[int] = []
    via_y: list[int] = []
    stub_width = 2 * m1.min_width
    strap_height = 3 * m2.min_width
    for rec in row_records:
        strap_slots: dict[str, list[int]] = rec["strap_slots"]
        y0 = rec["y0"]
        net_extent: dict[str, tuple[int, int]] = {}
        for x, net, owner in rec["columns"]:
            # Stubs only need to reach the net's first strap; the net's
            # further straps interconnect through via chains at every
            # stub column, so tuning does not lengthen stubs.  Stubs are
            # double width: they model the trench-contact bar plus M1.
            ys = strap_slots[net]
            nid = net_id[net]
            w += (nid, M1, x, y0, x + stub_width, ys[0] + strap_height,
                  FINGER_STUB, owner)
            via_net += [nid] * len(ys)
            via_x += [x] * len(ys)
            via_y += ys
            lo, hi = net_extent.get(net, (x, x))
            net_extent[net] = (min(lo, x), max(hi, x + m1.min_width))
        for net, ys in strap_slots.items():
            lo, hi = net_extent[net]
            nid = net_id[net]
            # Straps run to the rail region on the right; triple width
            # (three merged tracks) is the default mesh strap.
            for y in ys:
                w += (nid, M2, lo, y, max_row_right, y + strap_height, STRAP, 0)

    # --- vertical rails ----------------------------------------------------
    strapped = {net for rec in row_records for net in rec["strap_slots"]}
    wired_nets = [net for net in nets if net in strapped]
    rail_x = max_row_right + m3.pitch
    rail_width = 3 * m3.min_width
    rail_index = 0
    n_stub_vias = len(via_net)
    port_positions: dict[str, Rect] = {}
    n_rows = len(row_records)
    for net in wired_nets:
        # Rail count scales with the row count (a one-row cell needs one
        # tap per net); power nets get a 4x denser mesh, and every tuning
        # "parallel wire" adds a rail — the tuning terminal's RC covers
        # the trunk, not just the row straps.
        base_rails = max(1, min(RAILS_PER_NET, n_rows))
        n_rails = base_rails * (4 if is_power_net(net) else 1)
        n_rails += wires.straps(net) - 1
        nid = net_id[net]
        taps = [y for rec in row_records for y in rec["strap_slots"].get(net, [])]
        for copy in range(n_rails):
            x = rail_x + rail_index * 2 * m3.pitch
            w += (nid, M3, x, 0, x + rail_width, total_height, RAIL, 0)
            if copy == 0:
                port_positions[net] = Rect(x, 0, x + rail_width, m3.min_width)
            rail_index += 1
            via_net += [nid] * len(taps)
            via_x += [x] * len(taps)
            via_y += taps
    # Extend row straps into the rail region (they already end at
    # max_row_right; emit short jumper straps across the rail region).
    rail_region_right = rail_x + rail_index * 2 * m3.pitch
    for rec in row_records:
        for net, ys in rec["strap_slots"].items():
            nid = net_id[net]
            for y in ys:
                w += (nid, M2, max_row_right, y, rail_region_right,
                      y + m2.min_width, STRAP_JUMPER, 0)

    # --- ports -----------------------------------------------------------
    # Bulk-only nets (tap rings) carry no mesh wiring; they are circuit
    # ports but have no routed pin geometry.
    ports = [
        Port(net=net, layer="M3", rect=port_positions[net])
        for net in spec.port_nets
        if net in port_positions
    ]

    # --- well ------------------------------------------------------------
    device_box = bounding_box(p.rect for p in devices)
    metadata = {
        "pattern": pattern.upper(),
        "cell": spec.name,
        "sizings": {
            d.name: (d.geometry.nfin, d.geometry.nf, d.geometry.m)
            for d in spec.devices
        },
        "wire_parallel": {net: wires.straps(net) for net in nets},
        "straps_per_row": dict(straps_per_net),
        "dummies": wires.dummies,
        "rows": len(row_records),
    }
    vias = np.empty((5, len(via_net)), dtype=np.int64)
    vias[V_NET], vias[V_X], vias[V_Y] = via_net, via_x, via_y
    vias[V_PAIR] = 1  # M2-M3 rail taps, after the M1-M2 stub vias
    vias[V_PAIR, :n_stub_vias] = 0
    vias[V_CUTS] = 1
    columns = ShapeColumns(
        nets, ["M1", "M2", "M3"], list(owner_id), [("M1", "M2"), ("M2", "M3")],
        int_columns(w, 8), vias,
    )
    return Layout(
        f"{spec.name}_{pattern.lower()}",
        devices,
        ports=ports,
        well_rect=device_box.expanded(rules.well_enclosure),
        metadata=metadata,
        columns=columns,
    )


def _nets_in_order(spec: CellSpec) -> list[str]:
    """All nets, ports first, then internal nets in discovery order."""
    seen: list[str] = list(spec.port_nets)
    for dev in spec.devices:
        for net in dev.terminals.values():
            if net not in seen:
                seen.append(net)
    return seen
