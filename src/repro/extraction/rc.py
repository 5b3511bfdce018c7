"""Wire RC extraction over generated layouts.

For each net the extractor reduces the cell's mesh (per-row straps
collected by vertical rails) to a star network with *per-device-terminal
branches*::

    port ──R_trunk──  star  ──R_branch(M1.s)──  M1 source mesh
                       │   └─R_branch(M2.s)──  M2 source mesh
                     C_wire

* ``R_branch`` — contact resistance (per fin, divided over the terminal's
  stubs), the M1 stub metal, the via array, and the device's share of the
  row straps.  This is the resistance that degenerates an individual
  transistor, so differential structures see the correct per-side path.
* ``R_trunk`` — the vertical rails from the strap mesh down to the port,
  with distributed taps (``R_rail / 2`` for an end-connected port).
* ``C_wire`` — the summed capacitance of every wire shape plus vias.

Every lever the optimizer pulls is visible here: extra parallel straps
divide the strap share of ``R_branch`` and add strap capacitance (and
grow the cell, lengthening stubs); more rows parallelize branches; longer
rows lengthen straps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExtractionError
from repro.geometry.layout import Layout, Via, Wire
from repro.spice.netlist import is_power_net
from repro.tech.pdk import Technology

#: Floor applied to extracted resistances to keep netlists well-posed.
MIN_RESISTANCE = 1.0e-3


@dataclass(frozen=True)
class NetParasitics:
    """Reduced wire parasitics of one net.

    Attributes:
        net: Net name.
        r_branches: Series resistance from the star point to each
            device-terminal mesh, keyed by ``"<device>.<terminal>"``.
        r_trunk: Series resistance from the net's port to the star (ohm).
        c_wire: Total wire + via capacitance (F).
        n_straps: Total strap shapes on the net.
        n_rails: Vertical rail shapes on the net.
        strap_length: Representative strap length (nm).
    """

    net: str
    r_branches: dict[str, float] = field(default_factory=dict)
    r_trunk: float = MIN_RESISTANCE
    c_wire: float = 0.0
    n_straps: int = 0
    n_rails: int = 0
    strap_length: int = 0

    def branch(self, device: str, terminal: str) -> float:
        """Branch resistance for one device terminal (ohm)."""
        key = f"{device}.{terminal}"
        try:
            return self.r_branches[key]
        except KeyError:
            raise ExtractionError(
                f"net {self.net!r}: no branch for {key!r}"
            ) from None


def extract_net_parasitics(
    layout: Layout, net: str, tech: Technology
) -> NetParasitics:
    """Extract the reduced RC of one net from the layout geometry."""
    return _net_parasitics(
        layout, net, layout.wires_on_net(net), layout.vias_on_net(net), tech
    )


def extract_all_nets(layout: Layout, tech: Technology) -> dict[str, NetParasitics]:
    """Extract every net that has wires in the layout.

    Groups the layout's shapes by net in one pass; each net's result is
    bitwise equal to :func:`extract_net_parasitics` on that net.
    """
    wires_by_net: dict[str, list[Wire]] = {}
    for wire in layout.wires:
        wires_by_net.setdefault(wire.net, []).append(wire)
    vias_by_net: dict[str, list[Via]] = {}
    for via in layout.vias:
        vias_by_net.setdefault(via.net, []).append(via)
    return {
        net: _net_parasitics(
            layout, net, wires_by_net[net], vias_by_net.get(net, []), tech
        )
        for net in sorted(wires_by_net)
    }


def _net_parasitics(
    layout: Layout,
    net: str,
    wires: list[Wire],
    vias: list[Via],
    tech: Technology,
) -> NetParasitics:
    """Reduce one net's wires and vias (in layout order) to its RC."""
    if not wires:
        raise ExtractionError(
            f"net {net!r} has no wires in layout {layout.name!r}"
        )
    stack = tech.stack
    stubs: list[Wire] = []
    straps: list[Wire] = []
    rails: list[Wire] = []
    n_row_straps = 0
    # Total wire + via capacitance, summed in layout order.
    c_wire = 0.0
    for wire in wires:
        role = wire.role
        if role == "finger_stub":
            stubs.append(wire)
        elif role == "strap":
            straps.append(wire)
            n_row_straps += 1
        elif role == "strap_jumper":
            straps.append(wire)
        elif role == "rail":
            rails.append(wire)
        layer = stack.metal(wire.layer)
        c_wire += layer.wire_capacitance(wire.length, wire.width)
    via_capacitance: dict[tuple[str, str], float] = {}
    n_stub_vias = n_rail_vias = 0
    for via in vias:
        pair = (via.lower_layer, via.upper_layer)
        c_via = via_capacitance.get(pair)
        if c_via is None:
            c_via = stack.via_between(*pair).capacitance
            via_capacitance[pair] = c_via
        c_wire += c_via
        if via.lower_layer == "M1":
            n_stub_vias += 1
        if via.upper_layer == "M3":
            n_rail_vias += 1

    nfin_by_device = {p.device: p.nfin for p in layout.devices}
    rows = max(1, layout.metadata.get("rows", 1))
    straps_per_row = max(1, n_row_straps // rows)

    # Representative strap resistance (full row length, min width).
    r_strap = 0.0
    strap_length = 0
    if straps:
        strap_layer = stack.metal(straps[0].layer)
        strap_length = max(s.length for s in straps)
        r_strap = strap_layer.wire_resistance(strap_length, straps[0].width)

    # Stub via arrays: the same cuts per stub for every branch.
    per_stub_cuts = max(1, n_stub_vias // max(1, len(stubs)))
    r_stub_via = stack.via_between("M1", "M2").resistance if vias else 0.0

    # Per-device-terminal branches.
    stubs_by_owner: dict[str, list[Wire]] = {}
    for stub in stubs:
        if stub.owner:
            stubs_by_owner.setdefault(stub.owner, []).append(stub)
    r_branches: dict[str, float] = {}
    for owner in sorted(stubs_by_owner):
        own_stubs = stubs_by_owner[owner]
        device = owner.split(".")[0]
        nfin = nfin_by_device.get(device, 1)
        stub_layer = stack.metal(own_stubs[0].layer)
        avg_len = sum(s.length for s in own_stubs) / len(own_stubs)
        r_contact = tech.contact_resistance / max(1, nfin)
        r_stub = stub_layer.wire_resistance(avg_len, own_stubs[0].width)
        r = (r_contact + r_stub) / len(own_stubs)
        # The device's share of the row straps: on average the current
        # traverses half a strap to reach the rails, over all straps the
        # device's rows provide.
        rows_of_device = max(
            1, len({s.rect.y0 for s in own_stubs})
        )
        if r_strap:
            # Distributed taps along the strap: effective share R/3.
            r += r_strap / (3.0 * straps_per_row * rows_of_device)
        if vias:
            r += r_stub_via / (per_stub_cuts * len(own_stubs))
        r_branches[owner] = max(MIN_RESISTANCE, r)

    # Trunk: vertical rails with distributed taps, port at the end.
    # Power nets keep only their local branch resistance: the manually
    # routed power grid (outside the methodology, as in the paper) taps
    # the cell's power straps from above everywhere.
    r_trunk = MIN_RESISTANCE
    if rails and not is_power_net(net):
        rail_layer = stack.metal(rails[0].layer)
        rail_len = max(r.length for r in rails)
        r_rail = rail_layer.wire_resistance(rail_len, rails[0].width)
        r_trunk = r_rail / (2.0 * len(rails))
        if n_rail_vias:
            via_layer = stack.via_between("M2", "M3")
            r_trunk += via_layer.resistance / n_rail_vias
        r_trunk = max(MIN_RESISTANCE, r_trunk)

    return NetParasitics(
        net=net,
        r_branches=r_branches,
        r_trunk=r_trunk,
        c_wire=c_wire,
        n_straps=len(straps),
        n_rails=len(rails),
        strap_length=strap_length,
    )
