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
from typing import NamedTuple

import numpy as np

from repro.errors import ExtractionError, TechnologyError
from repro.geometry.layout import (
    FINGER_STUB,
    RAIL,
    ROLES,
    STRAP,
    STRAP_JUMPER,
    V_NET,
    V_PAIR,
    W_LAYER,
    W_NET,
    W_OWNER,
    W_ROLE,
    W_X0,
    W_X1,
    W_Y0,
    W_Y1,
    Layout,
    ShapeColumns,
)
from repro.spice.netlist import is_power_net
from repro.tech.pdk import Technology
from repro.units import UNITS_PER_M

#: Floor applied to extracted resistances to keep netlists well-posed.
MIN_RESISTANCE = 1.0e-3


class _Group(NamedTuple):
    """The wires of one net sharing a role and an owner.

    ``first`` is the index of the group's first wire in layout order,
    whose ``layer`` id and ``width`` the group reports; ``longest`` and
    ``total`` are the largest and summed wire lengths (nm), and ``rows``
    counts the distinct wire y0 values (the rows a stub group spans).
    """

    role: int
    owner: int
    first: int
    count: int
    longest: int
    total: int
    rows: int
    layer: int
    width: int


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
    cols = layout.shape_columns()
    nid = cols.nets.index(net) if net in cols.nets else -1
    net_cols = ShapeColumns(
        cols.nets, cols.layers, cols.owners, cols.via_layers,
        cols.wires[:, cols.wires[W_NET] == nid],
        cols.vias[:, cols.vias[V_NET] == nid],
    )
    parasitics = _reduce_nets(layout, net_cols, tech)
    if net not in parasitics:
        raise ExtractionError(
            f"net {net!r} has no wires in layout {layout.name!r}"
        )
    return parasitics[net]


def extract_all_nets(layout: Layout, tech: Technology) -> dict[str, NetParasitics]:
    """Extract every net that has wires in the layout, in net-name order.

    Each net's result is bitwise equal to :func:`extract_net_parasitics`
    on that net.
    """
    return _reduce_nets(layout, layout.shape_columns(), tech)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts."""
    change = np.empty(len(values), dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return change


def _reduce_nets(
    layout: Layout, cols: ShapeColumns, tech: Technology
) -> dict[str, NetParasitics]:
    """Reduce the wires and vias of every net that has wires to its RC.

    Per-shape quantities are computed on the columns and reduced per
    group of wires sharing a net, role and owner; only the per-net and
    per-branch formulas run in Python, on Python scalars.  ``C_wire`` is
    ``np.bincount(weights=)`` over the net's wires in layout order
    followed by its vias, which adds in input order: the exact sum a
    Python fold in that order gives.
    """
    wires, vias = cols.wires, cols.vias
    n_wires = wires.shape[1]
    if not n_wires:
        return {}
    stack = tech.stack
    metals = [stack.metal(name) for name in cols.layers]
    net, layer = wires[W_NET], wires[W_LAYER]
    dx = wires[W_X1] - wires[W_X0]
    dy = wires[W_Y1] - wires[W_Y0]
    length = np.maximum(dx, dy)
    width = np.minimum(dx, dy)
    if width.min() <= 0:
        bad = int(np.argmax(width <= 0))
        raise TechnologyError(
            f"layer {cols.layers[layer[bad]]}: wire width must be > 0"
        )

    # Capacitance, term for term as MetalLayer.wire_capacitance, then
    # per via pair; summed per net in layout order, wires before vias.
    c_area = np.array([m.c_area for m in metals])[layer]
    c_fringe = np.array([m.c_fringe for m in metals])[layer]
    length_m = length / UNITS_PER_M
    c_wires = c_area * (width / UNITS_PER_M) * length_m + c_fringe * 2.0 * length_m
    c_pairs = [stack.via_between(lo, hi).capacitance for lo, hi in cols.via_layers]
    c_vias = np.array(c_pairs)[vias[V_PAIR]]
    c_wire = np.bincount(
        np.concatenate((net, vias[V_NET])),
        weights=np.concatenate((c_wires, c_vias)),
        minlength=len(cols.nets),
    ).tolist()

    # Vias per net, split by kind: bit 0 = from M1 (stub via arrays),
    # bit 1 = to M3 (rail taps).
    via_kind = np.array(
        [(lo == "M1") + 2 * (hi == "M3") for lo, hi in cols.via_layers],
        dtype=np.int64,
    )
    via_counts = np.bincount(
        vias[V_NET] * 4 + via_kind[vias[V_PAIR]], minlength=4 * len(cols.nets)
    ).reshape(-1, 4).tolist()

    # Group the wires by (net, role, owner), and each group by row (the
    # wire's y0 rank).  A stable sort keeps layout order inside a group,
    # so a group's first wire is its smallest original index.
    n_owners = len(cols.owners)
    y_values = np.unique(wires[W_Y0])
    y_rank = np.searchsorted(y_values, wires[W_Y0])
    group = (net * len(ROLES) + wires[W_ROLE]) * n_owners + wires[W_OWNER]
    key = group * len(y_values) + y_rank
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    row_start = _run_starts(sorted_key)
    sorted_group = sorted_key // len(y_values)
    starts = np.flatnonzero(_run_starts(sorted_group))
    first = np.minimum.reduceat(order, starts)
    sorted_length = length[order]
    columns = zip(
        sorted_group[starts].tolist(),
        first.tolist(),
        np.diff(starts, append=n_wires).tolist(),
        np.maximum.reduceat(sorted_length, starts).tolist(),
        np.add.reduceat(sorted_length, starts).tolist(),
        np.add.reduceat(row_start, starts, dtype=np.int64).tolist(),
        layer[first].tolist(),
        width[first].tolist(),
    )
    groups_of: dict[int, list[_Group]] = {}
    for g, *fields in columns:
        nid, rest = divmod(g, len(ROLES) * n_owners)
        role, owner = divmod(rest, n_owners)
        groups_of.setdefault(nid, []).append(_Group(role, owner, *fields))

    nfin_by_device = {p.device: p.nfin for p in layout.devices}
    rows = max(1, layout.metadata.get("rows", 1))
    result: dict[str, NetParasitics] = {}
    for nid in sorted(groups_of, key=cols.nets.__getitem__):
        name = cols.nets[nid]
        groups = groups_of[nid]
        straps = [g for g in groups if g.role in (STRAP, STRAP_JUMPER)]
        rails = [g for g in groups if g.role == RAIL]
        stubs = [g for g in groups if g.role == FINGER_STUB]
        n_straps = sum(g.count for g in straps)
        n_rails = sum(g.count for g in rails)
        n_row_straps = sum(g.count for g in straps if g.role == STRAP)
        straps_per_row = max(1, n_row_straps // rows)
        _, n_m1, n_m3, n_both = via_counts[nid]
        n_vias = sum(via_counts[nid])
        n_stub_vias = n_m1 + n_both
        n_rail_vias = n_m3 + n_both

        # Representative strap resistance (full row length, min width).
        r_strap = 0.0
        strap_length = 0
        if straps:
            head = min(straps, key=lambda g: g.first)
            strap_length = max(g.longest for g in straps)
            r_strap = metals[head.layer].wire_resistance(strap_length, head.width)

        # Stub via arrays: the same cuts per stub for every branch.
        n_stubs = sum(g.count for g in stubs)
        per_stub_cuts = max(1, n_stub_vias // max(1, n_stubs))
        r_stub_via = stack.via_between("M1", "M2").resistance if n_vias else 0.0

        # Per-device-terminal branches.
        r_branches: dict[str, float] = {}
        owned = sorted((cols.owners[g.owner], g) for g in stubs if g.owner)
        for owner, g in owned:
            device = owner.split(".")[0]
            nfin = nfin_by_device.get(device, 1)
            avg_len = g.total / g.count
            r_contact = tech.contact_resistance / max(1, nfin)
            r_stub = metals[g.layer].wire_resistance(avg_len, g.width)
            r = (r_contact + r_stub) / g.count
            # The device's share of the row straps: on average the current
            # traverses half a strap to reach the rails, over all straps the
            # device's rows provide.
            if r_strap:
                # Distributed taps along the strap: effective share R/3.
                r += r_strap / (3.0 * straps_per_row * g.rows)
            if n_vias:
                r += r_stub_via / (per_stub_cuts * g.count)
            r_branches[owner] = max(MIN_RESISTANCE, r)

        # Trunk: vertical rails with distributed taps, port at the end.
        # Power nets keep only their local branch resistance: the manually
        # routed power grid (outside the methodology, as in the paper) taps
        # the cell's power straps from above everywhere.
        r_trunk = MIN_RESISTANCE
        if rails and not is_power_net(name):
            head = min(rails, key=lambda g: g.first)
            rail_len = max(g.longest for g in rails)
            r_rail = metals[head.layer].wire_resistance(rail_len, head.width)
            r_trunk = r_rail / (2.0 * n_rails)
            if n_rail_vias:
                via_layer = stack.via_between("M2", "M3")
                r_trunk += via_layer.resistance / n_rail_vias
            r_trunk = max(MIN_RESISTANCE, r_trunk)

        result[name] = NetParasitics(
            net=name,
            r_branches=r_branches,
            r_trunk=r_trunk,
            c_wire=c_wire[nid],
            n_straps=n_straps,
            n_rails=n_rails,
            strap_length=strap_length,
        )
    return result
