"""Connectivity verification (LVS-lite) over generated layouts.

Builds a *net graph* from the layout geometry — wires merge where they
touch on the same conducting plane, vias merge the wires they land on,
ports merge with the metal under them — and then checks, statically:

* every device terminal's contact stubs carry the net the schematic
  (the :class:`~repro.cellgen.generator.CellSpec`) says they should,
  and reach that net's port geometry (``CONN-TERM-*``),
* every net is electrically contiguous: one island per net, no floating
  metal (``CONN-FLOAT-NET``),
* no two distinct nets short: wires of different nets never overlap on
  the same conducting plane (``CONN-SHORT``),
* ports sit on metal of their own net (``CONN-PORT-OPEN``).

Same-net wires connect when their closed rectangles intersect
(touching edges conduct); different-net wires short only when open
interiors overlap (shared edges are legal abutment).  Gate-contact stubs
occupy their own plane (see :func:`repro.verify.drc.gate_stubs`), so a
gate stub crossing a source/drain bar is a contact tower, not a short.

Both the graph and the short check read the layout's
:class:`~repro.geometry.layout.ShapeColumns`: touching and overlapping
wires come from :func:`~repro.geometry.search.close_pairs`, via landings
from :meth:`~repro.geometry.layout.ShapeColumns.via_landings`, and the
islands from one connected-components pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.geometry.layout import FINGER_STUB, Layout, ShapeColumns
from repro.geometry.search import close_pairs, first_seen
from repro.tech.pdk import Technology
from repro.verify.diagnostics import Report
from repro.verify.drc import gate_stubs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cellgen.generator import CellSpec


def _islands(
    size: int, head: NDArray[np.int64], tail: NDArray[np.int64]
) -> NDArray[np.int64]:
    """Each node's connected component, named by its lowest node: per
    edge, hook the higher root to the lower, then pointer-jump, until
    every edge's ends share a root."""
    label = np.arange(size)
    while True:
        a, b = label[head], label[tail]
        if np.array_equal(a, b):
            return label
        low = np.minimum(a, b)
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        while not np.array_equal(label, label[label]):
            label = label[label]


class NetGraph:
    """Connected components over a layout's conducting shapes.

    Nodes are wires (by index), vias (by index) and ports (by index):
    ``("w", i)``, ``("v", i)``, ``("p", i)``.  Only same-net shapes are
    joined — shorts between different nets are detected geometrically,
    not through the graph — so each net's components are its electrical
    islands: same-net wires on one layer that touch, a via and every
    wire it lands on, a port and every wire of its net and layer that
    its rectangle meets.
    """

    def __init__(self, layout: Layout):
        self.layout = layout
        self.columns = cols = layout.shape_columns()
        net, layer, x0, y0, x1, y1, _, _ = cols.wires
        n, m = len(net), cols.vias.shape[1]
        self._offsets = {"w": 0, "v": n, "p": n + m}
        touch_a, touch_b = close_pairs(
            x0, y0, x1, y1, group=first_seen(net * len(cols.layers) + layer)
        )
        sides, landings = cols.via_landings()
        heads, tails = [touch_a, n + sides // 2], [touch_b, landings]
        net_id = {name: i for i, name in enumerate(cols.nets)}
        layer_id = {name: i for i, name in enumerate(cols.layers)}
        for index, port in enumerate(layout.ports):
            r = port.rect
            hits = np.flatnonzero(
                (net == net_id.get(port.net, -1))
                & (layer == layer_id.get(port.layer, -1))
                & (x0 <= r.x1) & (r.x0 <= x1) & (y0 <= r.y1) & (r.y0 <= y1)
            )
            heads.append(hits)
            tails.append(np.full(len(hits), n + m + index))
        # Wires are numbered first, so an island with a wire is named by
        # its lowest wire.
        self._label = _islands(
            n + m + len(layout.ports), np.concatenate(heads), np.concatenate(tails)
        )

    def find(self, node: tuple[str, int]) -> tuple[str, int]:
        """The node naming ``node``'s island: its lowest wire.

        A via or port that touches no wire is its own island, so
        ``find(("v", i)) == ("v", i)`` means the via conducts nothing.
        """
        root = int(self._label[self._offsets[node[0]] + node[1]])
        return ("w", root) if root < self._offsets["v"] else node

    def landed(self, kind: str) -> NDArray[np.bool_]:
        """Per via (``"v"``) or port (``"p"``): whether it touches a wire."""
        start = self._offsets[kind]
        count = len(self.layout.ports) if kind == "p" else self.columns.vias.shape[1]
        return np.asarray(self._label[start:start + count] < self._offsets["v"])

    def wire_indices(self, net: str) -> list[int]:
        """Indices of all wires on ``net``: layer by layer, in order of
        each layer's first wire on the net, and in layout order within a
        layer."""
        net_col, layer, *_ = self.columns.wires
        nets = self.columns.nets
        rows = np.flatnonzero(net_col == (nets.index(net) if net in nets else -1))
        return [int(i) for i in rows[np.lexsort((rows, first_seen(layer[rows])))]]

    def net_islands(self, net: str) -> list[set[int]]:
        """The net's wire indices grouped into connected islands."""
        groups: dict[int, set[int]] = {}
        for index in self.wire_indices(net):
            groups.setdefault(int(self._label[index]), set()).add(index)
        return list(groups.values())

    def connected(self, a: tuple[str, int], b: tuple[str, int]) -> bool:
        """True when two nodes are in the same electrical island."""
        return self.find(a) == self.find(b)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_shorts(report: Report, cols: ShapeColumns) -> None:
    net, layer, x0, y0, x1, y1, _, _ = cols.wires
    plane = first_seen(2 * layer + gate_stubs(cols))
    a, b = close_pairs(x0, y0, x1, y1, group=plane)
    shorts = (
        (net[a] != net[b])
        & (x0[b] < x1[a]) & (x0[a] < x1[b]) & (y0[b] < y1[a]) & (y0[a] < y1[b])
    )
    for i, j in zip(a[shorts].tolist(), b[shorts].tolist()):
        net_a, net_b = cols.nets[net[i]], cols.nets[net[j]]
        report.add(
            "CONN-SHORT",
            "error",
            f"nets {net_a!r} and {net_b!r} short on {cols.layers[layer[i]]}",
            subject=f"{net_a}/{net_b}",
            rect=cols.wire_rect(i),
        )


def _check_islands(report: Report, graph: NetGraph) -> None:
    cols = graph.columns
    net, *_ = cols.wires
    # One column per (net, island): a net listed twice is split.
    islands = np.unique(np.stack([net, graph._label[:len(net)]]), axis=1)
    split = np.flatnonzero(np.bincount(islands[0], minlength=len(cols.nets)) > 1)
    for name in sorted(cols.nets[i] for i in split.tolist()):
        groups = graph.net_islands(name)
        sizes = sorted((len(island) for island in groups), reverse=True)
        smallest = min(groups, key=len)
        report.add(
            "CONN-FLOAT-NET",
            "error",
            f"net {name!r} is split into {len(groups)} disconnected "
            f"islands (sizes {sizes})",
            subject=name,
            rect=cols.wire_rect(next(iter(smallest))),
        )


def _check_vias_float(report: Report, graph: NetGraph) -> None:
    cols = graph.columns
    net, pair, *_ = cols.vias
    for index in np.flatnonzero(~graph.landed("v")).tolist():
        lower, upper = cols.via_layers[pair[index]]
        # Never merged with any wire: the via conducts nothing.
        report.add(
            "CONN-VIA-FLOAT",
            "error",
            f"via on net {cols.nets[net[index]]!r} ({lower}-{upper}) "
            f"touches no metal of its net",
            subject=cols.nets[net[index]],
            location=cols.via_position(index),
        )


def _check_ports(report: Report, layout: Layout, graph: NetGraph) -> None:
    for index in np.flatnonzero(~graph.landed("p")).tolist():
        port = layout.ports[index]
        report.add(
            "CONN-PORT-OPEN",
            "error",
            f"port on net {port.net!r} touches no {port.layer} metal "
            f"of its net",
            subject=port.net,
            rect=port.rect,
        )


def _check_terminals(
    report: Report, layout: Layout, graph: NetGraph, spec: "CellSpec"
) -> None:
    cols = graph.columns
    net, _, _, _, _, _, role, owner = cols.wires
    stub_owner = np.where(role == FINGER_STUB, owner, -1)
    # An owner the table lacks takes an id no wire carries.
    owner_id = {name: i for i, name in enumerate(cols.owners) if name}
    port_index = {port.net: i for i, port in enumerate(layout.ports)}

    for dev in spec.devices:
        for terminal in ("d", "g", "s"):
            expected = dev.terminals[terminal]
            name = f"{dev.name}.{terminal}"
            stubs = np.flatnonzero(stub_owner == owner_id.get(name, len(cols.owners)))
            if not len(stubs):
                report.add(
                    "CONN-TERM-MISSING",
                    "error",
                    f"terminal {name} has no contact stubs in the layout",
                    subject=name,
                )
                continue
            stub_nets = [cols.nets[i] for i in net[stubs].tolist()]
            wrong = [k for k, stub_net in enumerate(stub_nets) if stub_net != expected]
            if wrong:
                found = sorted({stub_nets[k] for k in wrong})
                report.add(
                    "CONN-TERM-NET",
                    "error",
                    f"terminal {name} is wired to net(s) {found}, "
                    f"schematic says {expected!r}",
                    subject=name,
                    rect=cols.wire_rect(stubs[wrong[0]]),
                )
                continue
            if expected in port_index:
                target = ("p", port_index[expected])
                unreached = [
                    i for i in stubs.tolist() if not graph.connected(("w", i), target)
                ]
                if unreached:
                    report.add(
                        "CONN-TERM-UNREACHED",
                        "error",
                        f"{len(unreached)} of {len(stubs)} stubs of "
                        f"terminal {name} do not reach the {expected!r} "
                        f"port",
                        subject=name,
                        rect=cols.wire_rect(unreached[0]),
                    )

    wired = {cols.nets[i] for i in np.unique(net).tolist()}
    for port_net in spec.port_nets:
        if port_net in wired and port_net not in port_index:
            report.add(
                "CONN-PORT-MISSING",
                "warning",
                f"spec port net {port_net!r} is wired but has no port shape",
                subject=port_net,
            )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_connectivity(
    layout: Layout,
    tech: Technology,
    spec: "CellSpec | None" = None,
) -> Report:
    """Run the connectivity (LVS-lite) checks on one layout.

    Args:
        layout: The layout to check.
        tech: Technology node (reserved for layer-aware extensions; the
            connectivity model itself is purely geometric).
        spec: When given, terminal wiring is verified against the
            schematic (``CONN-TERM-*`` checks); without it only the
            structural checks run (islands, shorts, ports, vias).

    Returns:
        A :class:`Report` with the violations found.
    """
    del tech  # geometric checks only, kept for signature symmetry
    graph = NetGraph(layout)
    cols = graph.columns
    report = Report(target=layout.name)
    report.checked_shapes = (
        cols.wires.shape[1] + cols.vias.shape[1] + len(layout.ports)
    )
    _check_shorts(report, cols)
    _check_islands(report, graph)
    _check_vias_float(report, graph)
    _check_ports(report, layout, graph)
    if spec is not None:
        _check_terminals(report, layout, graph, spec)
    return report
