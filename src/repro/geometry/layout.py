"""Layout container classes.

A :class:`Layout` is what the primitive cell generator produces: device
placements, wires, vias and ports, all in cell-local integer-nanometre
coordinates.  The extractor walks these shapes; the placer treats layouts
as black boxes with a bounding box and ports; assembled blocks reference
child layouts through :class:`Instance`.

Generated layouts keep their wires and vias as integer columns
(:class:`ShapeColumns`): a sweep generates and extracts hundreds of cells
of several hundred shapes each, and one record per shape made both
generation and the garbage collector's scans slow.  The records below
are built only when something reads ``Layout.wires`` or ``Layout.vias``.

The shape records are slotted and not frozen, like the ones in
:mod:`repro.geometry.shapes`, and carry no hash; treat an emitted shape
as a value and build a new one (``dataclasses.replace``) to change it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import LayoutError
from repro.geometry.shapes import Point, Rect, bounding_box


#: Wire roles, the structural tags extraction reads back.  A role's code
#: in :class:`ShapeColumns` is its index in this tuple.
#:
#: * ``"route"``: inter-block routing from the detailed router.  Cell
#:   extraction counts only its capacitance.
#: * ``"finger_stub"``: the M1 rise from a diffusion or gate column to its
#:   net's first row strap.  Its ``owner`` names the device terminal it
#:   serves (``"MA.s"``), from which extraction builds per-device branches.
#: * ``"strap"``: a horizontal M2 row strap.
#: * ``"strap_jumper"``: the short M2 piece that carries a row strap across
#:   the rail region.  Extraction counts it as a strap for ``strap_length``
#:   and ``n_straps``, but not as a row strap (``straps_per_row``).
#: * ``"rail"``: a vertical M3 trunk collecting the row straps.
ROLES = ("route", "finger_stub", "strap", "strap_jumper", "rail")
ROUTE, FINGER_STUB, STRAP, STRAP_JUMPER, RAIL = range(len(ROLES))
_ROLE_CODE = {role: code for code, role in enumerate(ROLES)}


@dataclass(slots=True)
class Wire:
    """A rectangular wire segment on a metal layer.

    Attributes:
        net: Net name the wire belongs to.
        layer: Metal layer name (e.g. ``"M2"``).
        rect: Geometry (nm).
        role: Structural tag used by extraction, one of :data:`ROLES`
            (the vocabulary is documented there).
        owner: For finger stubs, the schematic device and terminal the
            shape serves (``"MA.s"``); empty for shared shapes such as
            straps and rails.
    """

    net: str
    layer: str
    rect: Rect
    role: str = "route"
    owner: str = ""

    @property
    def length(self) -> int:
        """The long dimension of the wire (nm)."""
        r = self.rect
        return max(r.x1 - r.x0, r.y1 - r.y0)

    @property
    def width(self) -> int:
        """The short dimension of the wire (nm)."""
        r = self.rect
        return min(r.x1 - r.x0, r.y1 - r.y0)


@dataclass(slots=True)
class Via:
    """A via (or via array) between two adjacent metal layers."""

    net: str
    lower_layer: str
    upper_layer: str
    position: Point
    cuts: int = 1

    def __post_init__(self) -> None:
        if self.cuts < 1:
            raise LayoutError("via needs at least one cut")


@dataclass(slots=True)
class Port:
    """An externally-visible pin of a layout."""

    net: str
    layer: str
    rect: Rect


@dataclass(slots=True)
class DevicePlacement:
    """Placement record for one transistor (one (nfin x nf) unit).

    Attributes:
        device: Schematic device name this unit belongs to (e.g. ``"M1"``).
        unit_index: Which of the device's ``m`` units this is.
        rect: Active-area footprint (nm), excluding dummies.
        nfin: Fins per finger.
        nf: Active fingers in this unit.
        dummy_fingers: Dummy gates on each side of this unit (extend the
            diffusion and relax the LOD effect).
        flipped: True if mirrored horizontally (common-centroid style).
    """

    device: str
    unit_index: int
    rect: Rect
    nfin: int
    nf: int
    dummy_fingers: int = 0
    flipped: bool = False


#: The columns of :attr:`ShapeColumns.wires` (``wires[W_X0]`` is one
#: contiguous array of every wire's x0).
W_NET, W_LAYER, W_X0, W_Y0, W_X1, W_Y1, W_ROLE, W_OWNER = range(8)
#: The columns of :attr:`ShapeColumns.vias`.
V_NET, V_PAIR, V_X, V_Y, V_CUTS = range(5)


def int_columns(rows: list[int], width: int) -> np.ndarray:
    """Flat row-major ints, ``width`` per row, as ``(width, n)`` columns."""
    table = np.fromiter(rows, dtype=np.int64, count=len(rows))
    return np.ascontiguousarray(table.reshape(-1, width).T)


@dataclass(slots=True)
class ShapeColumns:
    """The wires and vias of a layout as integer columns.

    Each column holds one field of every shape, in layout order.  Names
    are stored once, in tables, and the columns hold indices into them.

    Attributes:
        nets: Net names; the net columns index this table.
        layers: Metal layer names of the wires.
        owners: Wire owners; entry 0 is ``""`` (no owner).
        via_layers: ``(lower, upper)`` metal pairs of the vias.
        wires: ``(8, n)`` int64 array of columns: ``wires[W_NET]`` (net
            id), ``W_LAYER``, ``W_X0``, ``W_Y0``,
            ``W_X1``, ``W_Y1``, ``W_ROLE`` (the role's index in
            :data:`ROLES`) and ``W_OWNER``.
        vias: ``(5, m)`` int64 array: ``vias[V_NET]``, ``V_PAIR`` (index
            into ``via_layers``), ``V_X``, ``V_Y`` and ``V_CUTS``.
    """

    nets: list[str]
    layers: list[str]
    owners: list[str]
    via_layers: list[tuple[str, str]]
    wires: np.ndarray
    vias: np.ndarray

    @classmethod
    def from_shapes(cls, wires: list[Wire], vias: list[Via]) -> "ShapeColumns":
        """Columns of shape records, in the records' order."""
        nets: dict[str, int] = {}
        layers: dict[str, int] = {}
        owners: dict[str, int] = {"": 0}
        pairs: dict[tuple[str, str], int] = {}
        flat: list[int] = []
        for w in wires:
            r = w.rect
            try:
                role = _ROLE_CODE[w.role]
            except KeyError:
                raise LayoutError(f"unknown wire role {w.role!r}") from None
            flat += (
                nets.setdefault(w.net, len(nets)),
                layers.setdefault(w.layer, len(layers)),
                r.x0, r.y0, r.x1, r.y1,
                role,
                owners.setdefault(w.owner, len(owners)),
            )
        via_flat: list[int] = []
        for v in vias:
            p = v.position
            via_flat += (
                nets.setdefault(v.net, len(nets)),
                pairs.setdefault((v.lower_layer, v.upper_layer), len(pairs)),
                p.x, p.y, v.cuts,
            )
        return cls(
            list(nets), list(layers), list(owners), list(pairs),
            int_columns(flat, 8), int_columns(via_flat, 5),
        )

    def wire_rect(self, index: int) -> Rect:
        """The rectangle of wire ``index``."""
        return Rect(*self.wires[W_X0:W_Y1 + 1, index].tolist())

    def via_position(self, index: int) -> Point:
        """The position of via ``index``."""
        return Point(*self.vias[V_X:V_Y + 1, index].tolist())

    def net_wires(self, net: str) -> np.ndarray:
        """The wire columns of the wires on ``net``, in layout order."""
        net_id = self.nets.index(net) if net in self.nets else -1
        return self.wires[:, self.wires[W_NET] == net_id]

    def net_vias(self, net: str) -> np.ndarray:
        """The via columns of the vias on ``net``, in layout order."""
        net_id = self.nets.index(net) if net in self.nets else -1
        return self.vias[:, self.vias[V_NET] == net_id]

    def via_landings(self) -> tuple[np.ndarray, np.ndarray]:
        """Which wires each via lands on, as ``(side, wire)`` index pairs.

        Side ``2 * v`` is via ``v``'s lower metal and ``2 * v + 1`` its
        upper one.  A side lands on every wire of its net on its metal
        whose closed rectangle holds the via's position.  The
        point-in-rect test runs per ``(net, layer)`` group: all of a
        group's landing points against all of its wires at once.
        """
        wires, vias = self.wires, self.vias
        layer_id = {name: i for i, name in enumerate(self.layers)}
        side_layer = np.array(
            [[layer_id.get(name, -1) for name in pair] for pair in self.via_layers],
            dtype=np.int64,
        ).reshape(-1, 2)[vias[V_PAIR]].reshape(-1)
        n_layers = len(self.layers)
        side_key = np.where(
            side_layer < 0, -1, np.repeat(vias[V_NET], 2) * n_layers + side_layer
        )
        wire_key = wires[W_NET] * n_layers + wires[W_LAYER]
        w_order = np.argsort(wire_key, kind="stable")
        s_order = np.argsort(side_key, kind="stable")
        keys = np.unique(side_key[side_key >= 0])
        ends = ("left", "right")
        w_bounds = [np.searchsorted(wire_key[w_order], keys, side=e) for e in ends]
        s_bounds = [np.searchsorted(side_key[s_order], keys, side=e) for e in ends]
        px, py = np.repeat(vias[V_X], 2), np.repeat(vias[V_Y], 2)
        x0, y0, x1, y1 = wires[W_X0:W_Y1 + 1]
        sides, hits = [w_order[:0]], [w_order[:0]]
        for w_lo, w_hi, s_lo, s_hi in zip(*(b.tolist() for b in w_bounds + s_bounds)):
            w, side = w_order[w_lo:w_hi], s_order[s_lo:s_hi, None]
            x, y = px[side], py[side]
            i, j = np.nonzero((x0[w] <= x) & (x <= x1[w]) & (y0[w] <= y) & (y <= y1[w]))
            sides.append(side[i, 0])
            hits.append(w[j])
        return np.concatenate(sides), np.concatenate(hits)

    def shapes(self) -> tuple[list[Wire], list[Via]]:
        """The :class:`Wire` and :class:`Via` records, in layout order."""
        nets, layers, owners, pairs = (
            self.nets, self.layers, self.owners, self.via_layers
        )
        wires = [
            Wire(nets[n], layers[lay], Rect(x0, y0, x1, y1), ROLES[role],
                 owners[owner])
            for n, lay, x0, y0, x1, y1, role, owner in self.wires.T.tolist()
        ]
        vias = [
            Via(nets[n], *pairs[pair], Point(x, y), cuts)
            for n, pair, x, y, cuts in self.vias.T.tolist()
        ]
        return wires, vias


class Layout:
    """A generated cell layout.

    Attributes:
        name: Cell name.
        devices: Transistor unit placements.
        wires: Wire shapes, in layout order.
        vias: Via shapes, in layout order.
        ports: External pins.
        well_rect: The well boundary (used for WPE extraction); defaults
            to the bounding box expanded by the well enclosure.
        metadata: Free-form annotations (pattern name, variant parameters).

    A generated or flattened layout holds its wires and vias only as
    :class:`ShapeColumns` until something first reads :attr:`wires` or
    :attr:`vias`.  That read builds the :class:`Wire` and :class:`Via`
    records once; from then on the two lists are the layout's shapes,
    free to mutate.  Extraction, :meth:`bbox` and :meth:`nets` read
    :meth:`shape_columns`, so hand-built and mutated layouts reach them
    the same way as generated ones.
    """

    def __init__(
        self,
        name: str,
        devices: list[DevicePlacement] | None = None,
        wires: list[Wire] | None = None,
        vias: list[Via] | None = None,
        ports: list[Port] | None = None,
        well_rect: Rect | None = None,
        metadata: dict | None = None,
        *,
        columns: ShapeColumns | None = None,
    ):
        if columns is not None and (wires or vias):
            raise LayoutError(
                f"layout {name!r}: give shape columns or shape lists, not both"
            )
        self.name = name
        self.devices = [] if devices is None else devices
        self.ports = [] if ports is None else ports
        self.well_rect = well_rect
        self.metadata = {} if metadata is None else metadata
        self._columns = columns
        self._wires: list[Wire] | None = None
        self._vias: list[Via] | None = None
        if columns is None:
            self._wires = [] if wires is None else wires
            self._vias = [] if vias is None else vias

    def _materialize(self) -> None:
        if self._columns is not None:
            self._wires, self._vias = self._columns.shapes()
            self._columns = None

    @property
    def wires(self) -> list[Wire]:
        self._materialize()
        return self._wires

    @wires.setter
    def wires(self, value: list[Wire]) -> None:
        self._materialize()
        self._wires = value

    @property
    def vias(self) -> list[Via]:
        self._materialize()
        return self._vias

    @vias.setter
    def vias(self, value: list[Via]) -> None:
        self._materialize()
        self._vias = value

    def shape_columns(self) -> ShapeColumns:
        """The wires and vias as columns.

        These are the generator's columns until the shape lists are first
        read, and a fresh conversion of the lists after that.
        """
        if self._columns is not None:
            return self._columns
        return ShapeColumns.from_shapes(self._wires, self._vias)

    def bbox(self) -> Rect:
        """Bounding box over all shapes, including via positions.

        Vias are points, so each widens the box to its position; a via
        placed at the cell edge therefore cannot sit outside the reported
        bounding box even if no wire reaches it.

        Wires and vias enter as a min/max over their coordinate columns.
        The box is not cached: the shape lists, devices and ports of a
        layout stay mutable.
        """
        rects = [d.rect for d in self.devices] + [p.rect for p in self.ports]
        boxes = [bounding_box(rects)] if rects else []
        cols = self.shape_columns()
        wires, vias = cols.wires, cols.vias
        if wires.shape[1]:
            boxes.append(Rect(
                *wires[W_X0:W_Y0 + 1].min(axis=1).tolist(),
                *wires[W_X1:W_Y1 + 1].max(axis=1).tolist(),
            ))
        if vias.shape[1]:
            points = vias[V_X:V_Y + 1]
            boxes.append(Rect(
                *points.min(axis=1).tolist(), *points.max(axis=1).tolist()
            ))
        if not boxes:
            raise LayoutError(f"layout {self.name!r} is empty")
        return bounding_box(boxes)

    @property
    def width(self) -> int:
        return self.bbox().width

    @property
    def height(self) -> int:
        return self.bbox().height

    @property
    def area(self) -> int:
        return self.bbox().area

    @property
    def aspect_ratio(self) -> float:
        """Bounding-box width / height."""
        return self.bbox().aspect_ratio

    def wires_on_net(self, net: str) -> list[Wire]:
        """All wire shapes belonging to ``net``."""
        return [w for w in self.wires if w.net == net]

    def vias_on_net(self, net: str) -> list[Via]:
        """All vias belonging to ``net``."""
        return [v for v in self.vias if v.net == net]

    def port(self, net: str) -> Port:
        """The port for ``net`` (first if several)."""
        for port in self.ports:
            if port.net == net:
                return port
        raise LayoutError(f"layout {self.name!r} has no port on net {net!r}")

    def port_nets(self) -> list[str]:
        """Names of all nets with ports, in declaration order."""
        seen: list[str] = []
        for port in self.ports:
            if port.net not in seen:
                seen.append(port.net)
        return seen

    def nets(self) -> list[str]:
        """All net names referenced by wires, vias or ports, sorted.

        Vias count: a net carried only by vias (as a corrupted or
        partially assembled layout can have) must still be visible to
        extraction and verification.
        """
        cols = self.shape_columns()
        ids = np.union1d(cols.wires[W_NET], cols.vias[V_NET]).tolist()
        return sorted({cols.nets[i] for i in ids} | {p.net for p in self.ports})


@dataclass(frozen=True)
class Instance:
    """A placed reference to a child layout inside an assembled block."""

    name: str
    layout: Layout
    offset: Point
    flipped_x: bool = False

    def placed_bbox(self) -> Rect:
        """The child's bounding box in parent coordinates."""
        box = self.layout.bbox()
        return box.translated(self.offset.x - box.x0, self.offset.y - box.y0)

    def port_center(self, net: str) -> Point:
        """Center of the child's port for ``net``, in parent coordinates."""
        box = self.layout.bbox()
        port = self.layout.port(net)
        center = port.rect.center
        local_x = center.x - box.x0
        if self.flipped_x:
            local_x = box.width - local_x
        return Point(self.offset.x + local_x, self.offset.y + (center.y - box.y0))


def flatten_instances(
    name: str,
    instances: list[Instance],
    net_map: dict[str, dict[str, str]] | None = None,
) -> Layout:
    """Flatten placed instances into one merged :class:`Layout`.

    Every child shape is transformed into parent coordinates (honoring
    ``flipped_x``) with net names rewritten through ``net_map`` — the
    per-instance mapping of child net to parent net.  Unmapped nets are
    prefixed ``"<instance>/<net>"`` so block-local names (two children
    both calling a net ``"d"``) cannot alias in the parent.  Wires and
    vias move as whole column tables: one offset, flip and table remap
    per child, and no per-shape record.

    Args:
        name: Name of the flattened layout.
        instances: Placed children.
        net_map: ``{instance_name: {child_net: parent_net}}``; missing
            instances or nets fall back to prefixing.

    Returns:
        A layout with all child devices, wires, vias and ports merged;
        the well rectangle is the union of the children's wells.
    """
    net_map = net_map or {}
    nets: dict[str, int] = {}
    layers: dict[str, int] = {}
    owners: dict[str, int] = {"": 0}
    pairs: dict[tuple[str, str], int] = {}
    wire_tables = [int_columns([], 8)]
    via_tables = [int_columns([], 5)]
    devices: list[DevicePlacement] = []
    ports: list[Port] = []
    well: Rect | None = None

    def ids(table: dict, keys) -> np.ndarray:
        """Ids of ``keys`` in a merged name table, adding new names."""
        return np.array(
            [table.setdefault(k, len(table)) for k in keys], dtype=np.int64
        )

    for inst in instances:
        child = inst.layout
        box = child.bbox()
        cols = child.shape_columns()
        mapping = net_map.get(inst.name, {})
        dx, dy = inst.offset.x - box.x0, inst.offset.y - box.y0

        def xf_rect(rect: Rect, *, _box=box, _inst=inst, _dx=dx, _dy=dy) -> Rect:
            x0, x1 = rect.x0, rect.x1
            if _inst.flipped_x:
                x0, x1 = _box.x0 + _box.x1 - x1, _box.x0 + _box.x1 - x0
            return Rect(x0 + _dx, rect.y0 + _dy, x1 + _dx, rect.y1 + _dy)

        def xf_net(net: str, *, _inst=inst, _mapping=mapping) -> str:
            return _mapping.get(net, f"{_inst.name}/{net}")

        # A flip mirrors x about the child box's centre line.
        net_ids = ids(nets, [xf_net(n) for n in cols.nets])
        wires = cols.wires.copy()
        wires[W_NET] = net_ids[wires[W_NET]]
        wires[W_LAYER] = ids(layers, cols.layers)[wires[W_LAYER]]
        owner_names = [f"{inst.name}/{o}" if o else "" for o in cols.owners]
        wires[W_OWNER] = ids(owners, owner_names)[wires[W_OWNER]]
        if inst.flipped_x:
            wires[W_X0] = box.x0 + box.x1 - cols.wires[W_X1]
            wires[W_X1] = box.x0 + box.x1 - cols.wires[W_X0]
        wires[[W_X0, W_X1]] += dx
        wires[[W_Y0, W_Y1]] += dy
        wire_tables.append(wires)

        vias = cols.vias.copy()
        vias[V_NET] = net_ids[vias[V_NET]]
        vias[V_PAIR] = ids(pairs, cols.via_layers)[vias[V_PAIR]]
        if inst.flipped_x:
            vias[V_X] = box.x0 + box.x1 - vias[V_X]
        vias[V_X] += dx
        vias[V_Y] += dy
        via_tables.append(vias)

        devices += [
            replace(dev, device=f"{inst.name}/{dev.device}", rect=xf_rect(dev.rect))
            for dev in child.devices
        ]
        ports += [
            replace(port, net=xf_net(port.net), rect=xf_rect(port.rect))
            for port in child.ports
        ]
        if child.well_rect is not None:
            child_well = xf_rect(child.well_rect)
            well = child_well if well is None else well.union(child_well)
    columns = ShapeColumns(
        list(nets), list(layers), list(owners), list(pairs),
        np.concatenate(wire_tables, axis=1), np.concatenate(via_tables, axis=1),
    )
    return Layout(name, devices, ports=ports, well_rect=well, columns=columns)
