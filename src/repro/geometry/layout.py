"""Layout container classes.

A :class:`Layout` is what the primitive cell generator produces: device
placements, wires, vias and ports, all in cell-local integer-nanometre
coordinates.  The extractor walks these shapes; the placer treats layouts
as black boxes with a bounding box and ports; assembled blocks reference
child layouts through :class:`Instance`.

The shape records are slotted and not frozen, like the ones in
:mod:`repro.geometry.shapes`, and carry no hash; treat an emitted shape
as a value and build a new one (``dataclasses.replace``) to change it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LayoutError
from repro.geometry.shapes import Point, Rect, bounding_box


@dataclass(slots=True)
class Wire:
    """A rectangular wire segment on a metal layer.

    Attributes:
        net: Net name the wire belongs to.
        layer: Metal layer name (e.g. ``"M2"``).
        rect: Geometry (nm).
        role: Structural tag used by extraction, one of
            ``"finger_stub"``, ``"strap"`` (horizontal row strap),
            ``"rail"`` (vertical trunk) or ``"route"``.
        owner: For finger stubs and straps, the schematic device (and
            terminal, as ``"MA.s"``) the shape serves; empty for shared
            shapes such as rails.
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


@dataclass
class Layout:
    """A generated cell layout.

    Attributes:
        name: Cell name.
        devices: Transistor unit placements.
        wires: Wire shapes.
        vias: Via shapes.
        ports: External pins.
        well_rect: The well boundary (used for WPE extraction); defaults
            to the bounding box expanded by the well enclosure.
        metadata: Free-form annotations (pattern name, variant parameters).
    """

    name: str
    devices: list[DevicePlacement] = field(default_factory=list)
    wires: list[Wire] = field(default_factory=list)
    vias: list[Via] = field(default_factory=list)
    ports: list[Port] = field(default_factory=list)
    well_rect: Rect | None = None
    metadata: dict = field(default_factory=dict)

    def bbox(self) -> Rect:
        """Bounding box over all shapes, including via positions.

        Vias are points, so each widens the box to its position; a via
        placed at the cell edge therefore cannot sit outside the reported
        bounding box even if no wire reaches it.

        Recomputed on every call: cell generation appends shapes to a
        layout after creating it, so a cached box would go stale.
        """
        rects = [d.rect for d in self.devices]
        rects += [w.rect for w in self.wires]
        rects += [p.rect for p in self.ports]
        if not rects and not self.vias:
            raise LayoutError(f"layout {self.name!r} is empty")
        if rects:
            box = bounding_box(rects)
            x0, y0, x1, y1 = box.x0, box.y0, box.x1, box.y1
        else:
            first = self.vias[0].position
            x0, y0, x1, y1 = first.x, first.y, first.x, first.y
        for via in self.vias:
            x, y = via.position.x, via.position.y
            if x < x0:
                x0 = x
            elif x > x1:
                x1 = x
            if y < y0:
                y0 = y
            elif y > y1:
                y1 = y
        return Rect(x0, y0, x1, y1)

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
        names = {w.net for w in self.wires} | {p.net for p in self.ports}
        names |= {v.net for v in self.vias}
        return sorted(names)


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
    both calling a net ``"d"``) cannot alias in the parent.

    Args:
        name: Name of the flattened layout.
        instances: Placed children.
        net_map: ``{instance_name: {child_net: parent_net}}``; missing
            instances or nets fall back to prefixing.

    Returns:
        A layout with all child devices, wires, vias and ports merged;
        the well rectangle is the union of the children's wells.
    """
    from dataclasses import replace as _replace

    merged = Layout(name=name)
    net_map = net_map or {}
    for inst in instances:
        child = inst.layout
        box = child.bbox()
        mapping = net_map.get(inst.name, {})

        def xf_rect(rect: Rect, *, _box=box, _inst=inst) -> Rect:
            x0, x1 = rect.x0 - _box.x0, rect.x1 - _box.x0
            if _inst.flipped_x:
                x0, x1 = _box.width - x1, _box.width - x0
            return Rect(
                _inst.offset.x + x0,
                _inst.offset.y + (rect.y0 - _box.y0),
                _inst.offset.x + x1,
                _inst.offset.y + (rect.y1 - _box.y0),
            )

        def xf_point(p: Point, *, _box=box, _inst=inst) -> Point:
            x = p.x - _box.x0
            if _inst.flipped_x:
                x = _box.width - x
            return Point(_inst.offset.x + x, _inst.offset.y + (p.y - _box.y0))

        def xf_net(net: str, *, _inst=inst, _mapping=mapping) -> str:
            return _mapping.get(net, f"{_inst.name}/{net}")

        for dev in child.devices:
            merged.devices.append(
                _replace(dev, device=f"{inst.name}/{dev.device}",
                         rect=xf_rect(dev.rect))
            )
        for wire in child.wires:
            owner = f"{inst.name}/{wire.owner}" if wire.owner else ""
            merged.wires.append(
                _replace(wire, net=xf_net(wire.net), rect=xf_rect(wire.rect),
                         owner=owner)
            )
        for via in child.vias:
            merged.vias.append(
                _replace(via, net=xf_net(via.net),
                         position=xf_point(via.position))
            )
        for port in child.ports:
            merged.ports.append(
                _replace(port, net=xf_net(port.net), rect=xf_rect(port.rect))
            )
        if child.well_rect is not None:
            well = xf_rect(child.well_rect)
            merged.well_rect = (
                well if merged.well_rect is None else merged.well_rect.union(well)
            )
    return merged
