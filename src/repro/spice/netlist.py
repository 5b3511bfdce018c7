"""The :class:`Circuit` netlist container.

A circuit is a flat collection of elements plus an optional list of
*ports* (externally visible nodes).  Hierarchy is handled by
:meth:`Circuit.instantiate`, which merges a child circuit into the parent
with its ports connected to parent nets and its internal nodes prefixed —
the same flatten-at-elaboration approach real analog flows use before
simulation.

Ground is spelled ``"0"`` or ``"gnd"`` (case-insensitive).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.devices.lde import LdeContext
from repro.devices.mosfet import MosGeometry
from repro.errors import NetlistError
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.waveforms import Dc, Waveform
from repro.tech.finfet import MosModelCard

GROUND_NAMES = ("0", "gnd", "GND", "vss!", "VSS!")


def is_ground(node: str) -> bool:
    """True if ``node`` names the global ground net."""
    return node in GROUND_NAMES or node.lower() == "gnd"


def is_power_net(net: str) -> bool:
    """True for ground and any ``"...!"``-suffixed global supply net.

    Cell layouts give these nets the dense, manually routed power mesh.
    """
    return is_ground(net) or net.endswith("!")


@dataclass
class Circuit:
    """A flat netlist of elements.

    Elements are added through the typed ``add_*`` helpers, which also
    enforce unique instance names.  Node names are free-form strings.
    """

    name: str = "circuit"

    def __post_init__(self) -> None:
        self._elements: list[Element] = []
        self._names: set[str] = set()
        self.ports: list[str] = []

    # -- element management --------------------------------------------

    def add(self, element: Element) -> Element:
        """Add a pre-built element, enforcing unique names."""
        if element.name in self._names:
            raise NetlistError(
                f"duplicate element name {element.name!r} in circuit {self.name!r}"
            )
        self._names.add(element.name)
        self._elements.append(element)
        return element

    @property
    def elements(self) -> tuple[Element, ...]:
        """All elements, in insertion order."""
        return tuple(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def element(self, name: str) -> Element:
        """Look up an element by instance name."""
        for elem in self._elements:
            if elem.name == name:
                return elem
        raise NetlistError(f"no element named {name!r} in circuit {self.name!r}")

    def replace_element(self, name: str, new_element: Element) -> None:
        """Swap the element called ``name`` for ``new_element`` in place."""
        for i, elem in enumerate(self._elements):
            if elem.name == name:
                if new_element.name != name and new_element.name in self._names:
                    raise NetlistError(
                        f"duplicate element name {new_element.name!r}"
                    )
                self._names.discard(name)
                self._names.add(new_element.name)
                self._elements[i] = new_element
                return
        raise NetlistError(f"no element named {name!r} in circuit {self.name!r}")

    def remove_element(self, name: str) -> None:
        """Remove the element called ``name``."""
        for i, elem in enumerate(self._elements):
            if elem.name == name:
                del self._elements[i]
                self._names.discard(name)
                return
        raise NetlistError(f"no element named {name!r} in circuit {self.name!r}")

    # -- typed convenience adders ---------------------------------------

    def add_resistor(self, name: str, a: str, b: str, value: float) -> Resistor:
        return self.add(Resistor(name, a, b, value))  # type: ignore[return-value]

    def add_capacitor(self, name: str, a: str, b: str, value: float) -> Capacitor:
        return self.add(Capacitor(name, a, b, value))  # type: ignore[return-value]

    def add_inductor(self, name: str, a: str, b: str, value: float) -> Inductor:
        return self.add(Inductor(name, a, b, value))  # type: ignore[return-value]

    def add_vsource(
        self,
        name: str,
        plus: str,
        minus: str,
        waveform: Waveform | float = 0.0,
        ac_magnitude: float = 0.0,
        ac_phase_deg: float = 0.0,
    ) -> VoltageSource:
        if isinstance(waveform, (int, float)):
            waveform = Dc(float(waveform))
        return self.add(  # type: ignore[return-value]
            VoltageSource(name, plus, minus, waveform, ac_magnitude, ac_phase_deg)
        )

    def add_isource(
        self,
        name: str,
        a: str,
        b: str,
        waveform: Waveform | float = 0.0,
        ac_magnitude: float = 0.0,
        ac_phase_deg: float = 0.0,
    ) -> CurrentSource:
        if isinstance(waveform, (int, float)):
            waveform = Dc(float(waveform))
        return self.add(  # type: ignore[return-value]
            CurrentSource(name, a, b, waveform, ac_magnitude, ac_phase_deg)
        )

    def add_vcvs(
        self, name: str, plus: str, minus: str, cp: str, cm: str, gain: float
    ) -> Vcvs:
        return self.add(Vcvs(name, plus, minus, cp, cm, gain))  # type: ignore[return-value]

    def add_vccs(
        self, name: str, a: str, b: str, cp: str, cm: str, gain: float
    ) -> Vccs:
        return self.add(Vccs(name, a, b, cp, cm, gain))  # type: ignore[return-value]

    def add_mosfet(
        self,
        name: str,
        d: str,
        g: str,
        s: str,
        b: str,
        card: MosModelCard,
        geometry: MosGeometry,
        lde: LdeContext | None = None,
        cdb_override: float | None = None,
        csb_override: float | None = None,
        vth_mismatch: float = 0.0,
    ) -> Mosfet:
        return self.add(  # type: ignore[return-value]
            Mosfet(
                name,
                d,
                g,
                s,
                b,
                card,
                geometry,
                lde or LdeContext.ideal(),
                cdb_override,
                csb_override,
                vth_mismatch,
            )
        )

    # -- node queries -----------------------------------------------------

    def nodes(self) -> list[str]:
        """All non-ground node names referenced by elements, sorted."""
        seen: set[str] = set()
        for elem in self._elements:
            for node in _element_nodes(elem):
                if not is_ground(node):
                    seen.add(node)
        return sorted(seen)

    def mosfets(self) -> list[Mosfet]:
        """All MOSFET elements."""
        return [e for e in self._elements if isinstance(e, Mosfet)]

    def elements_on_node(self, node: str) -> list[Element]:
        """Elements with at least one terminal on ``node``."""
        return [e for e in self._elements if node in _element_nodes(e)]

    # -- hierarchy ---------------------------------------------------------

    def instantiate(
        self,
        child: "Circuit",
        instance_name: str,
        port_map: dict[str, str],
    ) -> None:
        """Merge ``child`` into this circuit as instance ``instance_name``.

        ``port_map`` maps child port names to parent net names; every child
        port must be mapped.  Internal child nodes are renamed to
        ``instance_name + "." + node``; element names are prefixed the same
        way.  Ground is global and passes through unchanged.
        """
        missing = [p for p in child.ports if p not in port_map]
        if missing:
            raise NetlistError(
                f"instantiating {child.name!r}: unmapped ports {missing}"
            )
        unknown = [p for p in port_map if p not in child.ports]
        if unknown:
            raise NetlistError(
                f"instantiating {child.name!r}: {unknown} are not ports"
            )

        def rename(node: str) -> str:
            if is_ground(node):
                return node
            if node in port_map:
                return port_map[node]
            return f"{instance_name}.{node}"

        for elem in child.elements:
            self.add(_rename_element(elem, f"{instance_name}.{elem.name}", rename))

    def copy(self, name: str | None = None) -> "Circuit":
        """A shallow structural copy (elements are immutable, so shared)."""
        dup = Circuit(name or self.name)
        dup.ports = list(self.ports)
        for elem in self._elements:
            dup.add(elem)
        return dup


def _element_nodes(elem: Element) -> tuple[str, ...]:
    if isinstance(elem, (Resistor, Capacitor, Inductor, CurrentSource)):
        return (elem.a, elem.b)
    if isinstance(elem, VoltageSource):
        return (elem.plus, elem.minus)
    if isinstance(elem, Vcvs):
        return (elem.plus, elem.minus, elem.ctrl_plus, elem.ctrl_minus)
    if isinstance(elem, Vccs):
        return (elem.a, elem.b, elem.ctrl_plus, elem.ctrl_minus)
    if isinstance(elem, Mosfet):
        return (elem.d, elem.g, elem.s, elem.b)
    raise NetlistError(f"unknown element type {type(elem).__name__}")


def element_nodes(elem: Element) -> tuple[str, ...]:
    """Public accessor for an element's node names."""
    return _element_nodes(elem)


def _rename_element(elem: Element, new_name: str, rename) -> Element:
    if isinstance(elem, (Resistor, Capacitor, Inductor, CurrentSource)):
        return replace(elem, name=new_name, a=rename(elem.a), b=rename(elem.b))
    if isinstance(elem, VoltageSource):
        return replace(
            elem, name=new_name, plus=rename(elem.plus), minus=rename(elem.minus)
        )
    if isinstance(elem, Vcvs):
        return replace(
            elem,
            name=new_name,
            plus=rename(elem.plus),
            minus=rename(elem.minus),
            ctrl_plus=rename(elem.ctrl_plus),
            ctrl_minus=rename(elem.ctrl_minus),
        )
    if isinstance(elem, Vccs):
        return replace(
            elem,
            name=new_name,
            a=rename(elem.a),
            b=rename(elem.b),
            ctrl_plus=rename(elem.ctrl_plus),
            ctrl_minus=rename(elem.ctrl_minus),
        )
    if isinstance(elem, Mosfet):
        return replace(
            elem,
            name=new_name,
            d=rename(elem.d),
            g=rename(elem.g),
            s=rename(elem.s),
            b=rename(elem.b),
        )
    raise NetlistError(f"unknown element type {type(elem).__name__}")
