"""Extracted-netlist construction.

:func:`extract_primitive` bundles RC and LDE extraction of one generated
layout into an :class:`ExtractedPrimitive`, whose
:meth:`~ExtractedPrimitive.build_circuit` produces the post-layout SPICE
netlist: every net becomes the three-node ladder of
:mod:`repro.extraction.rc` and every device carries its extracted
:class:`~repro.devices.lde.LdeContext` and diffusion-sharing-aware
junction capacitances.

Node naming: the port-side node keeps the net name (so testbenches attach
sources exactly as they would to the schematic), ``<net>__w`` is the star
point carrying the wire capacitance, and ``<net>__d`` is the device mesh
node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cellgen.generator import CellSpec
from repro.devices.lde import LdeContext
from repro.extraction.lde_extract import extract_lde, junction_capacitances
from repro.extraction.rc import NetParasitics, extract_all_nets
from repro.geometry.layout import Layout
from repro.spice.netlist import Circuit, is_ground
from repro.tech.pdk import Technology


@dataclass
class ExtractedPrimitive:
    """Extraction results for one primitive layout.

    Attributes:
        layout: The layout that was extracted.
        spec: The cell specification used to generate it.
        tech: Technology node.
        net_parasitics: Per-net reduced RC.
        device_lde: Per-device LDE contexts.
        device_junctions: Per-device (cdb, csb) with diffusion sharing.
    """

    layout: Layout
    spec: CellSpec
    tech: Technology
    net_parasitics: dict[str, NetParasitics] = field(default_factory=dict)
    device_lde: dict[str, LdeContext] = field(default_factory=dict)
    device_junctions: dict[str, tuple[float, float]] = field(default_factory=dict)

    def build_circuit(self, name: str | None = None) -> Circuit:
        """Assemble the post-layout netlist of the primitive.

        Every extracted net becomes ``port --R_trunk-- star`` with the
        wire capacitance at the star, and each device terminal hangs off
        the star through its own branch resistance, so per-device
        degeneration and matching are modelled faithfully.
        """
        circuit = Circuit(name or f"{self.layout.name}_extracted")
        circuit.ports = [n for n in self.spec.port_nets if not is_ground(n)]

        for net, par in self.net_parasitics.items():
            star = f"{net}__w"
            circuit.add_resistor(f"rt_{net}", net, star, par.r_trunk)
            if par.c_wire > 0:
                circuit.add_capacitor(f"cw_{net}", star, "0", par.c_wire)
            for key, resistance in par.r_branches.items():
                circuit.add_resistor(
                    f"rb_{net}_{key}", star, f"{net}__{key}", resistance
                )

        for dev in self.spec.devices:
            card = self.tech.card(dev.polarity)
            cdb, csb = self.device_junctions[dev.name]

            def node(terminal: str) -> str:
                net = dev.terminals.get(terminal, "0")
                par = self.net_parasitics.get(net)
                key = f"{dev.name}.{terminal}"
                if par is not None and key in par.r_branches:
                    return f"{net}__{key}"
                return net

            circuit.add_mosfet(
                dev.name,
                d=node("d"),
                g=node("g"),
                s=node("s"),
                b=dev.terminals.get("b", "0"),
                card=card,
                geometry=dev.geometry,
                lde=self.device_lde[dev.name],
                cdb_override=cdb,
                csb_override=csb,
            )
        return circuit

    def summary(self) -> dict:
        """Human-readable extraction report (for docs and debugging)."""
        return {
            "layout": self.layout.name,
            "pattern": self.layout.metadata.get("pattern"),
            "bbox_um": (self.layout.width / 1000.0, self.layout.height / 1000.0),
            "aspect_ratio": self.layout.aspect_ratio,
            "nets": {
                net: {
                    "r_trunk": par.r_trunk,
                    "r_branches": dict(par.r_branches),
                    "c_wire": par.c_wire,
                    "straps": par.n_straps,
                }
                for net, par in self.net_parasitics.items()
            },
            "devices": {
                name: {
                    "vth_shift_mV": ctx.vth_shift * 1e3,
                    "mobility_factor": ctx.mobility_factor,
                }
                for name, ctx in self.device_lde.items()
            },
        }


def extract_primitive(
    layout: Layout, spec: CellSpec, tech: Technology
) -> ExtractedPrimitive:
    """Run full extraction (RC + LDE + junctions) on a primitive layout."""
    extracted = ExtractedPrimitive(
        layout=layout,
        spec=spec,
        tech=tech,
        net_parasitics=extract_all_nets(layout, tech),
    )
    bbox = layout.bbox()
    for dev in spec.devices:
        card = tech.card(dev.polarity)
        extracted.device_lde[dev.name] = extract_lde(
            layout, dev.name, card, tech, bbox=bbox
        )
        extracted.device_junctions[dev.name] = junction_capacitances(
            layout, dev.name, card
        )
    return extracted
