"""End-to-end ingestion: text → circuit → graph → matches → constraints.

:func:`ingest_netlist` is the one-call API behind ``repro ingest``: it
parses, canonicalizes, recognizes, emits constraints, runs ERC on the
flattened circuit, *validates* every emitted
:class:`~repro.cellgen.generator.CellSpec` by actually generating a
layout and running the CONST constraint checks against it, and folds
everything into one waiver-aware :class:`~repro.verify.diagnostics.Report`.

:class:`IngestedCircuit` adapts an :class:`IngestResult` to the
:class:`~repro.circuits.base.CompositeCircuit` interface so
``repro flow --netlist`` can drive the hierarchical flow from a raw
``.sp`` file: every recognized primitive with a library binding becomes
a :class:`~repro.circuits.base.PrimitiveBinding`.

Everything here is pure and deterministic: :meth:`IngestResult.to_dict`
depends only on the netlist text, so repeated runs produce
byte-identical JSON.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.cellgen.generator import generate_layout
from repro.cellgen.patterns import available_patterns
from repro.circuits.base import CompositeCircuit, PrimitiveBinding
from repro.errors import LayoutError, OptimizationError, VerificationError
from repro.ingest.emit import EmittedPrimitive, emit_constraints
from repro.ingest.graph import DeviceGraph, build_device_graph
from repro.ingest.parser import parse_spice
from repro.ingest.recognize import Recognition, recognize
from repro.primitives.library import PrimitiveLibrary
from repro.spice.netlist import Circuit
from repro.tech.pdk import Technology
from repro.verify import verify_circuit
from repro.verify.constraints import run_constraints
from repro.verify.diagnostics import Report
from repro.verify.rules import WaiverSet


class IngestResult:
    """Everything the ingestion pipeline learned about one netlist.

    Attributes:
        source: Netlist origin (path or ``"<string>"``).
        circuit: The flattened circuit.
        graph: Canonical device graph.
        recognition: Matches, ambiguities and uncovered residue.
        primitives: Emitted constraint objects, in canonical order.
        report: Merged diagnostics (TOPO + ERC + CONST validation),
            with waivers applied when provided.
    """

    def __init__(
        self,
        source: str,
        circuit: Circuit,
        graph: DeviceGraph,
        recognition: Recognition,
        primitives: tuple[EmittedPrimitive, ...],
        report: Report,
    ):
        self.source = source
        self.circuit = circuit
        self.graph = graph
        self.recognition = recognition
        self.primitives = primitives
        self.report = report

    @property
    def coverage(self) -> float:
        """Fraction of MOS devices claimed by a recognized primitive."""
        return self.recognition.coverage

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON-ready summary (stable across runs)."""
        prims = []
        for prim in self.primitives:
            entry: dict[str, Any] = {
                "name": prim.name,
                "kind": prim.match.kind,
                "polarity": prim.match.polarity,
                "devices": {role: dev for role, dev in prim.match.devices},
                "nets": {var: net for var, net in prim.match.nets},
                "matched_group": list(
                    prim.spec.matched_group if prim.spec else ()
                ),
                "symmetric_pairs": [
                    list(p) for p in prim.match.symmetric_nets
                ],
            }
            if prim.binding is not None:
                entry["binding"] = {
                    "family": prim.binding.family,
                    "base_fins": prim.binding.base_fins,
                    "ratio": prim.binding.ratio,
                    "port_map": {p: n for p, n in prim.binding.port_map},
                }
            else:
                entry["binding"] = None
            prims.append(entry)
        return {
            "source": self.source,
            "circuit": self.circuit.name,
            "ports": list(self.graph.ports),
            "n_elements": len(self.circuit.elements),
            "n_mos": len(self.graph.mos_devices()),
            "n_nets": len(self.graph.nets),
            "coverage": round(self.coverage, 4),
            "primitives": prims,
            "uncovered": list(self.recognition.uncovered),
            "ambiguities": [
                {
                    "kind": a.kind,
                    "devices": list(a.devices),
                    "conflicts": list(a.conflicts),
                }
                for a in self.recognition.ambiguities
            ],
            "report": self.report.to_dict(),
        }


def _validate_specs(
    primitives: tuple[EmittedPrimitive, ...],
    tech: Technology,
    report: Report,
) -> None:
    """Generate each emitted spec once and run the CONST checks on it."""
    for prim in primitives:
        spec = prim.spec
        if spec is None:
            continue
        counts = {d.name: d.geometry.m for d in spec.devices
                  if d.name in spec.matched_group}
        matched = [spec.device(n) for n in spec.matched_group]
        units = {(d.geometry.nfin, d.geometry.nf) for d in matched}
        if len(units) != 1:
            continue  # already flagged as TOPO-ASYM-SIZE by the emitter
        try:
            patterns = available_patterns(
                [d.name for d in matched], counts
            )
            pattern = "ABBA" if "ABBA" in patterns else patterns[0]
            layout = generate_layout(spec, pattern, tech, verify=False)
            report.merge(run_constraints(layout, spec, tech))
        except (LayoutError, VerificationError, OptimizationError) as exc:
            report.flag(
                "TOPO-GEN-FAIL",
                f"cell generator cannot realize {prim.name}: {exc}",
                subject=prim.name,
            )


def ingest_netlist(
    text: str,
    source: str = "<string>",
    tech: Technology | None = None,
    waivers: WaiverSet | None = None,
    validate: bool = True,
) -> IngestResult:
    """Run the full ingestion pipeline on netlist text.

    Args:
        text: SPICE netlist text.
        source: Origin name used in diagnostics.
        tech: Technology node (defaults to FF14).
        waivers: Optional waiver baseline applied to the merged report.
        validate: Generate every emitted spec and run the CONST checks
            (set False to skip the layout round-trip for speed).

    Returns:
        The complete :class:`IngestResult`.
    """
    tech = tech or Technology.default()
    circuit = parse_spice(text, source=source, tech=tech)
    graph = build_device_graph(circuit)
    recognition = recognize(graph)
    report = Report(target=circuit.name)
    if not graph.mos_devices():
        report.flag(
            "TOPO-NO-DEVICES",
            f"netlist {source} has no MOS devices; nothing to recognize",
        )
    for device in recognition.uncovered:
        report.flag(
            "TOPO-UNCOVERED",
            f"device {device} is not part of any recognized primitive",
            subject=device,
        )
    for amb in recognition.ambiguities:
        report.flag(
            "TOPO-AMBIGUOUS",
            f"alternative {amb.kind} grouping ({', '.join(amb.devices)}) "
            f"lost devices {', '.join(amb.conflicts)} to a canonical "
            f"match",
            subject=",".join(amb.devices),
        )
    primitives = tuple(
        emit_constraints(match, i, graph, report)
        for i, match in enumerate(recognition.matches)
    )
    report.merge(verify_circuit(circuit))
    if validate:
        _validate_specs(primitives, tech, report)
    if waivers is not None:
        report.apply_waivers(waivers)
    return IngestResult(
        source=source,
        circuit=circuit,
        graph=graph,
        recognition=recognition,
        primitives=primitives,
        report=report,
    )


def ingest_file(
    path: str | Path,
    tech: Technology | None = None,
    waivers: WaiverSet | None = None,
    validate: bool = True,
) -> IngestResult:
    """Ingest a netlist file (path becomes the diagnostics source)."""
    path = Path(path)
    from repro.errors import NetlistError

    try:
        text = path.read_text()
    except OSError as exc:
        raise NetlistError(f"cannot read netlist {path}: {exc}") from exc
    return ingest_netlist(
        text, source=str(path), tech=tech, waivers=waivers,
        validate=validate,
    )


class IngestedCircuit(CompositeCircuit):
    """A :class:`CompositeCircuit` assembled from an ingest result.

    Bindings come from recognized primitives with library bindings;
    matches without a generator family (and bindings whose ``base_fins``
    admits no legal sizing) are skipped and recorded in
    :attr:`skipped`.  The circuit has no measurement testbench — run the
    flow with ``measure=False``.
    """

    def __init__(self, result: IngestResult, tech: Technology):
        super().__init__(tech)
        self.name = Path(result.source).stem or result.circuit.name
        self.result = result
        self.skipped: list[str] = []
        self._bindings: list[PrimitiveBinding] = []
        library = PrimitiveLibrary()
        for prim in result.primitives:
            binding = prim.binding
            if binding is None:
                self.skipped.append(prim.name)
                continue
            kwargs: dict[str, Any] = {"base_fins": binding.base_fins}
            if binding.ratio != 1:
                kwargs["ratio"] = binding.ratio
            try:
                primitive = library.create(binding.family, tech, **kwargs)
                primitive.name = prim.name
                if not primitive.variants():
                    raise OptimizationError("no legal sizing variants")
            except (OptimizationError, LayoutError, ValueError, TypeError):
                self.skipped.append(prim.name)
                continue
            self._bindings.append(PrimitiveBinding(
                name=prim.name,
                primitive=primitive,
                port_map={p: n for p, n in binding.port_map},
                symmetric_ports=[
                    pair for pair in primitive.symmetric_net_pairs()
                ],
            ))

    def bindings(self) -> list[PrimitiveBinding]:
        """Recognized primitives that the flow can optimize."""
        return list(self._bindings)

    def finish_testbench(self, tb: Circuit, ac: bool = False) -> None:
        """Attach only the supply: ingested circuits carry no stimuli."""
        supplies = {
            net for net in self.result.graph.nets
            if net.endswith("!")
        }
        for i, net in enumerate(sorted(supplies)):
            tb.add_vsource(f"vsup{i}", net, "0", self.tech.vdd)

    def measure(self, dut: Circuit) -> dict[str, float]:
        """Ingested circuits have no testbench; run with measure=False."""
        raise OptimizationError(
            f"{self.name}: ingested netlists carry no measurement "
            f"testbench; run the flow with measure=False"
        )
