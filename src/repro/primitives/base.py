"""Primitive base classes.

A *primitive* here is the paper's augmented library entry: a small device
topology plus

* **metrics** with importance weights α (Table II), each evaluated by a
  dedicated SPICE testbench built around any DUT netlist (schematic or
  extracted),
* **tuning terminals** — nets whose wire RC may be traded off, with
  correlation annotations,
* layout-generation hooks that adapt the primitive to the cell generator
  (device templates → :class:`~repro.cellgen.CellSpec`).

Concrete families subclass :class:`MosPrimitive` and declare their
templates and metrics; the optimization algorithms in :mod:`repro.core`
consume only this interface.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro.cellgen.generator import CellDevice, CellSpec, WireConfig, generate_layout
from repro.cellgen.sizing import enumerate_sizings
from repro.devices.mosfet import MosGeometry
from repro.errors import MeasureError, OptimizationError
from repro.extraction.netlist_builder import ExtractedPrimitive, extract_primitive
from repro.geometry.layout import Layout
from repro.runtime import faults
from repro.spice.netlist import Circuit
from repro.tech.pdk import Technology

#: Weight constants from the paper: high, medium, low.
WEIGHT_HIGH = 1.0
WEIGHT_MEDIUM = 0.5
WEIGHT_LOW = 0.1


@dataclass(frozen=True)
class MetricSpec:
    """One primitive performance metric.

    Attributes:
        name: Metric name, e.g. ``"gm"``.
        weight: Importance weight α (1.0 / 0.5 / 0.1).
        evaluate: Callable ``(primitive, duts, caches) -> list[(value,
            n_sims) | Exception]`` implementing the metric's testbench
            on a stack of DUT netlists, one entry per DUT; a member's
            evaluation failure is returned in its place (captured), not
            raised.  Each DUT's ``cache`` dict is shared across the
            metrics of its evaluation so related metrics (e.g. Gm and
            Gm/C_total) can share sweeps.  The constructors
            :func:`~repro.primitives.testbenches.ac_metric`,
            :func:`~repro.primitives.testbenches.dc_metric` and
            :func:`~repro.primitives.testbenches.tran_metric` build it
            from one testbench and one reader.
        spec_value: Optional callable ``(primitive) -> float`` giving the
            specification value used when the schematic value is zero
            (Eq. 6's second case, e.g. DP input offset).
        larger_is_better: Reporting hint only; the cost uses deviations.
    """

    name: str
    weight: float
    evaluate: Callable[["MosPrimitive", list, list], list]
    spec_value: Callable[["MosPrimitive"], float] | None = None
    larger_is_better: bool = True


@dataclass(frozen=True)
class TuningTerminal:
    """A tuning terminal: nets whose wire RC is a free variable.

    Attributes:
        name: Human-readable terminal name, e.g. ``"source"``.
        nets: Nets that share the terminal's wire count (symmetric nets
            such as a DP's two drains must be sized identically).
        correlated_with: Names of other terminals whose optimum interacts
            with this one (optimized jointly by Algorithm 1).
        max_wires: Upper bound of the sweep.
    """

    name: str
    nets: tuple[str, ...]
    correlated_with: tuple[str, ...] = ()
    max_wires: int = 8


class MosPrimitive(ABC):
    """Base class for transistor primitives.

    Subclasses define class attributes:

    * ``family`` — family tag (``"differential_pair"`` ...),
    * ``ratio_suffix`` or constructor params as needed,

    and implement :meth:`templates`, :meth:`metrics`,
    :meth:`tuning_terminals` plus the metric testbenches.

    Args:
        tech: Technology node.
        base_fins: Total fins of the *unit* device (a template with
            ``m_ratio == r`` gets ``r * base_fins`` fins).
        name: Optional instance name.
    """

    family: str = "primitive"

    def __init__(self, tech: Technology, base_fins: int, name: str | None = None):
        if base_fins < 1:
            raise OptimizationError("base_fins must be >= 1")
        self.tech = tech
        self.base_fins = base_fins
        self.name = name or f"{self.family}_{base_fins}"
        self._schematic_reference: dict[str, float] | None = None
        self._reference_sims = 0

    # -- structure ---------------------------------------------------------

    @abstractmethod
    def templates(self) -> list["DeviceTemplate"]:
        """Device templates making up the primitive."""

    @abstractmethod
    def metrics(self) -> list[MetricSpec]:
        """Performance metrics with weights (the paper's Table II row)."""

    @abstractmethod
    def tuning_terminals(self) -> list[TuningTerminal]:
        """Tuning terminals with correlation annotations."""

    def matched_group(self) -> tuple[str, ...]:
        """Device names placed with the matching pattern.

        Defaults to every template with ``matched=True``.
        """
        return tuple(t.name for t in self.templates() if t.matched)

    def port_nets(self) -> tuple[str, ...]:
        """Externally visible nets, in declaration order."""
        seen: list[str] = []
        for template in self.templates():
            for net in template.terminals.values():
                if net not in seen and not net.startswith("int_"):
                    seen.append(net)
        return tuple(n for n in seen if n != "0")

    # -- layout ----------------------------------------------------------

    def variants(self, max_m: int = 8) -> list[MosGeometry]:
        """All (nfin, nf, m) factorizations of the unit device."""
        return enumerate_sizings(self.base_fins, max_m=max_m)

    def symmetric_net_pairs(self) -> tuple[tuple[str, str], ...]:
        """Net pairs that must stay matched in the layout.

        Defaults to every tuning terminal spanning exactly two nets (a
        DP's two drains); subclasses add non-tuned pairs such as gate
        inputs.
        """
        pairs = []
        for terminal in self.tuning_terminals():
            if len(terminal.nets) == 2:
                pairs.append((terminal.nets[0], terminal.nets[1]))
        return tuple(pairs)

    def cell_spec(self, base: MosGeometry) -> CellSpec:
        """Cell-generator input for one sizing of the unit device."""
        devices = tuple(
            CellDevice(
                name=t.name,
                polarity=t.polarity,
                geometry=MosGeometry(base.nfin, base.nf, base.m * t.m_ratio),
                terminals=dict(t.terminals),
            )
            for t in self.templates()
        )
        return CellSpec(
            name=self.name,
            devices=devices,
            matched_group=self.matched_group(),
            port_nets=self.port_nets(),
            symmetric_pairs=self.symmetric_net_pairs(),
        )

    def generate(
        self,
        base: MosGeometry,
        pattern: str,
        wires: WireConfig | None = None,
        verify: bool | None = None,
        strict: bool = False,
    ) -> Layout:
        """Generate one layout variant.

        ``verify``/``strict`` are forwarded to
        :func:`~repro.cellgen.generator.generate_layout`: by default the
        emitted layout carries its static-verification report in
        ``metadata["verification"]``.
        """
        return generate_layout(
            self.cell_spec(base), pattern, self.tech, wires,
            verify=verify, strict=strict,
        )

    def extract(self, layout: Layout, base: MosGeometry) -> ExtractedPrimitive:
        """Extract a generated layout."""
        return extract_primitive(layout, self.cell_spec(base), self.tech)

    def layout_circuit(self, base: MosGeometry, pattern: str, wires=None) -> Circuit:
        """Generate + extract + build the post-layout netlist in one call.

        Skips per-layout verification: the caller wants the netlist, not
        the layout, and the emitted-layout paths verify separately.
        """
        layout = self.generate(base, pattern, wires, verify=False)
        return self.extract(layout, base).build_circuit()

    # -- netlists -----------------------------------------------------------

    def schematic_circuit(self) -> Circuit:
        """The ideal (pre-layout) netlist: devices only, no parasitics.

        Junction capacitances assume ideal diffusion sharing — the value
        a designer enters pre-layout — so that generated layouts start at
        roughly the schematic capacitance and *wire* capacitance moves
        them above it, reproducing the paper's R-vs-C trade-off
        direction.
        """
        circuit = Circuit(f"{self.name}_schematic")
        circuit.ports = [n for n in self.port_nets()]
        for t in self.templates():
            card = self.tech.card(t.polarity)
            fins = self.base_fins * t.m_ratio
            cj_shared = card.cj_per_fin * fins * card.cj_shared_factor
            circuit.add_mosfet(
                t.name,
                d=t.terminals["d"],
                g=t.terminals["g"],
                s=t.terminals["s"],
                b=t.terminals.get("b", "0"),
                card=card,
                geometry=MosGeometry(self.base_fins, 1, t.m_ratio),
                cdb_override=cj_shared,
                csb_override=cj_shared,
            )
        return circuit

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, dut: Circuit) -> tuple[dict[str, float], int]:
        """Run every metric testbench against a DUT netlist.

        :meth:`evaluate_many` on a one-member stack, its captured
        failure re-raised, plus the ``BAD-METRIC`` fault hook.  Returns
        the metric values and the number of simulations used.
        """
        (outcome,) = self.evaluate_many([dut])
        if isinstance(outcome, Exception):
            raise outcome
        values, sims = outcome
        injector = faults.active()
        if injector is not None:
            values = injector.poison_metrics(values)
        return values, sims

    def evaluate_many(self, duts: list[Circuit]) -> list:
        """Run every metric testbench against many DUT netlists at once.

        Each metric's evaluator measures every still-live member in one
        stack (:mod:`repro.runtime.batched` calls this on the stacked
        sweep engine's members).  Returns one entry per DUT —
        ``(values, n_sims)``, or the exception that ended the member's
        evaluation (its later metrics are not measured).

        It skips the ``BAD-METRIC`` hook: the stacked engine calls it
        with fault injection suspended, after screening off every
        evaluation an injected fault would hit (those run
        :meth:`evaluate` at consumption).
        """
        values: list[dict[str, float]] = [{} for _ in duts]
        sims = [0] * len(duts)
        caches: list[dict] = [{} for _ in duts]
        failures: list[Exception | None] = [None] * len(duts)
        for metric in self.metrics():
            live = [i for i, failure in enumerate(failures) if failure is None]
            if not live:
                break
            outcomes = metric.evaluate(
                self, [duts[i] for i in live], [caches[i] for i in live]
            )
            for i, outcome in zip(live, outcomes):
                if isinstance(outcome, Exception):
                    failures[i] = outcome
                else:
                    values[i][metric.name] = outcome[0]
                    sims[i] += outcome[1]
        return [
            (values[i], sims[i]) if failure is None else failure
            for i, failure in enumerate(failures)
        ]

    def schematic_reference(self) -> dict[str, float]:
        """Metric values of the schematic netlist (cached).

        A non-finite reference would silently poison every cost computed
        against it, so it is rejected (and *not* cached) instead.
        """
        if self._schematic_reference is None:
            values, sims = self.evaluate(self.schematic_circuit())
            bad = sorted(
                name
                for name, value in values.items()
                if not math.isfinite(value)
            )
            if bad:
                raise MeasureError(
                    f"{self.name}: non-finite schematic reference for "
                    f"{', '.join(bad)}"
                )
            self._schematic_reference, self._reference_sims = values, sims
        return self._schematic_reference

    def set_schematic_reference(
        self, values: dict[str, float], simulations: int = 0
    ) -> None:
        """Install a precomputed schematic reference (checkpoint resume)."""
        self._schematic_reference = dict(values)
        self._reference_sims = simulations

    def metric(self, name: str) -> MetricSpec:
        """Look up a metric by name."""
        for metric in self.metrics():
            if metric.name == name:
                return metric
        raise OptimizationError(f"{self.name}: no metric named {name!r}")

    def random_offset_sigma(self) -> float:
        """1-sigma random input-referred offset of the matched pair (V).

        Used as the reference for offset specs (the paper sets the spec
        to 10% of the random offset).
        """
        sigma_dev = self.tech.nmos.sigma_vth_fin / (self.base_fins**0.5)
        return float(2.0**0.5) * sigma_dev


@dataclass(frozen=True)
class DeviceTemplate:
    """One device slot in a primitive topology.

    Attributes:
        name: Device name.
        polarity: ``"n"`` or ``"p"``.
        terminals: Terminal → net mapping (nets starting with ``int_``
            are internal and never become ports).
        m_ratio: Multiplicity relative to the unit device (ratioed
            mirrors use >1).
        matched: Whether the device belongs to the matched (patterned)
            group.
    """

    name: str
    polarity: str
    terminals: dict[str, str]
    m_ratio: int = 1
    matched: bool = True
