"""The testbench abstraction used by primitive metric evaluation.

A :class:`Testbench` owns a fully-stimulated circuit (device under test
plus excitations, bias sources and loads) and a set of named *measures*,
each a callable that extracts one number from the analysis results.  This
mirrors the paper's "primitive testbench ... a SPICE file that contains
excitation and measure statements required to compute the metric".

Testbenches are deliberately small: the circuit is compiled once and the
requested analyses (op / ac / tran) run lazily and are cached, so several
measures can share one simulation — the reason the paper's per-primitive
evaluation costs seconds, and ours milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.spice.ac import AcResult, ac_analysis
from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.mna import CompiledCircuit
from repro.spice.netlist import Circuit
from repro.spice.tran import TranResult, transient
from repro.tech.rules import DesignRules


@dataclass
class AcSpec:
    """Parameters of the testbench's AC sweep."""

    f_start: float = 1.0e4
    f_stop: float = 1.0e11
    points_per_decade: int = 10


@dataclass
class TranSpec:
    """Parameters of the testbench's transient run."""

    t_stop: float
    dt: float
    ics: dict[str, float] = field(default_factory=dict)


class Testbench:
    """A circuit plus named measurements.

    Args:
        circuit: The stimulated circuit.
        rules: Design rules for MOSFET parameter resolution.
        ac_spec: AC sweep parameters, if any measure needs AC data.
        tran_spec: Transient parameters, if any measure needs a transient.

    Measures are registered with :meth:`add_measure`; each receives this
    testbench and must return a float.  Analyses run lazily through
    :attr:`op`, :attr:`ac` and :attr:`tran` and are cached.
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        circuit: Circuit,
        rules: DesignRules,
        ac_spec: AcSpec | None = None,
        tran_spec: TranSpec | None = None,
    ):
        self.circuit = circuit
        self.rules = rules
        self.ac_spec = ac_spec or AcSpec()
        self.tran_spec = tran_spec
        self._compiled: CompiledCircuit | None = None
        self._op: OperatingPoint | None = None
        self._ac: AcResult | None = None
        self._tran: TranResult | None = None
        self._measures: dict[str, Callable[["Testbench"], float]] = {}
        self.simulation_count = 0

    @property
    def compiled(self) -> CompiledCircuit:
        """The compiled circuit (built on first use)."""
        if self._compiled is None:
            self._compiled = CompiledCircuit(self.circuit, self.rules)
        return self._compiled

    @property
    def op(self) -> OperatingPoint:
        """DC operating point (computed on first use)."""
        if self._op is None:
            self._op = dc_operating_point(self.compiled)
            self.simulation_count += 1
        return self._op

    @property
    def ac(self) -> AcResult:
        """AC sweep result (computed on first use)."""
        if self._ac is None:
            spec = self.ac_spec
            self._ac = ac_analysis(
                self.compiled,
                self.op,
                f_start=spec.f_start,
                f_stop=spec.f_stop,
                points_per_decade=spec.points_per_decade,
            )
            self.simulation_count += 1
        return self._ac

    @property
    def tran(self) -> TranResult:
        """Transient result (computed on first use)."""
        if self._tran is None:
            if self.tran_spec is None:
                raise SimulationError(
                    "testbench has no transient spec but a measure needs one"
                )
            spec = self.tran_spec
            op = dc_operating_point(self.compiled, force=spec.ics or None)
            self._tran = transient(
                self.compiled, t_stop=spec.t_stop, dt=spec.dt, op=op
            )
            self.simulation_count += 1
        return self._tran

    def add_measure(self, name: str, fn: Callable[["Testbench"], float]) -> None:
        """Register a named measurement extractor."""
        if name in self._measures:
            raise SimulationError(f"duplicate measure {name!r}")
        self._measures[name] = fn

    def run(self) -> dict[str, float]:
        """Evaluate every registered measure, sharing cached analyses."""
        return {name: fn(self) for name, fn in self._measures.items()}

    def invalidate(self) -> None:
        """Drop cached analyses (after the circuit has been modified)."""
        self._compiled = None
        self._op = None
        self._ac = None
        self._tran = None
