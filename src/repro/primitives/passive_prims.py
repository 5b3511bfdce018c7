"""Passive primitives: MOM capacitor, poly resistor, spiral inductor.

Table II row *CAPACITOR*: capacitance (α=1) and frequency (α=0.1), tuning
the RC at the terminals.  Passive layout variants trade aspect ratio
(finger count / segment folding) against terminal resistance and
parasitic capacitance; the models come from :mod:`repro.devices.passives`.

These classes implement the same ``metrics()`` / ``evaluate()`` /
``schematic_reference()`` interface as :class:`~repro.primitives.base.
MosPrimitive`, whose metric evaluation they share, so the cost machinery
applies unchanged; layout variants are value-preserving re-foldings
rather than (nfin, nf, m) factorizations.  Every metric reads one
impedance probe: an AC source at port ``a`` with ``b`` grounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.devices.passives import MomCapacitor, PolyResistor, SpiralInductor
from repro.errors import OptimizationError
from repro.primitives.base import (
    MetricSpec,
    MosPrimitive,
    WEIGHT_HIGH,
    WEIGHT_LOW,
    WEIGHT_MEDIUM,
)
from repro.primitives import testbenches as tbh
from repro.spice.netlist import Circuit
from repro.tech.pdk import Technology


@dataclass(frozen=True)
class PassiveVariant:
    """One folding of a passive into a layout.

    Attributes:
        segments: Number of fingers/segments.
        aspect_ratio: Resulting bounding-box aspect ratio (width/height).
    """

    segments: int
    aspect_ratio: float


class _PassivePrimitive:
    """Shared machinery for the passive primitives."""

    family = "passive"

    def __init__(self, tech: Technology, name: str):
        self.tech = tech
        self.name = name
        self._schematic_reference: dict[str, float] | None = None

    def variants(self) -> list[PassiveVariant]:
        """Folding options; squarer foldings have more contact parasitics."""
        return [
            PassiveVariant(segments=n, aspect_ratio=n * n / 16.0)
            for n in (1, 2, 4, 8)
        ]

    def metrics(self) -> list[MetricSpec]:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    evaluate = MosPrimitive.evaluate
    evaluate_many = MosPrimitive.evaluate_many

    def schematic_reference(self) -> dict[str, float]:
        if self._schematic_reference is None:
            self._schematic_reference, _ = self.evaluate(self.schematic_circuit())
        return self._schematic_reference

    def schematic_circuit(self) -> Circuit:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def layout_circuit(self, variant: PassiveVariant) -> Circuit:
        raise NotImplementedError


class MomCapacitorPrimitive(_PassivePrimitive):
    """Metal-oxide-metal finger capacitor primitive."""

    family = "capacitor"

    def __init__(self, tech: Technology, value: float = 100.0e-15, name: str = "momcap"):
        super().__init__(tech, name)
        if value <= 0:
            raise OptimizationError("capacitor value must be > 0")
        self.value = value

    def metrics(self) -> list[MetricSpec]:
        return [
            _probe_metric("capacitance", WEIGHT_HIGH, tbh.port_capacitance("va")),
            _probe_metric("frequency", WEIGHT_LOW, _read_corner_frequency),
        ]

    def schematic_circuit(self) -> Circuit:
        circuit = Circuit(f"{self.name}_schematic")
        circuit.ports = ["a", "b"]
        circuit.add_capacitor("c1", "a", "b", self.value)
        return circuit

    def layout_circuit(self, variant: PassiveVariant) -> Circuit:
        # More segments -> shorter fingers -> lower series R, but more
        # bottom-plate parasitic from the extra routing.
        model = MomCapacitor(
            value=self.value,
            q_factor=50.0 * variant.segments,
            bottom_plate_ratio=0.04 + 0.01 * variant.segments,
        )
        circuit = Circuit(f"{self.name}_seg{variant.segments}")
        circuit.ports = ["a", "b"]
        circuit.add_resistor("resr", "a", "a_i", max(model.series_resistance, 1e-3))
        circuit.add_capacitor("c1", "a_i", "b", self.value)
        circuit.add_capacitor("cbp", "b", "0", model.bottom_plate_capacitance)
        return circuit


class PolyResistorPrimitive(_PassivePrimitive):
    """Folded precision poly resistor primitive."""

    family = "resistor"

    def __init__(self, tech: Technology, value: float = 10.0e3, name: str = "polyres"):
        super().__init__(tech, name)
        if value <= 0:
            raise OptimizationError("resistor value must be > 0")
        self.value = value

    def metrics(self) -> list[MetricSpec]:
        return [
            _probe_metric("resistance", WEIGHT_HIGH, _read_resistance),
            _probe_metric(
                "parasitic_c", WEIGHT_LOW, _read_shunt_cap, larger_is_better=False
            ),
        ]

    def schematic_circuit(self) -> Circuit:
        circuit = Circuit(f"{self.name}_schematic")
        circuit.ports = ["a", "b"]
        circuit.add_resistor("r1", "a", "b", self.value)
        return circuit

    def layout_circuit(self, variant: PassiveVariant) -> Circuit:
        model = PolyResistor(value=self.value, segments=variant.segments)
        circuit = Circuit(f"{self.name}_seg{variant.segments}")
        circuit.ports = ["a", "b"]
        circuit.add_resistor("r1", "a", "b", model.effective_resistance)
        circuit.add_capacitor("cp", "b", "0", model.parasitic_capacitance)
        return circuit


class SpiralInductorPrimitive(_PassivePrimitive):
    """Planar spiral inductor primitive (L and Q metrics)."""

    family = "inductor"

    def __init__(self, tech: Technology, value: float = 1.0e-9, name: str = "spiral"):
        super().__init__(tech, name)
        if value <= 0:
            raise OptimizationError("inductor value must be > 0")
        self.value = value

    def metrics(self) -> list[MetricSpec]:
        return [
            _probe_metric("inductance", WEIGHT_HIGH, _read_inductance),
            _probe_metric("q_factor", WEIGHT_MEDIUM, _read_q_factor),
        ]

    def schematic_circuit(self) -> Circuit:
        circuit = Circuit(f"{self.name}_schematic")
        circuit.ports = ["a", "b"]
        circuit.add_inductor("l1", "a", "b", self.value)
        # A tiny series R keeps Q finite for the schematic reference.
        return circuit

    def layout_circuit(self, variant: PassiveVariant) -> Circuit:
        model = SpiralInductor(value=self.value, q_factor=8.0 + variant.segments)
        circuit = Circuit(f"{self.name}_seg{variant.segments}")
        circuit.ports = ["a", "b"]
        circuit.add_inductor("l1", "a", "a_i", self.value)
        circuit.add_resistor("rs", "a_i", "b", model.series_resistance)
        circuit.add_capacitor("cs", "a", "0", model.shunt_capacitance)
        return circuit


# --- metric testbench and readers ------------------------------------------


def _impedance_probe(prim, dut: Circuit) -> Circuit:
    """AC source at ``a`` with node ``b`` grounded."""
    tb = Circuit(f"{prim.name}_probe")
    tbh.attach_dut(tb, dut)
    tb.add_vsource("va", "a", "0", 0.0, ac_magnitude=1.0)
    tb.add_resistor("rterm", "b", "0", 1e-3)
    return tb


def _probe_metric(name: str, weight: float, read, **spec) -> MetricSpec:
    """A metric read off the impedance probe's AC sweep."""
    return tbh.ac_metric(name, weight, _impedance_probe, read, **spec)


def _capacitance(ac, probe: float) -> float:
    """``|Im(Y)|/w`` at the sweep point closest to ``probe`` (Hz)."""
    y = -ac.i("va")
    k = tbh.freq_index(ac.freqs, probe)
    return abs(float(np.imag(y[k]))) / (2.0 * math.pi * float(ac.freqs[k]))


def _read_corner_frequency(op, ac) -> float:
    # Corner where the series R starts to matter: f = 1/(2 pi R C).
    y = -ac.i("va")
    r_series = max(float(np.real(1.0 / y[len(ac.freqs) - 1])), 1e-3)
    c = _capacitance(ac, 1.0e8)
    return 1.0 / (2.0 * math.pi * r_series * max(c, 1e-18))


def _read_resistance(op, ac) -> float:
    return float(np.real(1.0 / -ac.i("va")[0]))


def _read_shunt_cap(op, ac) -> float:
    # Residual reactive part referred to the port.
    return _capacitance(ac, 1.0e9)


def _impedance(ac, probe: float) -> tuple[complex, float]:
    """Port impedance at the sweep point closest to ``probe`` (Hz), and
    that point's frequency."""
    k = tbh.freq_index(ac.freqs, probe)
    return 1.0 / -ac.i("va")[k], float(ac.freqs[k])


def _read_inductance(op, ac) -> float:
    z, freq = _impedance(ac, 1.0e9)
    return float(np.imag(z)) / (2.0 * math.pi * freq)


def _read_q_factor(op, ac) -> float:
    z, _ = _impedance(ac, 5.0e9)
    real = max(abs(float(np.real(z))), 1e-6)
    return abs(float(np.imag(z))) / real
