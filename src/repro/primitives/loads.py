"""Load primitives: current sources and diode-connected structures.

Table II row *CURRENT SOURCE*: output current (α=1) and ``r_o`` (α=0.5),
tuning terminals at the source/drain RC.  Diode-connected loads use their
small-signal conductance (1/gm) and output capacitance.
"""

from __future__ import annotations

from repro.primitives.base import (
    DeviceTemplate,
    MetricSpec,
    MosPrimitive,
    TuningTerminal,
    WEIGHT_HIGH,
    WEIGHT_MEDIUM,
)
from repro.primitives import testbenches as tbh
from repro.spice.elements import VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.waveforms import Dc
from repro.tech.pdk import Technology


class CurrentSourceLoad(MosPrimitive):
    """NMOS current source (gate at an external bias port).

    Args:
        tech: Technology node.
        base_fins: Device fins.
        i_target: Target output current (A); the gate bias is solved on
            the schematic (default 0.6 uA per fin).
        v_bias: Explicit gate bias (V); overrides ``i_target``.
        vout: Output drain bias (V).
    """

    family = "current_source"
    polarity = "n"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 480,
        name: str | None = None,
        i_target: float | None = None,
        v_bias: float | None = None,
        vout: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        self.i_target = i_target if i_target is not None else 0.6e-6 * base_fins
        self.vout = vout if vout is not None else 0.6 * tech.vdd
        self._v_bias = v_bias

    @property
    def v_bias(self) -> float:
        """Gate bias; solved lazily on the schematic for ``i_target``."""
        if self._v_bias is None:
            schematic = self.schematic_circuit()

            def build(v: float):
                tb = Circuit("bias_solve")
                tbh.attach_dut(tb, schematic)
                tb.add_vsource("vbias", "vb", "0", v)
                tb.add_vsource("vout", "out", "0", self.vout)
                if "vdd!" in schematic.ports:
                    tb.add_vsource("vdd", "vdd!", "0", self.tech.vdd)
                if "vc" in schematic.ports:
                    tb.add_vsource("vcas", "vc", "0", getattr(self, "v_cascode", 0.0))
                return tb

            self._v_bias = tbh.solve_gate_bias(
                self.tech, build, lambda op: abs(op.i("vout")), self.i_target
            )
        return self._v_bias

    def templates(self) -> list[DeviceTemplate]:
        return [DeviceTemplate("M1", self.polarity, {"d": "out", "g": "vb", "s": "0"})]

    def metrics(self) -> list[MetricSpec]:
        return [
            tbh.dc_metric(
                "current", WEIGHT_HIGH, _bias_testbench, self.measured_current
            ),
            tbh.ac_metric(
                "rout", WEIGHT_MEDIUM, _probe_testbench, tbh.port_resistance("vout")
            ),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("0",)),
            TuningTerminal("drain", nets=("out",)),
        ]

    def bias_testbench(self, dut: Circuit) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vbias", "vb", "0", self.v_bias)
        tb.add_vsource("vout", "out", "0", self.vout)
        return tb

    def measured_current(self, op) -> float:
        return abs(op.i("vout"))


class PmosCurrentSource(CurrentSourceLoad):
    """PMOS current source sourcing from VDD."""

    family = "pmos_current_source"
    polarity = "p"

    def __init__(self, tech: Technology, base_fins: int = 480, **kwargs):
        kwargs.setdefault("vout", 0.4 * tech.vdd)
        super().__init__(tech, base_fins, **kwargs)

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate(
                "M1", "p", {"d": "out", "g": "vb", "s": "vdd!", "b": "vdd!"}
            )
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("vdd!",)),
            TuningTerminal("drain", nets=("out",)),
        ]

    def bias_testbench(self, dut: Circuit) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vdd", "vdd!", "0", self.tech.vdd)
        tb.add_vsource("vbias", "vb", "0", self.v_bias)
        tb.add_vsource("vout", "out", "0", self.vout)
        return tb


class CascodeCurrentSource(CurrentSourceLoad):
    """Cascoded NMOS current source (two stacked devices)."""

    family = "cascode_current_source"

    def __init__(self, tech: Technology, base_fins: int = 480, **kwargs):
        kwargs.setdefault("vout", 0.75 * tech.vdd)
        super().__init__(tech, base_fins, **kwargs)
        self.v_cascode = 0.85 * tech.vdd

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("M1", "n", {"d": "int_c", "g": "vb", "s": "0"}),
            DeviceTemplate("MC", "n", {"d": "out", "g": "vc", "s": "int_c"}),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("0",)),
            TuningTerminal("cascode", nets=("int_c",), correlated_with=("drain",)),
            TuningTerminal("drain", nets=("out",), correlated_with=("cascode",)),
        ]

    def bias_testbench(self, dut: Circuit) -> Circuit:
        tb = super().bias_testbench(dut)
        tb.add_vsource("vcas", "vc", "0", self.v_cascode)
        return tb


class DiodeLoad(MosPrimitive):
    """Diode-connected NMOS load; metrics 1/gm impedance and C_out."""

    family = "diode_load"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 240,
        name: str | None = None,
        i_bias: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        self.i_bias = i_bias if i_bias is not None else 0.6e-6 * base_fins

    def templates(self) -> list[DeviceTemplate]:
        return [DeviceTemplate("M1", "n", {"d": "out", "g": "out", "s": "0"})]

    def metrics(self) -> list[MetricSpec]:
        return [
            tbh.ac_metric(
                "impedance", WEIGHT_HIGH, _diode_ac_testbench, tbh.node_voltage("out")
            ),
            tbh.ac_metric(
                "cout",
                WEIGHT_MEDIUM,
                _diode_ac_testbench,
                _diode_capacitance,
                larger_is_better=False,
            ),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("0",)),
            TuningTerminal("drain", nets=("out",)),
        ]

    def bias_testbench(self, dut: Circuit, ac: float = 0.0) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_isource("ibias", "0", "out", self.i_bias, ac_magnitude=ac)
        return tb


class CascodeDiodeLoad(DiodeLoad):
    """Cascoded diode-connected load (two stacked diode devices)."""

    family = "cascode_diode_load"

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("M1", "n", {"d": "int_m", "g": "int_m", "s": "0"}),
            DeviceTemplate("MC", "n", {"d": "out", "g": "out", "s": "int_m"}),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("0",)),
            TuningTerminal("cascode", nets=("int_m",)),
            TuningTerminal("drain", nets=("out",)),
        ]


# --- metric testbenches and readers ------------------------------------


def _bias_testbench(prim: CurrentSourceLoad, dut: Circuit) -> Circuit:
    return prim.bias_testbench(dut)


def _probe_testbench(prim: CurrentSourceLoad, dut: Circuit) -> Circuit:
    tb = prim.bias_testbench(dut)
    tb.replace_element(
        "vout", VoltageSource("vout", "out", "0", Dc(prim.vout), ac_magnitude=1.0)
    )
    return tb


def _diode_ac_testbench(prim: DiodeLoad, dut: Circuit) -> Circuit:
    return prim.bias_testbench(dut, ac=1.0)


def _diode_capacitance(op, ac) -> float:
    # C from the roll-off of the diode impedance: Y = I/V with I = 1A AC.
    return tbh.capacitance_at_probe(ac.freqs, 1.0 / ac.v("out"))
