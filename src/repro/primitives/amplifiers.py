"""Single-transistor amplifier primitives.

Table II row *COMMON-SOURCE AMPLIFIER*: ``Gm`` (α=1) and ``r_o`` (α=0.5),
tuning terminals at the source/drain RC.  Common-gate and common-drain
variants complete the paper's amplifier family.
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


class CommonSourceAmplifier(MosPrimitive):
    """NMOS common-source stage (the paper's Fig. 2 M1).

    Args:
        tech: Technology node.
        base_fins: Device fins.
        i_target: Drain bias current (A); the gate bias is solved on the
            schematic so the device carries this current (mimicking bias
            conditions handed down from the circuit-level schematic
            simulation).  Default 0.6 uA per fin.
        vin: Explicit gate bias (V); overrides ``i_target`` if given.
        vout: Drain bias (V).
    """

    family = "common_source_amplifier"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 480,
        name: str | None = None,
        i_target: float | None = None,
        vin: float | None = None,
        vout: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        self.i_target = i_target if i_target is not None else 0.6e-6 * base_fins
        self.vout = vout if vout is not None else 0.6 * tech.vdd
        self._vin = vin

    @property
    def vin(self) -> float:
        """Gate bias; solved lazily on the schematic for ``i_target``."""
        if self._vin is None:
            schematic = self.schematic_circuit()

            def build(v: float):
                tb = Circuit("bias_solve")
                tbh.attach_dut(tb, schematic)
                tb.add_vsource("vin", "in", "0", v)
                tb.add_vsource("vout", "out", "0", self.vout)
                return tb

            self._vin = tbh.solve_gate_bias(
                self.tech, build, lambda op: abs(op.i("vout")), self.i_target
            )
        return self._vin

    def templates(self) -> list[DeviceTemplate]:
        return [DeviceTemplate("M1", "n", {"d": "out", "g": "in", "s": "0"})]

    def metrics(self) -> list[MetricSpec]:
        return [
            tbh.ac_metric(
                "gm", WEIGHT_HIGH, _ac_in_testbench, tbh.transfer_current(["vout"], [1.0])
            ),
            tbh.ac_metric(
                "rout", WEIGHT_MEDIUM, _rout_testbench, tbh.port_resistance("vout")
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
        tb.add_vsource("vin", "in", "0", self.vin)
        tb.add_vsource("vout", "out", "0", self.vout)
        return tb


class CommonGateAmplifier(CommonSourceAmplifier):
    """NMOS common-gate stage: signal into the source, gate AC-grounded."""

    family = "common_gate_amplifier"

    def __init__(self, tech: Technology, base_fins: int = 480, **kwargs):
        kwargs.setdefault("vin", 0.1 * tech.vdd)
        kwargs.setdefault("vout", 0.7 * tech.vdd)
        super().__init__(tech, base_fins, **kwargs)
        self._v_gate: float | None = None

    @property
    def v_gate(self) -> float:
        """Gate bias; solved lazily on the schematic for ``i_target``."""
        if self._v_gate is None:
            schematic = self.schematic_circuit()

            def build(v: float):
                tb = Circuit("bias_solve")
                tbh.attach_dut(tb, schematic)
                tb.add_vsource("vgate", "vg", "0", v)
                tb.add_vsource("vin", "in", "0", self.vin)
                tb.add_vsource("vout", "out", "0", self.vout)
                return tb

            self._v_gate = tbh.solve_gate_bias(
                self.tech,
                build,
                lambda op: abs(op.i("vout")),
                self.i_target,
                lo=self.vin,
                hi=self.tech.vdd + self.vin,
            )
        return self._v_gate

    def templates(self) -> list[DeviceTemplate]:
        return [DeviceTemplate("M1", "n", {"d": "out", "g": "vg", "s": "in"})]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("in",)),
            TuningTerminal("drain", nets=("out",)),
        ]

    def bias_testbench(self, dut: Circuit) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vgate", "vg", "0", self.v_gate)
        tb.add_vsource("vin", "in", "0", self.vin)
        tb.add_vsource("vout", "out", "0", self.vout)
        return tb


class CommonDrainAmplifier(MosPrimitive):
    """NMOS source follower; metrics are voltage gain and output R."""

    family = "common_drain_amplifier"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 480,
        name: str | None = None,
        vin: float | None = None,
        i_bias: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        self.vin = vin if vin is not None else 0.85 * tech.vdd
        self.i_bias = i_bias if i_bias is not None else 0.5e-6 * base_fins

    def templates(self) -> list[DeviceTemplate]:
        return [DeviceTemplate("M1", "n", {"d": "vdd!", "g": "in", "s": "out"})]

    def metrics(self) -> list[MetricSpec]:
        return [
            tbh.ac_metric(
                "gain", WEIGHT_HIGH, _ac_in_testbench, tbh.node_voltage("out")
            ),
            # Probed with an AC current, so the output voltage is R_out.
            tbh.ac_metric(
                "rout", WEIGHT_MEDIUM, _follower_rout_testbench, tbh.node_voltage("out")
            ),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [TuningTerminal("source", nets=("out",))]

    def bias_testbench(self, dut: Circuit) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vdd", "vdd!", "0", self.tech.vdd)
        tb.add_vsource("vin", "in", "0", self.vin)
        tb.add_isource("ibias", "out", "0", self.i_bias)
        return tb


# --- metric testbenches --------------------------------------------------


def _ac_in_testbench(prim, dut: Circuit) -> Circuit:
    """Bias testbench with the AC stimulus on the ``in`` source."""
    tb = prim.bias_testbench(dut)
    tb.replace_element(
        "vin", VoltageSource("vin", "in", "0", Dc(prim.vin), ac_magnitude=1.0)
    )
    return tb


def _rout_testbench(prim: CommonSourceAmplifier, dut: Circuit) -> Circuit:
    tb = prim.bias_testbench(dut)
    tb.replace_element(
        "vout", VoltageSource("vout", "out", "0", Dc(prim.vout), ac_magnitude=1.0)
    )
    return tb


def _follower_rout_testbench(prim: CommonDrainAmplifier, dut: Circuit) -> Circuit:
    tb = prim.bias_testbench(dut)
    tb.add_isource("iprobe", "out", "0", 0.0, ac_magnitude=1.0)
    return tb
