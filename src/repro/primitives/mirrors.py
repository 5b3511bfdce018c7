"""Current-mirror primitives.

Table II row *CURRENT MIRROR*: output current (α=1) and output
capacitance (α=0.1 for the passive mirror; the active mirror used as an
amplifier load weights C_out at 0.5, per Section II-B).  Tuning terminals
are the source/drain RC.

Mirrors are where LDEs bite hardest (the paper cites [10]): the current
ratio depends on Vth matching between reference and output devices, so
pattern choice and aspect ratio shift the ratio directly.
"""

from __future__ import annotations

from repro.primitives.base import (
    DeviceTemplate,
    MetricSpec,
    MosPrimitive,
    TuningTerminal,
    WEIGHT_HIGH,
    WEIGHT_LOW,
    WEIGHT_MEDIUM,
)
from repro.primitives import testbenches as tbh
from repro.spice.elements import VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.waveforms import Dc
from repro.tech.pdk import Technology


class PassiveCurrentMirror(MosPrimitive):
    """NMOS passive current mirror, 1:ratio.

    Args:
        tech: Technology node.
        base_fins: Fins of the reference device.
        ratio: Output/reference current ratio (integer).
        i_ref: Reference current (A); default 0.6 uA per fin.
        vout: Output drain bias (V).
    """

    family = "current_mirror"
    polarity = "n"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 240,
        ratio: int = 1,
        name: str | None = None,
        i_ref: float | None = None,
        vout: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        if ratio < 1:
            raise ValueError("mirror ratio must be >= 1")
        self.ratio = ratio
        self.i_ref = i_ref if i_ref is not None else 0.6e-6 * base_fins
        self.vout = vout if vout is not None else 0.6 * tech.vdd

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("MREF", self.polarity, {"d": "in", "g": "in", "s": "0"}),
            DeviceTemplate(
                "MOUT",
                self.polarity,
                {"d": "out", "g": "in", "s": "0"},
                m_ratio=self.ratio,
            ),
        ]

    def metrics(self) -> list[MetricSpec]:
        return [_ratio_metric(self), _cout_metric(WEIGHT_LOW)]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("0",)),
            TuningTerminal("drain", nets=("out",)),
        ]

    # -- testbenches -------------------------------------------------------

    def bias_testbench(self, dut: Circuit) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_isource("iin", "0", "in", self.i_ref)
        tb.add_vsource("vout", "out", "0", self.vout)
        return tb

    def cout_testbench(self, dut: Circuit) -> Circuit:
        tb = self.bias_testbench(dut)
        tb.replace_element(
            "vout", VoltageSource("vout", "out", "0", Dc(self.vout), ac_magnitude=1.0)
        )
        return tb

    def measured_ratio(self, op) -> float:
        """Output/reference current ratio from an operating point."""
        return -op.i("vout") / self.i_ref


class PmosCurrentMirror(PassiveCurrentMirror):
    """PMOS passive mirror (sources at VDD)."""

    family = "pmos_current_mirror"
    polarity = "p"

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate(
                "MREF", "p", {"d": "in", "g": "in", "s": "vdd!", "b": "vdd!"}
            ),
            DeviceTemplate(
                "MOUT",
                "p",
                {"d": "out", "g": "in", "s": "vdd!", "b": "vdd!"},
                m_ratio=self.ratio,
            ),
        ]

    def __init__(self, tech: Technology, base_fins: int = 240, ratio: int = 1, **kw):
        kw.setdefault("vout", 0.4 * tech.vdd)
        super().__init__(tech, base_fins, ratio, **kw)

    def bias_testbench(self, dut: Circuit) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vdd", "vdd!", "0", self.tech.vdd)
        tb.add_isource("iin", "in", "0", self.i_ref)
        tb.add_vsource("vout", "out", "0", self.vout)
        return tb

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("vdd!",)),
            TuningTerminal("drain", nets=("out",)),
        ]

    def measured_ratio(self, op) -> float:
        return op.i("vout") / self.i_ref


class ActiveCurrentMirror(PmosCurrentMirror):
    """Active (load) PMOS mirror; C_out weighted medium (amplifier load)."""

    family = "active_current_mirror"

    def metrics(self) -> list[MetricSpec]:
        return [_ratio_metric(self), _cout_metric(WEIGHT_MEDIUM)]


class CascodeCurrentMirror(PassiveCurrentMirror):
    """NMOS cascode mirror: diode stack mirrored onto a cascoded output."""

    family = "cascode_current_mirror"

    def __init__(self, tech: Technology, base_fins: int = 240, ratio: int = 1, **kw):
        kw.setdefault("vout", 0.75 * tech.vdd)
        super().__init__(tech, base_fins, ratio, **kw)

    def templates(self) -> list[DeviceTemplate]:
        r = self.ratio
        return [
            DeviceTemplate("MREF", "n", {"d": "int_a", "g": "int_a", "s": "0"}),
            DeviceTemplate("MCREF", "n", {"d": "in", "g": "in", "s": "int_a"}),
            DeviceTemplate(
                "MOUT", "n", {"d": "int_b", "g": "int_a", "s": "0"}, m_ratio=r
            ),
            DeviceTemplate(
                "MCOUT", "n", {"d": "out", "g": "in", "s": "int_b"}, m_ratio=r
            ),
        ]

    def metrics(self) -> list[MetricSpec]:
        return [
            _ratio_metric(self),
            tbh.ac_metric(
                "rout", WEIGHT_MEDIUM, _cout_testbench, tbh.port_resistance("vout")
            ),
            _cout_metric(WEIGHT_LOW),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("0",)),
            TuningTerminal(
                "cascode", nets=("int_a", "int_b"), correlated_with=("drain",)
            ),
            TuningTerminal("drain", nets=("out",), correlated_with=("cascode",)),
        ]


class LowVoltageCascodeMirror(CascodeCurrentMirror):
    """Wide-swing (low-voltage) cascode mirror with an external Vbias."""

    family = "lv_cascode_current_mirror"

    def __init__(self, tech: Technology, base_fins: int = 240, ratio: int = 1, **kw):
        super().__init__(tech, base_fins, ratio, **kw)
        self.v_bias = 0.75 * tech.vdd

    def templates(self) -> list[DeviceTemplate]:
        r = self.ratio
        return [
            DeviceTemplate("MREF", "n", {"d": "int_a", "g": "in", "s": "0"}),
            DeviceTemplate("MCREF", "n", {"d": "in", "g": "vb", "s": "int_a"}),
            DeviceTemplate(
                "MOUT", "n", {"d": "int_b", "g": "in", "s": "0"}, m_ratio=r
            ),
            DeviceTemplate(
                "MCOUT", "n", {"d": "out", "g": "vb", "s": "int_b"}, m_ratio=r
            ),
        ]

    def bias_testbench(self, dut: Circuit) -> Circuit:
        tb = super().bias_testbench(dut)
        tb.add_vsource("vbias", "vb", "0", self.v_bias)
        return tb


# --- metric testbenches --------------------------------------------------


def _bias_testbench(prim: PassiveCurrentMirror, dut: Circuit) -> Circuit:
    return prim.bias_testbench(dut)


def _cout_testbench(prim: PassiveCurrentMirror, dut: Circuit) -> Circuit:
    return prim.cout_testbench(dut)


def _ratio_metric(prim: PassiveCurrentMirror) -> MetricSpec:
    return tbh.dc_metric(
        "current_ratio", WEIGHT_HIGH, _bias_testbench, prim.measured_ratio
    )


def _cout_metric(weight: float) -> MetricSpec:
    return tbh.ac_metric(
        "cout",
        weight,
        _cout_testbench,
        tbh.port_capacitance("vout"),
        larger_is_better=False,
    )
