"""Digital-like analog primitives.

Table II row *CURRENT-STARVED INVERTER*: delay (α=1), current (α=1) and
gain (α=0.5), tuning terminals at the source/drain RC.  Cross-coupled
pairs/inverters and switches complete the family (paper Section II-A).
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
from repro.spice import measure
from repro.spice.elements import VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.waveforms import Dc
from repro.tech.pdk import Technology


class CurrentStarvedInverter(MosPrimitive):
    """Current-starved inverter: inverter pair plus starving devices.

    The VCO's unit cell.  The starve gates are external ports (``vbp``,
    ``vbn``) so a control voltage can modulate the delay.

    Args:
        tech: Technology node.
        base_fins: Fins of each device.
        v_ctrl: Starve bias magnitude relative to the rails (V); higher
            means more current and less starving.
        c_load: External load capacitance at the output (F).
    """

    family = "current_starved_inverter"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 48,
        name: str | None = None,
        v_ctrl: float | None = None,
        c_load: float = 2.0e-15,
    ):
        super().__init__(tech, base_fins, name)
        self.v_ctrl = v_ctrl if v_ctrl is not None else 0.7 * tech.vdd
        self.c_load = c_load

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("MP", "p", {"d": "out", "g": "in", "s": "int_sp", "b": "vdd!"}),
            DeviceTemplate("MN", "n", {"d": "out", "g": "in", "s": "int_sn"}),
            DeviceTemplate(
                "MPS", "p", {"d": "int_sp", "g": "vbp", "s": "vdd!", "b": "vdd!"}
            ),
            DeviceTemplate("MNS", "n", {"d": "int_sn", "g": "vbn", "s": "0"}),
        ]

    def metrics(self) -> list[MetricSpec]:
        return [
            tbh.tran_metric(
                "delay",
                WEIGHT_HIGH,
                _delay_testbench,
                _delay("in", "out"),
                t_stop=1.2e-9,
                dt=1.0e-12,
                larger_is_better=False,
            ),
            tbh.dc_metric(
                "current", WEIGHT_HIGH, _starved_current_testbench, _forced_current
            ),
            tbh.ac_metric(
                "gain",
                WEIGHT_MEDIUM,
                _inverter_gain_testbench,
                tbh.node_voltage("out"),
            ),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("starve_p", nets=("int_sp",), correlated_with=("starve_n",)),
            TuningTerminal("starve_n", nets=("int_sn",), correlated_with=("starve_p",)),
            TuningTerminal("drain", nets=("out",)),
        ]

    def bias_testbench(self, dut: Circuit, vin: float | None = None) -> Circuit:
        vdd = self.tech.vdd
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vdd", "vdd!", "0", vdd)
        tb.add_vsource("vbp", "vbp", "0", vdd - self.v_ctrl)
        tb.add_vsource("vbn", "vbn", "0", self.v_ctrl)
        tb.add_vsource("vin", "in", "0", vdd / 2.0 if vin is None else vin)
        tb.add_capacitor("cload", "out", "0", self.c_load)
        return tb


class DifferentialDelayCell(MosPrimitive):
    """Differential current-starved delay stage with an internal keeper.

    The RO-VCO's unit cell: two current-starved inverters plus a weak
    cross-coupled inverter keeper, all in one primitive so the
    regeneration loop never crosses a block boundary (a keeper fighting
    its inverter across global-route resistance latches mid-rail).

    ``base_fins`` sizes the keeper devices; the inverter/starve devices
    are ``drive_ratio`` times larger.
    """

    family = "differential_delay_cell"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 8,
        name: str | None = None,
        drive_ratio: int = 6,
        v_ctrl: float | None = None,
        c_load: float = 2.0e-15,
    ):
        super().__init__(tech, base_fins, name)
        if drive_ratio < 1:
            raise ValueError("drive_ratio must be >= 1")
        self.drive_ratio = drive_ratio
        self.v_ctrl = v_ctrl if v_ctrl is not None else 0.7 * tech.vdd
        self.c_load = c_load

    def templates(self) -> list[DeviceTemplate]:
        r = self.drive_ratio
        inv = []
        for side, inp, out in (("a", "ina", "outa"), ("b", "inb", "outb")):
            inv += [
                DeviceTemplate(
                    f"MP{side}", "p",
                    {"d": out, "g": inp, "s": f"int_sp{side}", "b": "vdd!"},
                    m_ratio=r,
                ),
                DeviceTemplate(
                    f"MN{side}", "n",
                    {"d": out, "g": inp, "s": f"int_sn{side}"},
                    m_ratio=r,
                ),
                DeviceTemplate(
                    f"MPS{side}", "p",
                    {"d": f"int_sp{side}", "g": "vbp", "s": "vdd!", "b": "vdd!"},
                    m_ratio=r,
                ),
                DeviceTemplate(
                    f"MNS{side}", "n",
                    {"d": f"int_sn{side}", "g": "vbn", "s": "0"},
                    m_ratio=r,
                ),
            ]
        keepers = [
            DeviceTemplate(
                "MKPA", "p", {"d": "outa", "g": "outb", "s": "vdd!", "b": "vdd!"}
            ),
            DeviceTemplate("MKNA", "n", {"d": "outa", "g": "outb", "s": "0"}),
            DeviceTemplate(
                "MKPB", "p", {"d": "outb", "g": "outa", "s": "vdd!", "b": "vdd!"}
            ),
            DeviceTemplate("MKNB", "n", {"d": "outb", "g": "outa", "s": "0"}),
        ]
        return inv + keepers

    def metrics(self) -> list[MetricSpec]:
        return [
            tbh.tran_metric(
                "delay",
                WEIGHT_HIGH,
                _cell_delay_testbench,
                _delay("ina", "outa"),
                t_stop=1.5e-9,
                dt=1.5e-12,
                larger_is_better=False,
            ),
            tbh.dc_metric(
                "current", WEIGHT_HIGH, _cell_current_testbench, _forced_current
            ),
            tbh.ac_metric(
                "gain", WEIGHT_MEDIUM, _cell_gain_testbench, _differential_gain
            ),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal(
                "starve_p", nets=("int_spa", "int_spb"),
                correlated_with=("starve_n",),
            ),
            TuningTerminal(
                "starve_n", nets=("int_sna", "int_snb"),
                correlated_with=("starve_p",),
            ),
            TuningTerminal("drain", nets=("outa", "outb")),
        ]

    def symmetric_net_pairs(self) -> tuple[tuple[str, str], ...]:
        return (
            ("outa", "outb"),
            ("ina", "inb"),
            ("int_spa", "int_spb"),
            ("int_sna", "int_snb"),
        )

    def bias_testbench(
        self, dut: Circuit, vin: float | None = None
    ) -> Circuit:
        vdd = self.tech.vdd
        mid = vdd / 2.0 if vin is None else vin
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vdd", "vdd!", "0", vdd)
        tb.add_vsource("vbp", "vbp", "0", vdd - self.v_ctrl)
        tb.add_vsource("vbn", "vbn", "0", self.v_ctrl)
        tb.add_vsource("vina", "ina", "0", mid)
        tb.add_vsource("vinb", "inb", "0", vdd - mid)
        tb.add_capacitor("cla", "outa", "0", self.c_load)
        tb.add_capacitor("clb", "outb", "0", self.c_load)
        return tb


class CrossCoupledPair(MosPrimitive):
    """NMOS cross-coupled pair: negative-Gm cell.

    Metrics: the magnitude of the negative conductance (α=1) and the
    output capacitance (α=0.5).
    """

    family = "cross_coupled_pair"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 240,
        name: str | None = None,
        i_tail: float | None = None,
        vout: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        self.i_tail = i_tail if i_tail is not None else 0.6e-6 * base_fins
        self.vout = vout if vout is not None else 0.7 * tech.vdd

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("MA", "n", {"d": "outp", "g": "outn", "s": "tail"}),
            DeviceTemplate("MB", "n", {"d": "outn", "g": "outp", "s": "tail"}),
        ]

    def metrics(self) -> list[MetricSpec]:
        return _latch_metrics()

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("tail",)),
            TuningTerminal("drain", nets=("outp", "outn")),
        ]

    def bias_testbench(self, dut: Circuit, ac_out: bool = False) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource(
            "voutp", "outp", "0", Dc(self.vout), ac_magnitude=1.0 if ac_out else 0.0
        )
        tb.add_vsource("voutn", "outn", "0", self.vout)
        tb.add_isource("itail", "tail", "0", self.i_tail)
        return tb


class CrossCoupledInverters(MosPrimitive):
    """Cross-coupled CMOS inverter latch (StrongARM regeneration core)."""

    family = "cross_coupled_inverters"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 96,
        name: str | None = None,
    ):
        super().__init__(tech, base_fins, name)

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("MPA", "p", {"d": "outp", "g": "outn", "s": "vdd!", "b": "vdd!"}),
            DeviceTemplate("MNA", "n", {"d": "outp", "g": "outn", "s": "0"}),
            DeviceTemplate("MPB", "p", {"d": "outn", "g": "outp", "s": "vdd!", "b": "vdd!"}),
            DeviceTemplate("MNB", "n", {"d": "outn", "g": "outp", "s": "0"}),
        ]

    def metrics(self) -> list[MetricSpec]:
        return _latch_metrics()

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [TuningTerminal("drain", nets=("outp", "outn"))]

    def bias_testbench(self, dut: Circuit, ac_out: bool = False) -> Circuit:
        vdd = self.tech.vdd
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vdd", "vdd!", "0", vdd)
        tb.add_vsource(
            "voutp", "outp", "0", Dc(vdd / 2), ac_magnitude=1.0 if ac_out else 0.0
        )
        tb.add_vsource("voutn", "outn", "0", vdd / 2)
        return tb


class RegenerativePair(MosPrimitive):
    """NMOS cross-coupled pair with *separate* sources.

    The StrongARM latch's M3/M4: gates cross-coupled to the output nodes,
    sources riding on the input pair's drains.  Metrics: regeneration
    transconductance (α=1) and output capacitance (α=0.5).
    """

    family = "regenerative_pair"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 96,
        name: str | None = None,
        v_src: float | None = None,
        vout: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        self.v_src = v_src if v_src is not None else 0.15 * tech.vdd
        self.vout = vout if vout is not None else 0.65 * tech.vdd

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("MA", "n", {"d": "outp", "g": "outn", "s": "srcp"}),
            DeviceTemplate("MB", "n", {"d": "outn", "g": "outp", "s": "srcn"}),
        ]

    def metrics(self) -> list[MetricSpec]:
        return _latch_metrics()

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("srcp", "srcn")),
            TuningTerminal("drain", nets=("outp", "outn")),
        ]

    def bias_testbench(self, dut: Circuit, ac_out: bool = False) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource(
            "voutp", "outp", "0", Dc(self.vout), ac_magnitude=1.0 if ac_out else 0.0
        )
        tb.add_vsource("voutn", "outn", "0", self.vout)
        tb.add_vsource("vsrcp", "srcp", "0", self.v_src)
        tb.add_vsource("vsrcn", "srcn", "0", self.v_src)
        return tb


class PmosCrossCoupledPair(CrossCoupledPair):
    """PMOS cross-coupled pair, sources at VDD (StrongARM M5/M6)."""

    family = "pmos_cross_coupled_pair"

    def __init__(self, tech: Technology, base_fins: int = 96, **kwargs):
        kwargs.setdefault("vout", 0.5 * tech.vdd)
        super().__init__(tech, base_fins, **kwargs)

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate(
                "MA", "p", {"d": "outp", "g": "outn", "s": "vdd!", "b": "vdd!"}
            ),
            DeviceTemplate(
                "MB", "p", {"d": "outn", "g": "outp", "s": "vdd!", "b": "vdd!"}
            ),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("vdd!",)),
            TuningTerminal("drain", nets=("outp", "outn")),
        ]

    def bias_testbench(self, dut: Circuit, ac_out: bool = False) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vdd", "vdd!", "0", self.tech.vdd)
        tb.add_vsource(
            "voutp", "outp", "0", Dc(self.vout), ac_magnitude=1.0 if ac_out else 0.0
        )
        tb.add_vsource("voutn", "outn", "0", self.vout)
        return tb


class TransmissionSwitch(MosPrimitive):
    """NMOS switch; metrics on-resistance (α=1) and off capacitance."""

    family = "switch"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 96,
        name: str | None = None,
        v_signal: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        self.v_signal = v_signal if v_signal is not None else 0.3 * tech.vdd

    def templates(self) -> list[DeviceTemplate]:
        return [DeviceTemplate("MSW", "n", {"d": "a", "g": "en", "s": "b"})]

    def metrics(self) -> list[MetricSpec]:
        return [
            tbh.ac_metric(
                "ron",
                WEIGHT_HIGH,
                _on_testbench,
                tbh.port_resistance("va"),
                larger_is_better=False,
            ),
            tbh.ac_metric(
                "coff",
                WEIGHT_MEDIUM,
                _off_testbench,
                tbh.port_capacitance("va"),
                larger_is_better=False,
            ),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [TuningTerminal("channel", nets=("a", "b"))]

    def bias_testbench(self, dut: Circuit, on: bool) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("ven", "en", "0", self.tech.vdd if on else 0.0)
        tb.add_vsource(
            "va", "a", "0", Dc(self.v_signal), ac_magnitude=1.0
        )
        tb.add_vsource("vb", "b", "0", self.v_signal)
        return tb


class PmosSwitch(TransmissionSwitch):
    """PMOS switch (StrongARM precharge device); enable is active low."""

    family = "pmos_switch"

    def __init__(self, tech: Technology, base_fins: int = 96, **kwargs):
        kwargs.setdefault("v_signal", 0.8 * tech.vdd)
        super().__init__(tech, base_fins, **kwargs)

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate(
                "MSW", "p", {"d": "a", "g": "en", "s": "b", "b": "vdd!"}
            )
        ]

    def bias_testbench(self, dut: Circuit, on: bool) -> Circuit:
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vdd", "vdd!", "0", self.tech.vdd)
        tb.add_vsource("ven", "en", "0", 0.0 if on else self.tech.vdd)
        tb.add_vsource("va", "a", "0", Dc(self.v_signal), ac_magnitude=1.0)
        tb.add_vsource("vb", "b", "0", self.v_signal)
        return tb


# --- metric testbenches, readers and evaluators ---------------------------


def _latch_metrics() -> list[MetricSpec]:
    """Negative Gm and C_out at ``outp`` of a cross-coupled structure."""
    return [
        tbh.ac_metric(
            "neg_gm", WEIGHT_HIGH, _ac_out_testbench, tbh.port_conductance("voutp")
        ),
        tbh.ac_metric(
            "cout",
            WEIGHT_MEDIUM,
            _ac_out_testbench,
            tbh.port_capacitance("voutp"),
            larger_is_better=False,
        ),
    ]


def _ac_out_testbench(prim, dut: Circuit) -> Circuit:
    return prim.bias_testbench(dut, ac_out=True)


def _on_testbench(prim: TransmissionSwitch, dut: Circuit) -> Circuit:
    return prim.bias_testbench(dut, on=True)


def _off_testbench(prim: TransmissionSwitch, dut: Circuit) -> Circuit:
    return prim.bias_testbench(dut, on=False)


def _forced_current(op) -> float:
    return abs(op.i("vforce"))


def _starved_current_testbench(
    prim: CurrentStarvedInverter, dut: Circuit
) -> Circuit:
    # The available (starve-limited) pull-up current: input low, output
    # pinned at mid-rail, current measured through the pinning source.
    tb = prim.bias_testbench(dut, vin=0.0)
    tb.add_vsource("vforce", "out", "0", prim.tech.vdd / 2.0)
    return tb


def _inverter_gain_testbench(prim: CurrentStarvedInverter, dut: Circuit) -> Circuit:
    vdd = prim.tech.vdd
    tb = prim.bias_testbench(dut, vin=vdd / 2.0)
    tb.replace_element(
        "vin", VoltageSource("vin", "in", "0", Dc(vdd / 2.0), ac_magnitude=1.0)
    )
    return tb


def _cell_current_testbench(prim: DifferentialDelayCell, dut: Circuit) -> Circuit:
    # Starve-limited drive: inputs at the rails, one output pinned mid.
    tb = prim.bias_testbench(dut, vin=0.0)
    tb.add_vsource("vforce", "outa", "0", prim.tech.vdd / 2.0)
    return tb


def _cell_gain_testbench(prim: DifferentialDelayCell, dut: Circuit) -> Circuit:
    vdd = prim.tech.vdd
    tb = prim.bias_testbench(dut)
    tb.replace_element(
        "vina", VoltageSource("vina", "ina", "0", Dc(vdd / 2.0), ac_magnitude=0.5)
    )
    tb.replace_element(
        "vinb",
        VoltageSource(
            "vinb", "inb", "0", Dc(vdd / 2.0), ac_magnitude=0.5, ac_phase_deg=180.0
        ),
    )
    return tb


def _differential_gain(op, ac) -> float:
    return float(abs(ac.v("outa")[0] - ac.v("outb")[0]))


def _delay(node_in: str, node_out: str):
    """Transient reader: ``node_in`` rise to ``node_out`` fall at mid-rail."""

    def read(prim: MosPrimitive, result) -> float:
        half = prim.tech.vdd / 2.0
        return measure.delay_between(
            result.t,
            result.v(node_in),
            result.v(node_out),
            half,
            half,
            direction_from="rise",
            direction_to="fall",
        )

    return read


def _delay_testbench(prim: CurrentStarvedInverter, dut: Circuit) -> Circuit:
    vdd = prim.tech.vdd
    tb = prim.bias_testbench(dut, vin=0.0)
    tb.replace_element(
        "vin", VoltageSource("vin", "in", "0", tbh.standard_pulse(0.0, vdd))
    )
    return tb


def _cell_delay_testbench(prim: DifferentialDelayCell, dut: Circuit) -> Circuit:
    vdd = prim.tech.vdd
    tb = prim.bias_testbench(dut, vin=0.0)
    tb.replace_element(
        "vina", VoltageSource("vina", "ina", "0", tbh.standard_pulse(0.0, vdd))
    )
    tb.replace_element(
        "vinb", VoltageSource("vinb", "inb", "0", tbh.standard_pulse(vdd, 0.0))
    )
    return tb
