"""Differential-pair primitives.

Table II row *DIFFERENTIAL PAIR*: metrics ``Gm`` (α=0.5),
``Gm/C_total`` (α=0.5) and input offset (α=1), tuning terminals at the
source and drain RC.  The Gm testbench is the paper's Fig. 4: an AC
voltage at one gate, the AC drain currents measured through the drain
bias sources.

Variants: the cascoded pair used in amplifiers/comparators, the switched
pair used in data converters, and the PMOS mirror image.
"""

from __future__ import annotations

from repro.errors import MeasureError
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


class DifferentialPair(MosPrimitive):
    """NMOS differential pair with an external ideal tail bias.

    Args:
        tech: Technology node.
        base_fins: Fins per side.
        vcm: Input common-mode voltage (V).
        vout: Drain bias voltage (V).
        i_tail: Tail current (A); default 0.3 uA per fin per side.
        c_load: External load capacitance per output from the schematic
            context (F); defaults to the gate capacitance of a
            same-sized next stage (~52 aF per fin).
    """

    family = "differential_pair"
    polarity = "n"

    def __init__(
        self,
        tech: Technology,
        base_fins: int = 960,
        name: str | None = None,
        vcm: float | None = None,
        vout: float | None = None,
        i_tail: float | None = None,
        c_load: float | None = None,
    ):
        super().__init__(tech, base_fins, name)
        self.vcm = vcm if vcm is not None else 0.68 * tech.vdd
        self.vout = vout if vout is not None else 0.75 * tech.vdd
        self.i_tail = i_tail if i_tail is not None else 0.15e-6 * base_fins
        self.c_load = c_load if c_load is not None else 5.2e-17 * base_fins

    # -- structure ---------------------------------------------------------

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("MA", self.polarity, {"d": "outp", "g": "inp", "s": "tail"}),
            DeviceTemplate("MB", self.polarity, {"d": "outn", "g": "inn", "s": "tail"}),
        ]

    def metrics(self) -> list[MetricSpec]:
        return [
            MetricSpec("gm", WEIGHT_MEDIUM, _eval_gm_many),
            MetricSpec("gm_over_ctotal", WEIGHT_MEDIUM, _eval_gm_over_ctotal_many),
            MetricSpec(
                "offset",
                WEIGHT_HIGH,
                _eval_offset_many,
                spec_value=lambda prim: 0.1 * prim.random_offset_sigma(),
                larger_is_better=False,
            ),
        ]

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("tail",)),
            TuningTerminal("drain", nets=("outp", "outn")),
        ]

    def symmetric_net_pairs(self) -> tuple[tuple[str, str], ...]:
        return super().symmetric_net_pairs() + (("inp", "inn"),)

    # -- testbench construction --------------------------------------------

    def input_drive(self, vin_diff: float) -> dict[str, float]:
        """Input source levels at differential input ``vin_diff``: split
        +x/2, -x/2 around the common mode."""
        return {
            "vinp": self.vcm + vin_diff / 2.0,
            "vinn": self.vcm - vin_diff / 2.0,
        }

    def _bias_testbench(self, dut: Circuit, vin_diff: float = 0.0) -> Circuit:
        """DUT with bias sources, inputs at :meth:`input_drive`."""
        drive = self.input_drive(vin_diff)
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource("vinp", "inp", "0", drive["vinp"])
        tb.add_vsource("vinn", "inn", "0", drive["vinn"])
        tb.add_vsource("voutp", "outp", "0", self.vout)
        tb.add_vsource("voutn", "outn", "0", self.vout)
        tb.add_isource("itail", "tail", "0", self.i_tail)
        return tb

    def gm_testbench(self, dut: Circuit) -> Circuit:
        """Fig. 4: AC at one gate, drain currents through bias sources."""
        tb = self._bias_testbench(dut)
        tb.replace_element(
            "vinp", VoltageSource("vinp", "inp", "0", Dc(self.vcm), ac_magnitude=1.0)
        )
        return tb

    def cout_testbench(self, dut: Circuit) -> Circuit:
        """AC voltage probe on one output, load capacitor included."""
        tb = self._bias_testbench(dut)
        tb.replace_element(
            "voutp",
            VoltageSource("voutp", "outp", "0", Dc(self.vout), ac_magnitude=1.0),
        )
        return tb


class PmosDifferentialPair(DifferentialPair):
    """PMOS differential pair (tail sourced from VDD)."""

    family = "pmos_differential_pair"
    polarity = "p"

    def __init__(self, tech: Technology, base_fins: int = 960, **kwargs):
        kwargs.setdefault("vcm", 0.32 * tech.vdd)
        kwargs.setdefault("vout", 0.25 * tech.vdd)
        super().__init__(tech, base_fins, **kwargs)

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate(
                "MA", "p", {"d": "outp", "g": "inp", "s": "tail", "b": "vdd!"}
            ),
            DeviceTemplate(
                "MB", "p", {"d": "outn", "g": "inn", "s": "tail", "b": "vdd!"}
            ),
        ]

    def _bias_testbench(self, dut: Circuit, vin_diff: float = 0.0) -> Circuit:
        drive = self.input_drive(vin_diff)
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        vdd = self.tech.vdd
        tb.add_vsource("vdd", "vdd!", "0", vdd)
        tb.add_vsource("vinp", "inp", "0", drive["vinp"])
        tb.add_vsource("vinn", "inn", "0", drive["vinn"])
        tb.add_vsource("voutp", "outp", "0", self.vout)
        tb.add_vsource("voutn", "outn", "0", self.vout)
        # Tail current pulled from VDD into the tail node.
        tb.add_isource("itail", "vdd!", "tail", self.i_tail)
        return tb


class CascodeDifferentialPair(DifferentialPair):
    """Cascoded differential pair (input pair plus cascode devices)."""

    family = "cascode_differential_pair"

    def __init__(self, tech: Technology, base_fins: int = 960, **kwargs):
        kwargs.setdefault("vout", 0.85 * tech.vdd)
        super().__init__(tech, base_fins, **kwargs)
        self.v_cascode = 0.85 * tech.vdd

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("MA", "n", {"d": "int_cp", "g": "inp", "s": "tail"}),
            DeviceTemplate("MB", "n", {"d": "int_cn", "g": "inn", "s": "tail"}),
            DeviceTemplate("MCA", "n", {"d": "outp", "g": "vcas", "s": "int_cp"}),
            DeviceTemplate("MCB", "n", {"d": "outn", "g": "vcas", "s": "int_cn"}),
        ]

    def _bias_testbench(self, dut: Circuit, vin_diff: float = 0.0) -> Circuit:
        tb = super()._bias_testbench(dut, vin_diff)
        tb.add_vsource("vcasb", "vcas", "0", self.v_cascode)
        return tb

    def tuning_terminals(self) -> list[TuningTerminal]:
        return [
            TuningTerminal("source", nets=("tail",)),
            TuningTerminal(
                "cascode", nets=("int_cp", "int_cn"), correlated_with=("drain",)
            ),
            TuningTerminal(
                "drain", nets=("outp", "outn"), correlated_with=("cascode",)
            ),
        ]


class SwitchedDifferentialPair(DifferentialPair):
    """Switched differential pair (data-converter style, enable switch)."""

    family = "switched_differential_pair"

    def templates(self) -> list[DeviceTemplate]:
        return [
            DeviceTemplate("MA", "n", {"d": "outp", "g": "inp", "s": "int_t"}),
            DeviceTemplate("MB", "n", {"d": "outn", "g": "inn", "s": "int_t"}),
            DeviceTemplate(
                "MSW", "n", {"d": "int_t", "g": "en", "s": "tail"}, matched=False
            ),
        ]

    def _bias_testbench(self, dut: Circuit, vin_diff: float = 0.0) -> Circuit:
        tb = super()._bias_testbench(dut, vin_diff)
        tb.add_vsource("ven", "en", "0", self.tech.vdd)
        return tb


# --- metric evaluators -------------------------------------------------------
# Each evaluator measures a stack of DUTs and returns a member's failure in
# its place.  MosPrimitive.evaluate_many passes one cache per DUT and runs
# the metrics in order, so gm_over_ctotal divides the Gm that the gm metric
# just stored there (3 sims per config in total, matching Table V); a
# member whose Gm failed is not measured further.


_read_gm = tbh.transfer_current(["voutp", "voutn"], [1.0, -1.0])
_read_cout = tbh.port_capacitance("voutp")


def _offset_response(op) -> float:
    return op.i("voutp") - op.i("voutn")


def _eval_gm_many(
    prim: DifferentialPair, duts: list[Circuit], caches: list[dict]
) -> list:
    runs = tbh.run_ac_many([prim.gm_testbench(dut) for dut in duts], prim.tech)
    out: list = []
    for cache, res in zip(caches, runs):
        if not isinstance(res, Exception):
            cache["gm"] = _read_gm(*res)
            res = (cache["gm"], 1)
        out.append(res)
    return out


def _eval_gm_over_ctotal_many(
    prim: DifferentialPair, duts: list[Circuit], caches: list[dict]
) -> list:
    runs = tbh.run_ac_many([prim.cout_testbench(dut) for dut in duts], prim.tech)
    return [
        res
        if isinstance(res, Exception)
        else (cache["gm"] / (_read_cout(*res) + prim.c_load), 1)
        for cache, res in zip(caches, runs)
    ]


def _eval_offset_many(
    prim: DifferentialPair, duts: list[Circuit], caches: list[dict]
) -> list:
    roots = tbh.dc_offset_bisection_many(
        [prim._bias_testbench(dut) for dut in duts],
        prim.input_drive,
        prim.tech,
        _offset_response,
    )
    out: list = []
    for root in roots:
        if isinstance(root, MeasureError):
            # The pair no longer steers within the bracket (e.g. the bias
            # has collapsed under extreme route IR drop): report a
            # saturated offset so the cost function rejects the
            # configuration.
            out.append((0.05, 1))
        elif isinstance(root, Exception):
            out.append(root)
        else:
            out.append((abs(root), 1))
    return out
