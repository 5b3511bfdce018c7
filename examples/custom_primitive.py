#!/usr/bin/env python
"""Extending the primitive library with a custom primitive.

The paper's library augmentation (Section II-B) is a one-time exercise
per topology: declare the devices, the performance metrics with weights,
the tuning terminals, and a testbench plus a reader per metric.  This example adds a
*source-degenerated differential pair* — a topology not in the stock
library — registers it, and runs Algorithm 1 on it.

Run with::

    python examples/custom_primitive.py
"""

from repro import PrimitiveOptimizer, Technology
from repro.primitives import PrimitiveLibrary
from repro.primitives.base import (
    DeviceTemplate,
    MosPrimitive,
    TuningTerminal,
    WEIGHT_HIGH,
    WEIGHT_MEDIUM,
)
from repro.primitives import testbenches as tbh
from repro.spice.elements import VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.waveforms import Dc


class DegeneratedDifferentialPair(MosPrimitive):
    """Differential pair with source-degeneration devices.

    The degeneration FETs (triode-biased) linearize the pair; the key
    metrics are the effective Gm (α=1, now set by the degeneration) and
    the output capacitance (α=0.5).
    """

    family = "degenerated_differential_pair"

    def __init__(self, tech, base_fins=192, name=None):
        super().__init__(tech, base_fins, name)
        self.vcm = 0.7 * tech.vdd
        self.vout = 0.75 * tech.vdd
        self.i_tail = 0.3e-6 * base_fins

    def templates(self):
        return [
            DeviceTemplate("MA", "n", {"d": "outp", "g": "inp", "s": "int_sa"}),
            DeviceTemplate("MB", "n", {"d": "outn", "g": "inn", "s": "int_sb"}),
            DeviceTemplate("MDA", "n", {"d": "int_sa", "g": "vbd", "s": "tail"}),
            DeviceTemplate("MDB", "n", {"d": "int_sb", "g": "vbd", "s": "tail"}),
        ]

    def metrics(self):
        # One testbench and one reader per metric: the constructors derive
        # both the serial and the stacked evaluator from them.
        return [
            tbh.ac_metric(
                "gm",
                WEIGHT_HIGH,
                _gm_testbench,
                tbh.transfer_current(["voutp", "voutn"], [1.0, -1.0]),
            ),
            tbh.ac_metric(
                "cout",
                WEIGHT_MEDIUM,
                _cout_testbench,
                tbh.port_capacitance("voutp"),
                larger_is_better=False,
            ),
        ]

    def tuning_terminals(self):
        return [
            TuningTerminal(
                "degeneration", nets=("int_sa", "int_sb"),
                correlated_with=("source",),
            ),
            TuningTerminal("source", nets=("tail",), correlated_with=("degeneration",)),
        ]

    def bias_testbench(self, dut, ac_in=False):
        tb = Circuit(f"{self.name}_tb")
        tbh.attach_dut(tb, dut)
        tb.add_vsource(
            "vinp", "inp", "0", Dc(self.vcm), ac_magnitude=1.0 if ac_in else 0.0
        )
        tb.add_vsource("vinn", "inn", "0", self.vcm)
        tb.add_vsource("vbd", "vbd", "0", self.tech.vdd)  # triode degeneration
        tb.add_vsource("voutp", "outp", "0", self.vout)
        tb.add_vsource("voutn", "outn", "0", self.vout)
        tb.add_isource("itail", "tail", "0", self.i_tail)
        return tb


def _gm_testbench(prim, dut):
    return prim.bias_testbench(dut, ac_in=True)


def _cout_testbench(prim, dut):
    tb = prim.bias_testbench(dut)
    tb.replace_element(
        "voutp", VoltageSource("voutp", "outp", "0", Dc(prim.vout), ac_magnitude=1.0)
    )
    return tb


def main() -> None:
    tech = Technology.default()
    library = PrimitiveLibrary()
    library.register("degenerated_differential_pair", DegeneratedDifferentialPair)
    print(f"Library now holds {len(library)} primitives.")

    prim = library.create("degenerated_differential_pair", tech, base_fins=192)
    ref = prim.schematic_reference()
    print(f"Schematic: Gm = {ref['gm'] * 1e3:.3f} mA/V, "
          f"Cout = {ref['cout'] * 1e15:.1f} fF")

    report = PrimitiveOptimizer(n_bins=2, max_wires=4).optimize(prim)
    print(f"\n{len(report.options)} options evaluated, "
          f"{report.total_simulations} simulations.")
    for result in report.tuned:
        o = result.option
        d = o.breakdown.deviations
        print(f"  ({o.base.nfin}, {o.base.nf}, {o.base.m}) {o.pattern}: "
              f"cost {o.cost:.2f} (dGm {d['gm']:.1f}%, dCout {d['cout']:.1f}%)")
    print(f"\nBest: {report.best.describe()}")
    print("Note: the correlated degeneration/source terminals were "
          "enumerated jointly, as Algorithm 1 prescribes.")


if __name__ == "__main__":
    main()
