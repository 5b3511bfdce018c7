"""The common-source amplifier of the paper's Fig. 2 / Table I.

Two primitives: an NMOS common-source stage (M1) and a PMOS
current-source load (M2).  Top-level metrics are the figure's Gain, UGF
and Power; the primitive-level metrics (Gm, Rout, C_total, I_M2) come
from the primitives' own testbenches and feed Table I.
"""

from __future__ import annotations

from repro.circuits.base import CompositeCircuit, PrimitiveBinding
from repro.primitives.amplifiers import CommonSourceAmplifier
from repro.primitives.loads import PmosCurrentSource
from repro.spice import measure
from repro.spice.mna import CompiledCircuit
from repro.spice.ac import ac_analysis
from repro.spice.dc import dc_operating_point
from repro.spice.netlist import Circuit
from repro.tech.pdk import Technology


class CommonSourceAmpCircuit(CompositeCircuit):
    """CS amplifier with a PMOS current-source load.

    Args:
        tech: Technology node.
        i_bias: Stage current (A); the paper's example runs at 290 uA.
        c_load: External load capacitance (F).
        stage_fins: Fins of the CS device.
        load_fins: Fins of the load device.
    """

    name = "cs_amplifier"

    def __init__(
        self,
        tech: Technology,
        i_bias: float = 290.0e-6,
        c_load: float = 30.0e-15,
        stage_fins: int = 384,
        load_fins: int = 576,
    ):
        super().__init__(tech)
        self.i_bias = i_bias
        self.c_load = c_load
        vout_mid = 0.5 * tech.vdd
        self.stage = CommonSourceAmplifier(
            tech, base_fins=stage_fins, name="cs_stage",
            i_target=i_bias, vout=vout_mid,
        )
        self.load = PmosCurrentSource(
            tech, base_fins=load_fins, name="cs_load",
            i_target=i_bias, vout=vout_mid,
        )

    def bindings(self) -> list[PrimitiveBinding]:
        return [
            PrimitiveBinding(
                name="xstage",
                primitive=self.stage,
                port_map={"in": "vin", "out": "vout"},
            ),
            PrimitiveBinding(
                name="xload",
                primitive=self.load,
                port_map={"out": "vout", "vb": "vbp", "vdd!": "vdd!"},
            ),
        ]

    def finish_testbench(self, tb: Circuit, ac: bool = False) -> None:
        tb.add_vsource("vdd", "vdd!", "0", self.tech.vdd)
        tb.add_vsource("vbias", "vbp", "0", self.load.v_bias)
        tb.add_vsource(
            "vin", "vin", "0", self.stage.vin, ac_magnitude=1.0 if ac else 0.0
        )
        tb.add_capacitor("cl", "vout", "0", self.c_load)

    def measure(self, dut: Circuit) -> dict[str, float]:
        """Gain (dB), UGF (Hz), 3dB bandwidth (Hz), current (A), power (W)."""
        tb = self.testbench(dut, ac=True)
        compiled = CompiledCircuit(tb, self.tech.rules)
        op = dc_operating_point(compiled)
        ac = ac_analysis(compiled, op, 1.0e5, 1.0e11, 10)
        h = ac.v("vout")
        current = abs(op.i("vdd"))
        return {
            "current": current,
            "gain_db": measure.low_frequency_gain_db(h),
            "ugf": measure.unity_gain_frequency(ac.freqs, h),
            "f3db": measure.bandwidth_3db(ac.freqs, h),
            "power": current * self.tech.vdd,
        }
