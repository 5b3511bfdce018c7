"""The eight-stage differential ring-oscillator VCO (paper Table VII).

Each stage is one :class:`~repro.primitives.digital.DifferentialDelayCell`
primitive — two current-starved inverters with an internal cross-coupled
keeper (the regeneration loop must live inside the cell; a keeper
fighting its inverter across global-route resistance latches mid-rail).
The ring closes with one polarity twist, so an even stage count
oscillates.  The control voltage drives the starve gates (``vbn`` and its
complement ``vbp``), trading delay for current — the circuit whose output
RC trade-off the paper highlights.

Top-level metrics: oscillation frequency versus control voltage, from
which Table VII's max/min frequency and usable voltage range follow.
"""

from __future__ import annotations

from repro.circuits.base import CompositeCircuit, PrimitiveBinding
from repro.errors import MeasureError
from repro.primitives.digital import DifferentialDelayCell
from repro.spice import measure
from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.mna import CompiledCircuit
from repro.spice.netlist import Circuit
from repro.spice.tran import transient
from repro.tech.pdk import Technology


class RingOscillatorVco(CompositeCircuit):
    """Differential RO-VCO built from differential delay cells.

    Args:
        tech: Technology node.
        stages: Number of differential stages (even; the paper uses 8).
        keeper_fins: Fins of the keeper devices (the cell's unit size).
        drive_ratio: Inverter/starve device size relative to the keeper.
        v_ctrl: Default control voltage (V).
    """

    name = "ro_vco"

    def __init__(
        self,
        tech: Technology,
        stages: int = 8,
        keeper_fins: int = 8,
        drive_ratio: int = 6,
        v_ctrl: float = 0.5,
    ):
        super().__init__(tech)
        if stages < 2 or stages % 2 != 0:
            raise ValueError("differential ring needs an even stage count >= 2")
        self.stages = stages
        self.v_ctrl = v_ctrl
        self.cell = DifferentialDelayCell(
            tech,
            base_fins=keeper_fins,
            drive_ratio=drive_ratio,
            name="vco_cell",
            v_ctrl=v_ctrl,
        )

    # -- netlist -----------------------------------------------------------

    def _stage_nets(self, index: int) -> tuple[str, str]:
        return f"na{index}", f"nb{index}"

    def bindings(self) -> list[PrimitiveBinding]:
        out: list[PrimitiveBinding] = []
        for k in range(self.stages):
            in_a, in_b = self._stage_nets((k - 1) % self.stages)
            if k == 0:
                in_a, in_b = in_b, in_a  # the differential twist
            out_a, out_b = self._stage_nets(k)
            out.append(
                PrimitiveBinding(
                    name=f"xstage{k}",
                    primitive=self.cell,
                    port_map={
                        "ina": in_a,
                        "inb": in_b,
                        "outa": out_a,
                        "outb": out_b,
                        "vbp": "vbp",
                        "vbn": "vbn",
                        "vdd!": "vdd!",
                    },
                    symmetric_ports=[("outa", "outb"), ("ina", "inb")],
                    optimize_ports=["outa", "outb"],
                )
            )
        return out

    def placement_rows(self) -> list[list[str]]:
        """Snake floorplan: first half left-to-right, second half below
        right-to-left, so consecutive stages abut."""
        half = self.stages // 2
        top = [f"xstage{k}" for k in range(half)]
        bottom = [f"xstage{k}" for k in range(self.stages - 1, half - 1, -1)]
        return [top, bottom]

    def finish_testbench(self, tb: Circuit, ac: bool = False) -> None:
        vdd = self.tech.vdd
        tb.add_vsource("vdd", "vdd!", "0", vdd)
        tb.add_vsource("vctrl_n", "vbn", "0", self.v_ctrl)
        tb.add_vsource("vctrl_p", "vbp", "0", vdd - self.v_ctrl)

    # -- measurement -------------------------------------------------------

    def estimate_period(self) -> float:
        """Rough period estimate from the cell's delay metric."""
        values = self.cell.schematic_reference()
        delay = max(values["delay"], 1.0e-12)
        return 2.0 * self.stages * delay * 2.0

    def measure(
        self,
        dut: Circuit,
        v_ctrl: float | None = None,
        periods: int = 14,
        steps_per_period: int = 220,
    ) -> dict[str, float]:
        """Oscillation frequency at one control voltage.

        Raises :class:`~repro.errors.MeasureError` if the ring does not
        oscillate (callers interpret that as "outside the usable voltage
        range").  Post-layout rings run slower than the schematic-based
        window estimate, so the window widens geometrically before the
        ring is declared dead.
        """
        if v_ctrl is not None:
            old = self.v_ctrl
            self.v_ctrl = v_ctrl
            try:
                return self.measure(
                    dut, periods=periods, steps_per_period=steps_per_period
                )
            finally:
                self.v_ctrl = old

        drive = max(self.v_ctrl - 0.25, 0.02)
        t_period = self.estimate_period() * (0.45 / drive) ** 2
        vdd = self.tech.vdd
        tb = self.testbench(dut)
        compiled = CompiledCircuit(tb, self.tech.rules)
        # Solve the (metastable, symmetric) operating point, then kick
        # the first stage apart by overwriting its node voltages — the
        # transient's companion models absorb the inconsistency, which is
        # exactly the symmetry-breaking impulse an oscillator needs.
        op = dc_operating_point(compiled)
        kicked = op.x.copy()
        na, nb = self._stage_nets(0)
        kicked[compiled.index_of(na)] = vdd
        kicked[compiled.index_of(nb)] = 0.0
        op = OperatingPoint(compiled=compiled, x=kicked)

        last_error: MeasureError | None = None
        for window_scale in (1.0, 4.0, 16.0):
            t_stop = periods * t_period * window_scale
            dt = t_period * window_scale / steps_per_period
            result = transient(compiled, t_stop=t_stop, dt=dt, op=op)
            wave = result.v(self._stage_nets(self.stages // 2)[0]) - result.v(
                self._stage_nets(self.stages // 2)[1]
            )
            swing = measure.peak_to_peak(wave[len(wave) // 2 :])
            if swing < 0.3 * vdd:
                last_error = MeasureError(
                    f"no sustained oscillation at v_ctrl={self.v_ctrl:.3f} "
                    f"(swing {swing:.3f} V)"
                )
                continue
            try:
                freq = measure.oscillation_frequency(
                    result.t, wave, settle_fraction=0.4
                )
            except MeasureError as exc:
                last_error = exc  # too few periods: widen the window
                continue
            return {"frequency": freq, "swing": swing}
        assert last_error is not None
        raise last_error

    def frequency_sweep(
        self,
        dut: Circuit,
        v_values: list[float],
    ) -> dict[float, float]:
        """Oscillation frequency per control voltage; 0.0 = no oscillation."""
        out: dict[float, float] = {}
        for v in v_values:
            try:
                out[v] = self.measure(dut, v_ctrl=v)["frequency"]
            except MeasureError:
                out[v] = 0.0
        return out

    @staticmethod
    def table_vii_metrics(sweep: dict[float, float]) -> dict[str, float]:
        """Max/min frequency and usable control range from a sweep."""
        oscillating = {v: f for v, f in sweep.items() if f > 0.0}
        if not oscillating:
            raise MeasureError("VCO never oscillates over the sweep")
        return {
            "f_max": max(oscillating.values()),
            "f_min": min(oscillating.values()),
            "v_lo": min(oscillating),
            "v_hi": max(oscillating),
        }
