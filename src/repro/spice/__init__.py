"""A small but complete circuit simulator (MNA).

This package replaces the commercial SPICE engine the paper uses.  It
provides:

* a netlist data model (:mod:`repro.spice.netlist`,
  :mod:`repro.spice.elements`, :mod:`repro.spice.waveforms`),
* modified nodal analysis assembly (:mod:`repro.spice.mna`),
* DC operating point with gmin and source stepping (:mod:`repro.spice.dc`),
* small-signal AC sweeps (:mod:`repro.spice.ac`),
* transient analysis with Newton per step (:mod:`repro.spice.tran`),
* waveform measurements: gain, UGF, phase margin, 3dB bandwidth, delays,
  power, oscillation frequency (:mod:`repro.spice.measure`).

Primitive metric testbenches are built in
:mod:`repro.primitives.testbenches`.

Primitive-level simulations are tiny (a handful of transistors plus a
parasitic network), which is exactly the regime the paper exploits: each
simulation costs milliseconds here, seconds in the paper.
"""

from repro.spice import kernel
from repro.spice.kernel import (
    SolverStats,
    SystemTemplate,
    backend_for,
)
from repro.spice.netlist import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.waveforms import Dc, Pulse, Pwl, Sin
from repro.spice.mna import CompiledCircuit
from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.ac import AcResult, ac_analysis
from repro.spice.tran import TranResult, transient
from repro.spice import measure
from repro.spice.montecarlo import MonteCarloResult, run_monte_carlo

__all__ = [
    "kernel",
    "SolverStats",
    "SystemTemplate",
    "backend_for",
    "Circuit",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "Vcvs",
    "Vccs",
    "Mosfet",
    "Dc",
    "Pulse",
    "Sin",
    "Pwl",
    "CompiledCircuit",
    "OperatingPoint",
    "dc_operating_point",
    "AcResult",
    "ac_analysis",
    "TranResult",
    "transient",
    "measure",
    "MonteCarloResult",
    "run_monte_carlo",
]
