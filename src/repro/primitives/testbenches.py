"""Shared testbench building blocks for primitive metrics.

A metric testbench wires a DUT netlist (schematic or extracted — both
expose the same port names) into a stimulated circuit and reduces its
simulation to one number, the way the paper's per-metric SPICE
testbenches do (Fig. 4).  :func:`ac_metric`, :func:`dc_metric` and
:func:`tran_metric` declare such a metric once, as one evaluator over a
stack of DUTs; a single DUT is a one-member stack.  A metric
evaluation reports ``(value, n_simulations)``,
where a "simulation" is one analysis run (op / ac sweep / transient),
matching the accounting of Table V.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeasureError
from repro.primitives.base import MetricSpec
from repro.runtime.failures import is_eval_failure
from repro.spice import measure
from repro.spice.ac import ac_analysis_many
from repro.spice.dc import dc_operating_point, dc_operating_points
from repro.spice.mna import CompiledCircuit
from repro.spice.netlist import Circuit
from repro.spice.tran import transient
from repro.spice.waveforms import Pulse
from repro.tech.pdk import Technology

#: Frequency (Hz) at which port capacitances are read off ``Im(Y)/w``.
#: Low enough that series wire resistance does not shield the node
#: capacitance (400 ohm against 50 kOhm of 30 fF at 100 MHz).
CAP_PROBE_FREQUENCY = 1.0e8

#: Default AC sweep for primitive testbenches.
AC_START, AC_STOP, AC_PPD = 1.0e6, 1.0e11, 8


def attach_dut(tb: Circuit, dut: Circuit) -> None:
    """Instantiate the DUT in a testbench, ports mapped name-to-name."""
    tb.instantiate(dut, "dut", {p: p for p in dut.ports})


def freq_index(freqs: np.ndarray, target: float) -> int:
    """Index of the sweep point closest to ``target`` (log distance)."""
    return int(np.argmin(np.abs(np.log10(freqs) - np.log10(target))))


def run_op_many(tbs: list[Circuit], tech: Technology) -> list:
    """Operating point (or captured exception) per testbench, stacked.

    Failures are *captured per member*, so one diverging member never
    hides the rest of the stack.
    """
    compileds = [CompiledCircuit(tb, tech.rules) for tb in tbs]
    return dc_operating_points(compileds)


def run_ac_many(tbs: list[Circuit], tech: Technology) -> list:
    """Operating point plus AC sweep per testbench, stacked: ``(op, ac)``
    (or the captured exception) per member, costing 1 'sim' each."""
    compileds = [CompiledCircuit(tb, tech.rules) for tb in tbs]
    ops = dc_operating_points(compileds)
    out: list = [op if isinstance(op, Exception) else None for op in ops]
    live = [i for i in range(len(tbs)) if out[i] is None]
    acs = ac_analysis_many(
        [compileds[i] for i in live],
        [ops[i] for i in live],
        AC_START,
        AC_STOP,
        AC_PPD,
    )
    for i, ac in zip(live, acs):
        out[i] = ac if isinstance(ac, Exception) else (ops[i], ac)
    return out


# -- metric declarations --------------------------------------------------
#
# A primitive metric is one testbench (``build(prim, dut) -> Circuit``)
# plus one reader reducing its simulation to a number.  The constructors
# below turn that definition into the metric's one evaluator, which
# simulates a whole stack of DUTs (``run_ac_many``/``run_op_many``, or
# one transient per member) and captures each member's failure in its
# place.  Each costs one simulation per DUT (Table V accounting).


def _captured(thunk):
    """``thunk()``, or the evaluation failure it raised in its place.

    Any other exception is a bug and propagates.
    """
    try:
        return thunk()
    except Exception as exc:
        if not is_eval_failure(exc):
            raise
        return exc


def _read_members(read, results: list) -> list:
    """``(read(*args), 1)`` per member, or the member's captured failure
    (its simulation's, or its reader's)."""
    return [
        args if isinstance(args, Exception) else _captured(lambda: (read(*args), 1))
        for args in results
    ]


def ac_metric(name: str, weight: float, build, read, **spec) -> MetricSpec:
    """A metric measured on an operating point plus AC sweep.

    Args:
        name, weight: The metric's name and importance weight α.
        build: Callable ``(prim, dut) -> Circuit`` building the testbench.
        read: Callable ``(op, ac) -> float`` reducing the simulation to
            the metric value (see the readers below).
        **spec: Remaining :class:`MetricSpec` fields
            (``larger_is_better``, ``spec_value``).
    """

    def evaluate(prim, duts: list[Circuit], caches: list[dict]) -> list:
        runs = run_ac_many([build(prim, dut) for dut in duts], prim.tech)
        return _read_members(read, runs)

    return MetricSpec(name, weight, evaluate, **spec)


def dc_metric(name: str, weight: float, build, read, **spec) -> MetricSpec:
    """A metric measured on an operating point alone.

    As :func:`ac_metric`, with ``read(op) -> float``.
    """

    def evaluate(prim, duts: list[Circuit], caches: list[dict]) -> list:
        ops = run_op_many([build(prim, dut) for dut in duts], prim.tech)
        return _read_members(
            read, [op if isinstance(op, Exception) else (op,) for op in ops]
        )

    return MetricSpec(name, weight, evaluate, **spec)


def tran_metric(
    name: str, weight: float, build, read, *, t_stop: float, dt: float, **spec
) -> MetricSpec:
    """A metric measured on a transient run of ``t_stop`` at step ``dt``,
    from the testbench's operating point.

    As :func:`ac_metric`, with ``read(prim, result) -> float`` on the
    :class:`~repro.spice.tran.TranResult` (the primitive sets the
    measurement thresholds).  The members run one transient each.
    """

    def run(prim, dut: Circuit) -> tuple:
        compiled = CompiledCircuit(build(prim, dut), prim.tech.rules)
        op = dc_operating_point(compiled)
        return read(prim, transient(compiled, t_stop, dt, op=op)), 1

    def evaluate(prim, duts: list[Circuit], caches: list[dict]) -> list:
        return [_captured(lambda: run(prim, dut)) for dut in duts]

    return MetricSpec(name, weight, evaluate, **spec)


# -- readers: ``(op, ac) -> float`` reductions shared across families -----
#
# The branch current of a voltage source flows from its + terminal
# through the source, so the admittance looking *into the circuit* at an
# AC-driven source is ``-I/V`` with ``V = 1``; the magnitudes below are
# sign-free, so they read the branch current directly.


def capacitance_at_probe(freqs: np.ndarray, y: np.ndarray) -> float:
    """Capacitance of an admittance sweep: ``|Im(Y)|/w`` at the probe."""
    k = freq_index(freqs, CAP_PROBE_FREQUENCY)
    return abs(float(np.imag(y[k]))) / (2.0 * np.pi * float(freqs[k]))


def port_capacitance(source: str):
    """Reader: capacitance at the AC voltage source ``source``."""

    def read(op, ac) -> float:
        return capacitance_at_probe(ac.freqs, ac.i(source))

    return read


def port_conductance(source: str):
    """Reader: ``|Re(Y)|`` at f_min at the AC voltage source ``source``.

    Negative-conductance structures (cross-coupled pairs) report the
    magnitude; the sign follows from the topology.
    """

    def read(op, ac) -> float:
        return abs(float(np.real(ac.i(source)[0])))

    return read


def port_resistance(source: str):
    """Reader: small-signal resistance ``1/|Re(Y)|`` at ``source``."""
    conductance = port_conductance(source)

    def read(op, ac) -> float:
        real = conductance(op, ac)
        if real == 0.0:
            raise MeasureError(f"zero real admittance at {source!r}")
        return 1.0 / real

    return read


def transfer_current(sources: list[str], signs: list[float]):
    """Reader: ``|sum(sign * I)|`` at f_min over V-source branch currents.

    Used by Gm testbenches: AC voltage at a gate, AC current measured
    through the drain bias sources.
    """

    def read(op, ac) -> float:
        total = 0.0
        for name, sign in zip(sources, signs):
            total = total + sign * ac.i(name)[0]
        return float(abs(total))

    return read


def node_voltage(node: str):
    """Reader: AC voltage magnitude ``|V(node)|`` at f_min."""

    def read(op, ac) -> float:
        return float(abs(ac.v(node)[0]))

    return read


#: Offset-bisection resolution (V): results below this are reported 0.0.
_OFFSET_TOL = 1e-7


def _snap_offset(offset: float) -> float:
    """An offset below the bisection resolution, which is
    indistinguishable from zero, reported as exactly 0.0.

    Snapping lets downstream consumers (the cost function's
    zero-schematic-reference branch) see a true zero: a perfectly
    symmetric circuit must measure 0.0 regardless of which LU backend
    solved it — pivoting-order noise at the 1e-16 level otherwise walks
    the bisection to an arbitrary sub-tolerance midpoint.
    """
    return 0.0 if abs(offset) < _OFFSET_TOL else offset


def dc_offset_bisection_many(
    tbs: list[Circuit],
    drive,
    tech: Technology,
    response,
    lo: float = -0.05,
    hi: float = 0.05,
) -> list:
    """Input-referred offsets via bisection on a DC response, K
    bisections in lock-step.

    Args:
        tbs: The testbenches, each built once at any input.
        drive: Callable ``(x) -> {source name: DC level}`` giving the
            testbench's input-source levels at differential input ``x``
            (the same levels the testbench builder sets, so the built
            netlist and the drive cannot disagree).
        tech: Technology node.
        response: Callable ``(op) -> float`` extracting the quantity to
            null (e.g. differential output current).
        lo, hi: Bisection bracket (V).

    Each testbench compiles once; every point solves a copy with the
    input sources set (:meth:`~repro.spice.mna.CompiledCircuit
    .with_dc_sources`), and each bisection round solves every live
    member's point through one :func:`~repro.spice.dc
    .dc_operating_points` call.  Successive points differ by at most the
    bracket width and the gap halves every round, so each solve after
    the first (which starts from zero) starts from the member's previous
    solution.

    Returns one entry per member: the input voltage nulling the response
    (magnitudes below the bisection resolution snapped to exactly
    ``0.0``), or the captured exception
    (:class:`~repro.errors.MeasureError` on a bracket without a sign
    change, :class:`~repro.errors.ConvergenceError` otherwise).
    """
    compileds = [CompiledCircuit(tb, tech.rules) for tb in tbs]
    x_prevs: list[np.ndarray | None] = [None] * len(tbs)

    def evaluate_many(indices: list[int], xs: list[float]) -> list:
        ops = dc_operating_points(
            [compileds[i].with_dc_sources(drive(x)) for i, x in zip(indices, xs)],
            x0s=[x_prevs[i] for i in indices],
        )
        out: list = []
        for i, op in zip(indices, ops):
            if isinstance(op, Exception):
                out.append(op)
                continue
            x_prevs[i] = op.x
            out.append(response(op))
        return out

    roots = measure.find_dc_zero_many(
        evaluate_many, len(tbs), lo, hi, tolerance=_OFFSET_TOL
    )
    return [
        root if isinstance(root, Exception) else _snap_offset(root)
        for root in roots
    ]


def solve_gate_bias(
    tech: Technology,
    tb: Circuit,
    drive,
    current_of,
    i_target: float,
    lo: float = 0.0,
    hi: float | None = None,
) -> float:
    """Find the gate bias that sets a device current to ``i_target``.

    This stands in for the paper's "DC bias conditions ... as input from
    circuit-level schematic simulations": gate-biased primitives derive
    their bias from a target current instead of a hard-coded voltage.

    Args:
        tech: Technology node.
        tb: The schematic testbench, built once at any gate bias.
        drive: Callable ``(v) -> {source name: DC level}`` setting the
            testbench's gate source to bias ``v``.
        current_of: Callable ``(op) -> float`` extracting the device
            current.
        i_target: Target current (A).
        lo, hi: Search bracket; ``hi`` defaults to VDD.

    Returns:
        The bias voltage.
    """
    hi = tech.vdd if hi is None else hi
    compiled = CompiledCircuit(tb, tech.rules)

    def evaluate(v: float) -> float:
        op = dc_operating_point(compiled.with_dc_sources(drive(v)))
        return current_of(op) - i_target

    return measure.find_dc_zero(evaluate, lo, hi, tolerance=1e-6)


def standard_pulse(v_low: float, v_high: float, delay: float = 5.0e-11) -> Pulse:
    """The input pulse used by delay testbenches."""
    return Pulse(
        v1=v_low, v2=v_high, delay=delay, rise=5e-12, fall=5e-12, width=2e-9, period=0.0
    )
