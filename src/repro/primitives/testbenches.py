"""Shared testbench building blocks for primitive metrics.

A metric testbench wires a DUT netlist (schematic or extracted — both
expose the same port names) into a stimulated circuit and reduces its
simulation to one number, the way the paper's per-metric SPICE
testbenches do (Fig. 4).  :func:`ac_metric` and :func:`dc_metric`
declare such a metric once and derive both its serial and its stacked
evaluator.  A metric evaluation reports ``(value, n_simulations)``,
where a "simulation" is one analysis run (op / ac sweep / transient),
matching the accounting of Table V.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, MeasureError, SingularMatrixError
from repro.primitives.base import MetricSpec
from repro.runtime.failures import is_eval_failure
from repro.spice import measure
from repro.spice.ac import ac_analysis, ac_analysis_many
from repro.spice.dc import (
    dc_operating_point,
    dc_operating_points,
    newton_operating_points,
)
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


def run_ac(tb: Circuit, tech: Technology):
    """Operating point + AC sweep; returns (op, ac), costing 1 'sim'."""
    compiled = CompiledCircuit(tb, tech.rules)
    op = dc_operating_point(compiled)
    ac = ac_analysis(compiled, op, AC_START, AC_STOP, AC_PPD)
    return op, ac


def run_op(tb: Circuit, tech: Technology):
    """Operating point only."""
    compiled = CompiledCircuit(tb, tech.rules)
    return dc_operating_point(compiled)


def freq_index(freqs: np.ndarray, target: float) -> int:
    """Index of the sweep point closest to ``target`` (log distance)."""
    return int(np.argmin(np.abs(np.log10(freqs) - np.log10(target))))


def run_op_many(tbs: list[Circuit], tech: Technology) -> list:
    """Stacked :func:`run_op`: operating point (or exception) per member.

    Failures are *captured per member*, so one diverging member never
    hides the rest of the stack; values are bitwise identical to
    calling :func:`run_op` per member.
    """
    compileds = [CompiledCircuit(tb, tech.rules) for tb in tbs]
    return dc_operating_points(compileds)


def run_ac_many(tbs: list[Circuit], tech: Technology) -> list:
    """Stacked :func:`run_ac`: ``(op, ac)`` (or exception) per member."""
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
# below derive both evaluators of a :class:`MetricSpec` from that single
# definition: ``evaluate`` simulates one DUT (``run_ac``/``run_op``) and
# ``batch_evaluate`` simulates a whole stack (``run_ac_many``/
# ``run_op_many``), so the two cannot drift apart.  Each costs one
# simulation per DUT (Table V accounting).


def _read_members(read, results: list) -> list:
    """``(read(*args), 1)`` per member, or the member's captured failure.

    A reader raising an evaluation failure marks only its own member;
    any other exception is a bug and propagates.
    """
    out: list = []
    for args in results:
        if isinstance(args, Exception):
            out.append(args)
            continue
        try:
            out.append((read(*args), 1))
        except Exception as exc:
            if not is_eval_failure(exc):
                raise
            out.append(exc)
    return out


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

    def evaluate(prim, dut: Circuit, cache: dict):
        op, ac = run_ac(build(prim, dut), prim.tech)
        return read(op, ac), 1

    def batch_evaluate(prim, duts: list[Circuit], caches: list[dict]) -> list:
        runs = run_ac_many([build(prim, dut) for dut in duts], prim.tech)
        return _read_members(read, runs)

    return MetricSpec(name, weight, evaluate, batch_evaluate=batch_evaluate, **spec)


def dc_metric(name: str, weight: float, build, read, **spec) -> MetricSpec:
    """A metric measured on an operating point alone.

    As :func:`ac_metric`, with ``read(op) -> float``.
    """

    def evaluate(prim, dut: Circuit, cache: dict):
        return read(run_op(build(prim, dut), prim.tech)), 1

    def batch_evaluate(prim, duts: list[Circuit], caches: list[dict]) -> list:
        ops = run_op_many([build(prim, dut) for dut in duts], prim.tech)
        return _read_members(
            read, [op if isinstance(op, Exception) else (op,) for op in ops]
        )

    return MetricSpec(name, weight, evaluate, batch_evaluate=batch_evaluate, **spec)


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


def run_transient(
    tb: Circuit,
    tech: Technology,
    t_stop: float,
    dt: float,
    ics: dict[str, float] | None = None,
):
    """Transient run; returns the TranResult, costing 1 'sim'."""
    compiled = CompiledCircuit(tb, tech.rules)
    op = dc_operating_point(compiled, force=ics)
    return transient(compiled, t_stop=t_stop, dt=dt, op=op)


#: Offset-bisection resolution (V): results below this are reported 0.0.
_OFFSET_TOL = 1e-7


def _warm_start(x_prev: np.ndarray | None, compiled: CompiledCircuit):
    """Initial guess of a bisection DC solve: the previous point's solution.

    Successive bisection inputs differ by at most the bracket width and
    the gap halves every round, so the member's last converged solution
    is a close guess.  The first (``lo``) point has none and starts from
    zero, as does a testbench whose system changed size.
    """
    if x_prev is None or len(x_prev) != compiled.size:
        return None
    return x_prev


def dc_offset_bisection(
    build_tb,
    tech: Technology,
    response,
    lo: float = -0.05,
    hi: float = 0.05,
) -> float:
    """Input-referred offset via bisection on a DC response.

    Args:
        build_tb: Callable ``(x) -> Circuit`` building the testbench with
            differential input ``x``.
        tech: Technology node.
        response: Callable ``(op) -> float`` extracting the quantity to
            null (e.g. differential output current).
        lo, hi: Bisection bracket (V).

    Returns:
        The input voltage nulling the response; magnitudes below the
        bisection tolerance report as exactly ``0.0``.

    Each DC solve after the first starts from the previous point's
    solution (see :func:`_warm_start`).
    """

    x_prev = None

    def evaluate(x: float) -> float:
        nonlocal x_prev
        compiled = CompiledCircuit(build_tb(x), tech.rules)
        op = dc_operating_point(compiled, x0=_warm_start(x_prev, compiled))
        x_prev = op.x
        return response(op)

    offset = measure.find_dc_zero(evaluate, lo, hi, tolerance=_OFFSET_TOL)
    # An offset below the bisection resolution is indistinguishable from
    # zero.  Snap it so downstream consumers (the cost function's
    # zero-schematic-reference branch) see a true zero: a perfectly
    # symmetric circuit must measure 0.0 regardless of which LU backend
    # solved it — pivoting-order noise at the 1e-16 level otherwise
    # walks the bisection to an arbitrary sub-tolerance midpoint.
    return 0.0 if abs(offset) < _OFFSET_TOL else offset


def dc_offset_bisection_many(
    build_tbs: list,
    tech: Technology,
    response,
    lo: float = -0.05,
    hi: float = 0.05,
) -> list:
    """Batched :func:`dc_offset_bisection`: K bisections in lock-step.

    Each bisection round solves every live member's testbench through
    one stacked Newton call, and — since successive bisection inputs
    change only independent-source values — each member's system is
    *compiled once*: later rounds rebuild the (cheap) netlist, verify it
    is :meth:`~repro.spice.mna.CompiledCircuit.structurally_like` the
    compiled one, and restamp only the right-hand side.  A member the
    fast path cannot serve (structure drift, plain-Newton divergence
    where the serial solver would climb its homotopy ladder) drops to a
    per-evaluation serial solve with identical results.  Both paths
    warm-start each solve from the member's previous solution, exactly
    as the serial helper does.

    Returns one entry per member: the offset (snapped to 0.0 below the
    bisection resolution, exactly like the serial helper), or the
    captured exception the serial helper would have raised
    (:class:`~repro.errors.MeasureError` on a bracket without a sign
    change, solver errors otherwise).
    """
    count = len(build_tbs)
    compileds: list[CompiledCircuit | None] = [None] * count
    serial_member = [False] * count
    x_prevs: list[np.ndarray | None] = [None] * count

    def serial_eval(i: int, tb: Circuit):
        compiled = CompiledCircuit(tb, tech.rules)
        try:
            op = dc_operating_point(
                compiled, x0=_warm_start(x_prevs[i], compiled)
            )
        except (ConvergenceError, SingularMatrixError) as exc:
            return exc
        x_prevs[i] = op.x
        return response(op)

    def evaluate_many(indices: list[int], xs: list[float]) -> list:
        out: list = [None] * len(indices)
        stacked_js: list[int] = []
        stacked_compileds: list[CompiledCircuit] = []
        stacked_rhs: list[np.ndarray] = []
        stacked_x0s: list[np.ndarray | None] = []
        for j, (i, x) in enumerate(zip(indices, xs)):
            tb = build_tbs[i](x)
            if serial_member[i]:
                out[j] = serial_eval(i, tb)
                continue
            compiled = compileds[i]
            if compiled is None:
                compiled = CompiledCircuit(tb, tech.rules)
                compileds[i] = compiled
                rhs = compiled.source_rhs(t=None, scale=1.0)
            elif compiled.structurally_like(tb):
                rhs = compiled.source_rhs_like(tb)
            else:
                serial_member[i] = True
                out[j] = serial_eval(i, tb)
                continue
            stacked_js.append(j)
            stacked_compileds.append(compiled)
            stacked_rhs.append(rhs)
            stacked_x0s.append(_warm_start(x_prevs[i], compiled))
        if stacked_js:
            ops = newton_operating_points(
                stacked_compileds, rhs_srcs=stacked_rhs, x0s=stacked_x0s
            )
            for j, op in zip(stacked_js, ops):
                i = indices[j]
                if op is None:
                    # Plain Newton diverged; the serial path replays it
                    # from the same start, then climbs the gmin/source-
                    # stepping ladder.
                    out[j] = serial_eval(i, build_tbs[i](xs[j]))
                else:
                    x_prevs[i] = op.x
                    out[j] = response(op)
        return out

    roots = measure.find_dc_zero_many(
        evaluate_many, count, lo, hi, tolerance=_OFFSET_TOL
    )
    return [
        root
        if isinstance(root, Exception)
        else (0.0 if abs(root) < _OFFSET_TOL else root)
        for root in roots
    ]


def solve_gate_bias(
    tech: Technology,
    build_tb,
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
        build_tb: Callable ``(v) -> Circuit`` building the schematic
            testbench at gate bias ``v``.
        current_of: Callable ``(op) -> float`` extracting the device
            current.
        i_target: Target current (A).
        lo, hi: Search bracket; ``hi`` defaults to VDD.

    Returns:
        The bias voltage.
    """
    hi = tech.vdd if hi is None else hi

    def evaluate(v: float) -> float:
        compiled = CompiledCircuit(build_tb(v), tech.rules)
        op = dc_operating_point(compiled)
        return current_of(op) - i_target

    return measure.find_dc_zero(evaluate, lo, hi, tolerance=1e-6)


def standard_pulse(v_low: float, v_high: float, delay: float = 5.0e-11) -> Pulse:
    """The input pulse used by delay testbenches."""
    return Pulse(
        v1=v_low, v2=v_high, delay=delay, rise=5e-12, fall=5e-12, width=2e-9, period=0.0
    )
