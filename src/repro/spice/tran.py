"""Transient analysis.

Time integration is trapezoidal for capacitors (needed for low numerical
damping in oscillators) with a backward-Euler first step, and backward
Euler for inductor branches.  Each step runs damped Newton on the DC
nonlinearities with capacitor companion models; device capacitances are
re-evaluated at the previously converged point (quasi-static), which keeps
the Newton Jacobian simple while tracking bias-dependent capacitance.
Newton starts from that same point, so the one model evaluation there
also linearizes the first iteration: a step evaluates the devices once
per Newton iteration.

The stepper takes one trapezoidal step per output point ``dt``.  A step
whose Newton iteration fails is retried as two half steps, recursively,
up to :data:`MAX_STEP_HALVINGS` times; each retry counts in
``SolverStats.tran_rejected``.  Every step, linear networks included,
solves through the transient :class:`~repro.spice.kernel.SystemTemplate`
and so keeps its Tikhonov rescue.  Stepping is deterministic: it depends
only on the circuit and the grid, never on wall-clock or randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, NetlistError, SingularMatrixError
from repro.runtime import faults
from repro.spice import kernel
from repro.spice.dc import (
    RELTOL,
    VNTOL,
    VOLTAGE_LIMIT,
    OperatingPoint,
    dc_operating_point,
)
from repro.spice.mna import CompiledCircuit

#: Maximum Newton iterations per time step.
MAX_STEP_ITERATIONS = 60

#: Maximum number of times a failing step may be halved.
MAX_STEP_HALVINGS = 10


@dataclass
class TranResult:
    """Result of a transient run.

    Attributes:
        compiled: The compiled circuit.
        t: Time points (s), shape (nsteps,).
        solutions: Solution matrix, shape (nsteps, size).
    """

    compiled: CompiledCircuit
    t: np.ndarray
    solutions: np.ndarray

    def v(self, node: str) -> np.ndarray:
        """Node voltage waveform (zeros for ground)."""
        idx = self.compiled.index_of(node)
        if idx == self.compiled.ghost:
            return np.zeros(len(self.t))
        return self.solutions[:, idx]

    def i(self, branch_name: str) -> np.ndarray:
        """Branch current waveform (voltage source / VCVS / inductor)."""
        try:
            idx = self.compiled.branch_index[branch_name]
        except KeyError:
            raise NetlistError(f"{branch_name!r} is not a branch element") from None
        return self.solutions[:, idx]

    def vdiff(self, plus: str, minus: str) -> np.ndarray:
        """Differential voltage waveform."""
        return self.v(plus) - self.v(minus)


def _tran_template(
    compiled: CompiledCircuit, backend: str
) -> "kernel.SystemTemplate":
    """The transient Newton system template (cached on the circuit).

    Static part: linear conductances and all branch topology rows.
    Dynamic slots, in order: MOSFET companion conductances (change per
    Newton iteration), element-capacitor companions, MOSFET-capacitance
    companions, and the inductor branch diagonal (all three change only
    with the step size / bias point of the step).
    """

    def build() -> "kernel.SystemTemplate":
        mos_rows, mos_cols = compiled.mos_conductance_pattern()
        cap_rows, cap_cols = compiled.capacitor_pattern()
        mc_rows, mc_cols = compiled.mos_capacitance_pattern()
        ind = compiled.inductor_branch_indices()
        return kernel.SystemTemplate(
            compiled.size,
            compiled.static_conductance_triplets(),
            np.concatenate([mos_rows, cap_rows, mc_rows, ind]),
            np.concatenate([mos_cols, cap_cols, mc_cols, ind]),
            dtype=float,
            backend=backend,
        )

    return compiled.kernel_template(("tran", backend), build)


class _Integrator:
    """Internal fixed-topology transient stepper."""

    def __init__(self, compiled: CompiledCircuit, backend: str):
        self.compiled = compiled
        self.size = compiled.size
        self.template = _tran_template(compiled, backend)
        self.cap_vals = compiled.capacitor_values()
        cap_rows, cap_cols = compiled.capacitor_pattern()
        mc_rows, mc_cols = compiled.mos_capacitance_pattern()
        # Combined capacitance pattern for the history mat-vec.
        self.c_rows = np.concatenate([cap_rows, mc_rows])
        self.c_cols = np.concatenate([cap_cols, mc_cols])
        self.ind_branches = compiled.inductor_branch_indices()
        self.ind_l = compiled.inductor_inductances()

    def step(
        self,
        x_prev: np.ndarray,
        xdot_prev: np.ndarray,
        t_new: float,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Advance one trapezoidal step; returns (x, xdot) or None."""
        compiled = self.compiled
        size = self.size
        stats = kernel.active()

        ev_prev = compiled.eval_mosfets(x_prev)
        mos_cap_vals = compiled.mos_capacitance_values(ev_prev)
        c_vals = np.concatenate([self.cap_vals, mos_cap_vals])
        # Trapezoidal companion: (G + 2C/dt) x = rhs + C (2/dt x_prev + xdot_prev)
        hist = kernel.coo_matvec(
            self.c_rows,
            self.c_cols,
            c_vals,
            (2.0 / dt) * x_prev + xdot_prev,
            size,
        )
        # Per-step dynamic values: capacitor companions and the
        # backward-Euler inductor branch diagonal.
        step_vals = np.concatenate([(2.0 / dt) * c_vals, -self.ind_l / dt])

        rhs_src = compiled.source_rhs(t=t_new)
        if len(self.ind_branches):
            rhs_src[self.ind_branches] -= (self.ind_l / dt) * x_prev[
                self.ind_branches
            ]

        # The first Newton iterate is ``x_prev`` itself, so its
        # linearization is the evaluation the companions were built from.
        x = x_prev.copy()
        ev = ev_prev
        for iteration in range(MAX_STEP_ITERATIONS):
            if stats is not None:
                stats.newton_iterations += 1
            rhs = rhs_src.copy()
            if iteration:
                ev = compiled.eval_mosfets(x)
            if ev is not None:
                compiled.stamp_mos_rhs(rhs, ev, x)
            b_core = rhs[:size] + hist

            try:
                x_new, _recovered = self.template.solve(
                    np.concatenate([compiled.mos_conductance_values(ev), step_vals]),
                    b_core,
                )
            except SingularMatrixError:
                # Let the step-halving cascade shrink dt instead.
                return None

            delta = x_new - x
            dv = delta[: compiled.num_nodes]
            max_dv = float(np.max(np.abs(dv))) if len(dv) else 0.0
            if max_dv > VOLTAGE_LIMIT:
                x = x + delta * (VOLTAGE_LIMIT / max_dv)
                continue
            x = x_new
            if max_dv < VNTOL + RELTOL * np.max(
                np.abs(x[: compiled.num_nodes]), initial=0.0
            ):
                xdot = (2.0 / dt) * (x - x_prev) - xdot_prev
                return x, xdot
        return None

    def advance(
        self,
        x_prev: np.ndarray,
        xdot_prev: np.ndarray,
        t_prev: float,
        dt: float,
        depth: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance by ``dt``, recursively halving on Newton failure."""
        result = self.step(x_prev, xdot_prev, t_prev + dt, dt)
        if result is not None:
            return result
        if depth >= MAX_STEP_HALVINGS:
            raise ConvergenceError(
                f"transient step failed at t={t_prev:.4g}s even after "
                f"{MAX_STEP_HALVINGS} halvings",
                code="CONV-TRAN",
            )
        stats = kernel.active()
        if stats is not None:
            stats.tran_rejected += 1
        half = dt / 2.0
        x_mid, xdot_mid = self.advance(x_prev, xdot_prev, t_prev, half, depth + 1)
        return self.advance(x_mid, xdot_mid, t_prev + half, half, depth + 1)


def transient(
    compiled: CompiledCircuit,
    t_stop: float,
    dt: float,
    op: OperatingPoint | None = None,
    ics: dict[str, float] | None = None,
) -> TranResult:
    """Run a transient analysis from 0 to ``t_stop``.

    Takes one trapezoidal step per grid point ``0, dt, 2·dt, …``; a step
    that fails Newton is retried as two half steps (see
    :meth:`_Integrator.advance`).

    Args:
        compiled: The compiled circuit.
        t_stop: End time (s).
        dt: Step and output-grid spacing (s).
        op: Optional pre-computed operating point to start from.
        ics: Optional node voltages pinned during the initial DC solve
            (nodeset); used to break oscillator symmetry.

    Returns:
        A :class:`TranResult` sampled at multiples of ``dt``.
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise NetlistError("need 0 < dt <= t_stop")

    injector = faults.active()
    if injector is not None:
        injector.check_tran(compiled.circuit.name)

    stats = kernel.active()
    if stats is not None:
        stats.count_analysis("tran")

    if op is None:
        op = dc_operating_point(compiled, force=ics)
    x = op.x.copy()

    steps = int(round(t_stop / dt))
    times = np.arange(steps + 1) * dt
    integrator = _Integrator(compiled, kernel.backend_for(compiled.size))

    # Backward-Euler first step to avoid trapezoidal ringing from the
    # (possibly inconsistent) initial condition: achieved by taking the
    # first trapezoidal step with xdot = 0, which reduces to BE flavour.
    xdot = np.zeros_like(x)
    solutions = np.zeros((steps + 1, compiled.size))
    solutions[0] = x
    for k in range(1, steps + 1):
        x, xdot = integrator.advance(x, xdot, times[k - 1], dt)
        solutions[k] = x
        if stats is not None:
            stats.tran_steps += 1

    return TranResult(compiled=compiled, t=times, solutions=solutions)
