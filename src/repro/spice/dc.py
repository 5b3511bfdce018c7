"""DC operating-point analysis and DC sweeps.

The solver is damped Newton-Raphson on the MNA system with two standard
homotopies layered on top:

1. **gmin stepping** — a shunt conductance from every node to ground is
   swept from large to negligible, each solve warm-starting the next;
2. **source stepping** — if gmin stepping fails, all independent sources
   are ramped from 10% to 100%.

``force`` lets callers pin chosen nodes near given voltages through a
large conductance during the solve — the *nodeset* mechanism used to break
the symmetry of oscillators before transient analysis.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.devices.mosfet import MosEval, evaluate_mosfets
from repro.errors import ConvergenceError, NetlistError, SingularMatrixError
from repro.runtime import context as eval_context
from repro.runtime import faults
from repro.spice import kernel
from repro.spice.mna import CompiledCircuit

#: Maximum node-voltage update per Newton iteration (V).
VOLTAGE_LIMIT = 0.3

#: Convergence tolerance on node voltages (V).
VNTOL = 1.0e-9

#: Relative convergence tolerance.
RELTOL = 1.0e-6

#: Conductance used to pin nodes listed in ``force`` (S).
FORCE_CONDUCTANCE = 1.0e3

#: Residual gmin left on every node for numerical robustness (S).
GMIN_FLOOR = 1.0e-12


@dataclass
class OperatingPoint:
    """Converged DC solution.

    Attributes:
        compiled: The compiled circuit the solution belongs to.
        x: Solution vector (node voltages then branch currents).
        mos_eval: Vectorized MOSFET evaluation at the solution (or None).
        recovery: Recovery paths the solve needed, in order — empty for
            a plain Newton solve, otherwise tags such as
            ``"gmin-stepping"``, ``"source-stepping"`` and
            ``"tikhonov"`` (singular-matrix fallback).
    """

    compiled: CompiledCircuit
    x: np.ndarray
    mos_eval: MosEval | None
    recovery: tuple[str, ...] = field(default=())

    def v(self, node: str) -> float:
        """Voltage of ``node`` (0.0 for ground)."""
        idx = self.compiled.index_of(node)
        if idx == self.compiled.ghost:
            return 0.0
        return float(self.x[idx])

    def i(self, branch_name: str) -> float:
        """Branch current of a voltage source, VCVS or inductor.

        For a voltage source the current flows from its positive terminal
        through the source to its negative terminal (SPICE convention).
        """
        try:
            return float(self.x[self.compiled.branch_index[branch_name]])
        except KeyError:
            raise NetlistError(
                f"{branch_name!r} is not a branch element (vsource/vcvs/inductor)"
            ) from None

    def mos(self, name: str) -> dict[str, float]:
        """Per-device operating point (id, gm, gds, capacitances)."""
        if self.mos_eval is None:
            raise NetlistError("circuit has no MOSFETs")
        return self.compiled.mos_eval_by_name(self.mos_eval, name)

    def net_currents(self) -> dict[str, float]:
        """Worst-case DC current each net must carry (A), per net.

        Folds every MOSFET's drain current onto its drain and source
        nets (``id > 0`` flows drain -> source inside the device, so it
        leaves the net at the drain and enters it at the source) and
        returns ``max(total inflow, total outflow)`` per net — the
        static bound on the current the net's metal mesh must carry,
        however the flow actually closes (through a port, a supply or
        another device).  Gates and bulks carry no DC current.

        This is the branch-current source the static EM/IR audit
        (:mod:`repro.verify.emag`) consumes when an operating point is
        available; nets are sorted so the result is deterministic.
        """
        if self.mos_eval is None:
            return {}
        inflow: dict[str, float] = {}
        outflow: dict[str, float] = {}
        for elem in self.compiled.mos_elements:
            drain_amps = self.mos(elem.name)["id"]
            for net, flow in ((elem.d, -drain_amps), (elem.s, drain_amps)):
                if flow >= 0.0:
                    inflow[net] = inflow.get(net, 0.0) + flow
                else:
                    outflow[net] = outflow.get(net, 0.0) - flow
        return {
            net: max(inflow.get(net, 0.0), outflow.get(net, 0.0))
            for net in sorted(set(inflow) | set(outflow))
        }


def _dc_template(
    compiled: CompiledCircuit, backend: str
) -> "kernel.SystemTemplate":
    """The DC Newton system template (cached on the compiled circuit).

    Static part: linear conductances plus all branch topology rows
    (inductors are DC shorts, so their topology rows are the whole
    stamp).  Dynamic slots: the node diagonal (gmin stepping and
    ``force`` pins) followed by the MOSFET companion conductances.
    """

    def build() -> "kernel.SystemTemplate":
        diag = compiled.node_diag_indices()
        mos_rows, mos_cols = compiled.mos_conductance_pattern()
        return kernel.SystemTemplate(
            compiled.size,
            compiled.static_conductance_triplets(),
            np.concatenate([diag, mos_rows]),
            np.concatenate([diag, mos_cols]),
            dtype=float,
            backend=backend,
        )

    return compiled.kernel_template(("dc", backend), build)


def _max_iterations(compiled: CompiledCircuit) -> int:
    """The Newton iteration budget for one solve.

    Large circuits under heavy damping need more iterations: the voltage
    limiter advances at most ``VOLTAGE_LIMIT`` per step.
    """
    return max(120, 2 * compiled.num_nodes)


def _newton_solve(
    compiled: CompiledCircuit,
    template: "kernel.SystemTemplate",
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    force: dict[str, float] | None,
    recovery: set[str] | None = None,
) -> np.ndarray | None:
    """One damped Newton solve; returns the solution or None.

    ``recovery`` (when given) collects the tags of any singular-matrix
    fallbacks used along the way.
    """
    x = x0.copy()
    rhs_src = compiled.source_rhs(t=None, scale=source_scale)
    stats = kernel.active()

    diag_vals = np.full(compiled.num_nodes, gmin + GMIN_FLOOR)
    if force:
        for node, value in force.items():
            idx = compiled.index_of(node)
            if idx != compiled.ghost:
                diag_vals[idx] += FORCE_CONDUCTANCE
                # Scale the pinned target with the sources so source
                # stepping ramps a consistent bias.
                rhs_src[idx] += FORCE_CONDUCTANCE * value * source_scale

    limit = VOLTAGE_LIMIT
    prev_dv: np.ndarray | None = None
    for _ in range(_max_iterations(compiled)):
        if stats is not None:
            stats.newton_iterations += 1
        rhs = rhs_src.copy()
        ev = compiled.eval_mosfets(x)
        if ev is not None:
            compiled.stamp_mos_rhs(rhs, ev, x)

        try:
            x_new, recovered = template.solve(
                np.concatenate([diag_vals, compiled.mos_conductance_values(ev)]),
                rhs,
            )
        except SingularMatrixError:
            # Truly unsolvable step: bail out so the gmin/source-stepping
            # homotopies (which regularize the physics, not the algebra)
            # get their chance.
            return None
        if recovered is not None and recovery is not None:
            recovery.add(recovered)

        delta = x_new - x
        dv = delta[: compiled.num_nodes]
        max_dv = np.max(np.abs(dv)) if len(dv) else 0.0

        # Oscillation-aware damping: when the update direction flips
        # (Newton cycling between basins, e.g. a near-metastable latch),
        # shrink the step limit so the iteration settles into one basin.
        if prev_dv is not None and len(dv) and float(np.dot(dv, prev_dv)) < 0.0:
            limit = max(0.01, limit * 0.6)
        else:
            limit = min(VOLTAGE_LIMIT, limit * 1.3)
        prev_dv = dv.copy()

        if max_dv > limit:
            delta = delta * (limit / max_dv)
            x = x + delta
            continue
        x = x_new
        if max_dv < VNTOL + RELTOL * np.max(np.abs(x[: compiled.num_nodes]), initial=0.0):
            return x
    return None


def dc_operating_point(
    compiled: CompiledCircuit,
    x0: np.ndarray | None = None,
    force: dict[str, float] | None = None,
) -> OperatingPoint:
    """Compute the DC operating point.

    Args:
        compiled: The compiled circuit.
        x0: Optional initial guess (warm start).
        force: Optional nodeset, mapping node names to voltages that are
            softly pinned during the solve (used to bias oscillators off
            their metastable point).

    Raises:
        ConvergenceError: If Newton fails even after gmin and source
            stepping (failure code ``CONV-DC``).
        SingularMatrixError: Only via fault injection; organic singular
            steps are absorbed by the Tikhonov fallback or the
            homotopies.
    """
    injector = faults.active()
    if injector is not None:
        injector.check_dc(compiled.circuit.name)

    stats = kernel.active()
    if stats is not None:
        stats.count_analysis("dc")
    backend = kernel.backend_for(compiled.size)
    template = _dc_template(compiled, backend)

    x = x0.copy() if x0 is not None else np.zeros(compiled.size)
    x = _perturb_retry_guess(x)
    recovery: set[str] = set()

    # Plain Newton first: cheap and usually sufficient with a warm start.
    solution = _newton_solve(
        compiled, template, x, gmin=0.0, source_scale=1.0, force=force,
        recovery=recovery,
    )
    if solution is not None:
        return _finish(compiled, solution, recovery)

    # gmin stepping.
    recovery.add("gmin-stepping")
    for exponent in range(3, 13):
        gmin = 10.0 ** (-exponent)
        solution = _newton_solve(
            compiled, template, x, gmin=gmin, source_scale=1.0, force=force,
            recovery=recovery,
        )
        if solution is None:
            break
        x = solution
    else:
        solution = _newton_solve(
            compiled, template, x, gmin=0.0, source_scale=1.0, force=force,
            recovery=recovery,
        )
        if solution is not None:
            return _finish(compiled, solution, recovery)

    # Source stepping fallback, with a supporting gmin that relaxes as
    # the sources ramp up.
    recovery.add("source-stepping")
    x = np.zeros(compiled.size)
    for scale in np.linspace(0.1, 1.0, 10):
        stepped = _newton_solve(
            compiled,
            template,
            x,
            gmin=1e-9 * (1.0 - scale) + 1e-12,
            source_scale=float(scale),
            force=force,
            recovery=recovery,
        )
        if stepped is None:
            raise ConvergenceError(
                f"DC operating point failed for circuit "
                f"{compiled.circuit.name!r} at source scale {scale:.2f}",
                code="CONV-DC",
            )
        x = stepped
    final = _newton_solve(
        compiled, template, x, gmin=0.0, source_scale=1.0, force=force,
        recovery=recovery,
    )
    if final is None:
        raise ConvergenceError(
            f"DC operating point failed for circuit "
            f"{compiled.circuit.name!r} after source stepping",
            code="CONV-DC",
        )
    return _finish(compiled, final, recovery)


#: Order in which recovery tags are reported on an OperatingPoint.
_RECOVERY_ORDER = ("gmin-stepping", "source-stepping", "tikhonov")


def _perturb_retry_guess(x: np.ndarray) -> np.ndarray:
    """Perturb the initial guess on retry attempts.

    The evaluation runtime sets a nonzero perturbation amplitude on
    retries; a deterministic per-(key, attempt) perturbation keeps a
    retried solve from replaying the exact failing trajectory while
    remaining reproducible.
    """
    ctx = eval_context.current()
    if ctx is None or ctx.perturbation <= 0.0 or not len(x):
        return x
    seed = zlib.crc32(f"{ctx.key}|{ctx.attempt}".encode())
    rng = np.random.default_rng(seed)
    return x + ctx.perturbation * rng.standard_normal(len(x))


def _finish(
    compiled: CompiledCircuit, x: np.ndarray, recovery: set[str] | None = None
) -> OperatingPoint:
    tags = tuple(
        tag for tag in _RECOVERY_ORDER if recovery and tag in recovery
    )
    return OperatingPoint(
        compiled=compiled,
        x=x,
        mos_eval=compiled.eval_mosfets(x),
        recovery=tags,
    )


# -- batched operating points -------------------------------------------------
#
# Library selection sweeps evaluate many near-identical variants whose
# netlists share one system pattern — only device values differ.  The
# helpers below stamp K such circuits into one
# :class:`~repro.spice.kernel.BatchedSystemTemplate` and run damped
# Newton across the batch in lockstep with per-member masking: converged
# members freeze, stragglers keep iterating, and every per-member
# floating-point operation (damping dot product, voltage limiting,
# convergence test) replays the serial :func:`_newton_solve` exactly, so
# results are bitwise identical to one-at-a-time solves.


class _DcGroup:
    """One template-compatible slice of a batch, stacked for solving."""

    def __init__(
        self,
        indices: list[int],
        compileds: list[CompiledCircuit],
        templates: list["kernel.SystemTemplate"],
    ):
        self.indices = indices
        self.compileds = compileds
        self.batched = kernel.BatchedSystemTemplate(templates)
        first = compileds[0]
        self.num_nodes = first.num_nodes
        self.size = first.size
        self.num_devices = len(first.mos_elements)
        if self.num_devices:
            stack = lambda name: np.stack(  # noqa: E731 - tiny local adapter
                [getattr(c, name) for c in compileds]
            )
            self._params = tuple(
                stack(name)
                for name in (
                    "_mos_pol", "_mos_vth", "_mos_n", "_mos_ispec",
                    "_mos_lam", "_mos_theta", "_mos_coxwl", "_mos_cov",
                    "_mos_cdb", "_mos_csb",
                )
            )
            self._mos_g = first._mos_g
            self._mos_d = first._mos_d
            self._mos_s = first._mos_s

    def eval_mosfets(self, x: np.ndarray, act: np.ndarray) -> MosEval | None:
        """Evaluate the active members' MOSFETs in one vectorized call.

        ``x`` is the ``(len(act), size)`` stacked solution of the
        still-live members, ``act`` their row indices into the group;
        the model is purely elementwise, so evaluating the stacked
        devices gives the same per-device values as serial calls.
        """
        if not self.num_devices:
            return None
        stats = kernel.active()
        t0 = kernel._clock() if stats is not None else 0.0
        xg = np.concatenate([x, np.zeros((len(x), 1))], axis=1)
        ev = evaluate_mosfets(
            *(p[act] for p in self._params),
            xg[:, self._mos_g],
            xg[:, self._mos_d],
            xg[:, self._mos_s],
        )
        if stats is not None:
            stats.device_eval_s += kernel._clock() - t0
        return ev


def _group_batch(compileds: list[CompiledCircuit]) -> list[_DcGroup]:
    """Partition a batch into template-compatible groups (order kept)."""
    groups: list[list[int]] = []
    templates: list["kernel.SystemTemplate"] = []
    for i, compiled in enumerate(compileds):
        backend = kernel.backend_for(compiled.size)
        template = _dc_template(compiled, backend)
        templates.append(template)
        for members in groups:
            if kernel.templates_compatible(templates[members[0]], template):
                members.append(i)
                break
        else:
            groups.append([i])
    return [
        _DcGroup(
            members,
            [compileds[i] for i in members],
            [templates[i] for i in members],
        )
        for members in groups
    ]


def _newton_solve_batch(
    group: _DcGroup,
    x0: np.ndarray,
    rhs_src: np.ndarray,
    max_iterations: int,
    recovery_sets: list[set],
) -> list[np.ndarray | None]:
    """Plain damped Newton over one group, masked per member.

    ``x0``/``rhs_src`` are ``(K, size)`` / ``(K, size+1)`` stacks;
    ``recovery_sets`` collects per-member ``"tikhonov"`` tags.  Returns
    the per-member solution or None (diverged / singular), exactly as K
    serial :func:`_newton_solve` calls with ``gmin=0`` would.
    """
    count = len(group.indices)
    nn = group.num_nodes
    stats = kernel.active()

    x = x0.copy()
    diag = np.full((count, nn), GMIN_FLOOR)
    limit = np.full(count, VOLTAGE_LIMIT)
    prev_dv: np.ndarray | None = None
    has_prev = np.zeros(count, dtype=bool)
    live = np.ones(count, dtype=bool)
    failed = np.zeros(count, dtype=bool)
    solutions: list[np.ndarray | None] = [None] * count
    dyn = np.zeros((count, nn + 6 * group.num_devices))
    rhs = np.zeros_like(rhs_src)

    for _ in range(max_iterations):
        act = np.flatnonzero(live)
        if not len(act):
            break
        if stats is not None:
            stats.newton_iterations += len(act)

        x_act = x[act]
        ev = group.eval_mosfets(x_act, act)
        if ev is not None:
            xg = np.concatenate([x_act, np.zeros((len(act), 1))], axis=1)
            d, g, s = group._mos_d, group._mos_g, group._mos_s
            gms = ev.gms
            ieq = (
                ev.ids
                - ev.gm * xg[:, g]
                - ev.gds * xg[:, d]
                - gms * xg[:, s]
            )
            member = np.arange(len(act))[:, None]
            rhs_act = rhs_src[act].copy()
            np.add.at(rhs_act, (member, d[None, :]), -ieq)
            np.add.at(rhs_act, (member, s[None, :]), ieq)
            rhs[act] = rhs_act
            dyn[act] = np.concatenate(
                [diag[act], ev.gds, ev.gm, gms, -ev.gds, -ev.gm, -gms],
                axis=1,
            )
        else:
            rhs[act] = rhs_src[act]
            dyn[act] = diag[act]

        x_new, recoveries, errors = group.batched.solve(dyn, rhs, live)
        for k in act:
            k = int(k)
            if errors[k] is not None:
                # The serial path bails out of plain Newton here so the
                # homotopies get their chance; mask the member out.
                live[k] = False
                failed[k] = True
            elif recoveries[k] is not None:
                recovery_sets[k].add(recoveries[k])
        act = np.flatnonzero(live)
        if not len(act):
            break

        delta = x_new[act] - x[act]
        dv = delta[:, :nn]
        max_dv = (
            np.max(np.abs(dv), axis=1) if nn else np.zeros(len(act))
        )

        # Oscillation-aware damping, per member (same scalar ops as the
        # serial loop; the dot product stays a per-row 1-D np.dot so the
        # summation order matches the serial path bitwise).
        flips = np.zeros(len(act), dtype=bool)
        if nn and prev_dv is not None:
            for j, k in enumerate(act):
                if has_prev[k] and float(np.dot(dv[j], prev_dv[k])) < 0.0:
                    flips[j] = True
        limit[act] = np.where(
            flips,
            np.maximum(0.01, limit[act] * 0.6),
            np.minimum(VOLTAGE_LIMIT, limit[act] * 1.3),
        )
        if prev_dv is None:
            prev_dv = np.zeros((count, nn))
        prev_dv[act] = dv
        has_prev[act] = True

        over = max_dv > limit[act]
        scale = np.where(over, limit[act] / np.where(max_dv > 0, max_dv, 1.0), 1.0)
        x[act] = np.where(
            over[:, None], x[act] + delta * scale[:, None], x_new[act]
        )

        vmax = (
            np.max(np.abs(x_new[act][:, :nn]), axis=1, initial=0.0)
            if nn
            else np.zeros(len(act))
        )
        converged = ~over & (max_dv < VNTOL + RELTOL * vmax)
        for j, k in enumerate(act):
            if converged[j]:
                k = int(k)
                solutions[k] = x[k].copy()
                live[k] = False
    return solutions


def newton_operating_points(
    compileds: list[CompiledCircuit],
    rhs_srcs: list[np.ndarray] | None = None,
    x0s: list[np.ndarray | None] | None = None,
) -> list[OperatingPoint | None]:
    """Plain-Newton operating points for a batch of circuits.

    The batched half of :func:`dc_operating_points`: groups the circuits
    by template compatibility, runs the masked lockstep Newton per
    group, and finishes converged members into
    :class:`OperatingPoint` objects (with any ``"tikhonov"`` tag
    collected along the way).  Members that plain Newton cannot converge
    come back as None — the caller owns the gmin/source-stepping ladder
    (usually by falling back to the serial :func:`dc_operating_point`,
    which replays the identical failing trajectory first).

    ``rhs_srcs`` optionally overrides each member's DC source vector
    (``compiled.source_rhs(t=None)`` layout) — the compile-once path of
    the batched offset bisection, where successive inputs change only
    source values.  No fault injection, ``force`` pins or retry
    perturbation here: callers gate on those being absent.
    """
    stats = kernel.active()
    results: list[OperatingPoint | None] = [None] * len(compileds)
    if not compileds:
        return results
    for group in _group_batch(compileds):
        count = len(group.indices)
        if stats is not None:
            for _ in range(count):
                stats.count_analysis("dc")
        x0 = np.stack(
            [
                np.zeros(group.size)
                if x0s is None or x0s[i] is None
                else np.asarray(x0s[i], dtype=float)
                for i in group.indices
            ]
        )
        rhs = np.stack(
            [
                group.compileds[j].source_rhs(t=None, scale=1.0)
                if rhs_srcs is None
                else np.asarray(rhs_srcs[i], dtype=float)
                for j, i in enumerate(group.indices)
            ]
        )
        recovery_sets: list[set] = [set() for _ in range(count)]
        solutions = _newton_solve_batch(
            group, x0, rhs, _max_iterations(group.compileds[0]), recovery_sets
        )
        for j, i in enumerate(group.indices):
            if solutions[j] is not None:
                results[i] = _finish(
                    group.compileds[j], solutions[j], recovery_sets[j]
                )
    return results


def dc_operating_points(
    compileds: list[CompiledCircuit],
    x0s: list[np.ndarray | None] | None = None,
    force: dict[str, float] | None = None,
) -> list[OperatingPoint | Exception]:
    """Batched :func:`dc_operating_point` over many circuits.

    Bitwise-identical to calling :func:`dc_operating_point` per member:
    the vectorized lockstep Newton handles the common case, and any
    member it cannot converge (or any batch run under fault injection,
    ``force`` pins or a retry perturbation) goes through the serial path
    unchanged.  Failures are *captured per member* — the returned list
    holds an :class:`OperatingPoint` or the exception the serial call
    would have raised (:class:`~repro.errors.ConvergenceError` /
    :class:`~repro.errors.SingularMatrixError`), so one diverging member
    does not hide the others' results; callers re-raise at the member
    position when they want serial raise semantics.
    """
    ctx = eval_context.current()
    serial_only = (
        faults.active() is not None
        or bool(force)
        or (ctx is not None and ctx.perturbation > 0.0)
    )
    results: list[OperatingPoint | Exception] = [None] * len(compileds)  # type: ignore[list-item]
    if serial_only:
        batched = [None] * len(compileds)
    else:
        batched = newton_operating_points(compileds, x0s=x0s)
    for i, compiled in enumerate(compileds):
        if batched[i] is not None:
            results[i] = batched[i]
            continue
        try:
            results[i] = dc_operating_point(
                compiled,
                x0=None if x0s is None else x0s[i],
                force=force,
            )
        except (ConvergenceError, SingularMatrixError) as exc:
            results[i] = exc
    return results


def dc_sweep(
    compiled: CompiledCircuit,
    source_name: str,
    values: np.ndarray,
) -> list[OperatingPoint]:
    """Sweep the DC level of one source, warm-starting each point.

    The named element must be a :class:`VoltageSource` or
    :class:`CurrentSource`; its waveform is replaced by a DC level and the
    circuit recompiled per sweep point (compilation is linear in element
    count, so this stays cheap for primitive-scale circuits).
    """
    from dataclasses import replace

    from repro.spice.elements import CurrentSource, VoltageSource
    from repro.spice.waveforms import Dc

    circuit = compiled.circuit
    element = circuit.element(source_name)
    if not isinstance(element, (VoltageSource, CurrentSource)):
        raise NetlistError(f"{source_name!r} is not an independent source")

    results: list[OperatingPoint] = []
    x_prev: np.ndarray | None = None
    try:
        for value in values:
            circuit.replace_element(
                source_name, replace(element, waveform=Dc(float(value)))
            )
            point_compiled = CompiledCircuit(circuit, compiled.rules)
            point = dc_operating_point(point_compiled, x0=x_prev)
            results.append(point)
            x_prev = point.x
    finally:
        circuit.replace_element(source_name, element)
    return results
