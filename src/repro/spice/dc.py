"""DC operating-point analysis.

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
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from repro.devices.mosfet import MosEval, channel_current, evaluate_mosfets
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
        recovery: Recovery paths the solve needed, in order — empty for
            a plain Newton solve, otherwise tags such as
            ``"gmin-stepping"``, ``"source-stepping"`` and
            ``"tikhonov"`` (singular-matrix fallback).
    """

    compiled: CompiledCircuit
    x: np.ndarray
    recovery: tuple[str, ...] = field(default=())

    @cached_property
    def mos_eval(self) -> MosEval | None:
        """Vectorized MOSFET evaluation at the solution (None without
        MOSFETs), computed on first read.

        Most operating points are only ever read through :meth:`v` and
        :meth:`i` (bisection points, bias solves, DC metrics), so they
        never pay for the model.  :func:`fill_mos_evals` fills many at
        once, bitwise equal to this serial read.
        """
        return self.compiled.eval_mosfets(self.x)

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
        ev = self.mos_eval
        if ev is None:
            return {}
        inflow: dict[str, float] = {}
        outflow: dict[str, float] = {}
        for elem, ids in zip(self.compiled.mos_elements, ev.ids):
            drain_amps = float(ids)
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


def _dc_inputs(
    compiled: CompiledCircuit,
    gmin: float,
    source_scale: float,
    force: dict[str, float] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One solve's node diagonal and source right-hand side.

    The diagonal is ``gmin`` plus :data:`GMIN_FLOOR` plus the ``force``
    pins' conductance; the right-hand side holds the sources scaled by
    ``source_scale`` and the pins' targets.
    """
    diag = np.full(compiled.num_nodes, gmin + GMIN_FLOOR)
    rhs = compiled.source_rhs(t=None, scale=source_scale)
    for node, value in (force or {}).items():
        idx = compiled.index_of(node)
        if idx != compiled.ghost:
            diag[idx] += FORCE_CONDUCTANCE
            # Scale the pinned target with the sources so source
            # stepping ramps a consistent bias.
            rhs[idx] += FORCE_CONDUCTANCE * value * source_scale
    return diag, rhs


def _newton_one(
    group: "_DcGroup",
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    force: dict[str, float] | None,
    recovery: set[str],
) -> np.ndarray | None:
    """One damped Newton solve of a one-member group (solution or None)."""
    diag, rhs = _dc_inputs(group.compileds[0], gmin, source_scale, force)
    return _newton_solve_batch(group, x0[None], diag[None], rhs[None], [recovery])[0]


def dc_operating_point(
    compiled: CompiledCircuit,
    x0: np.ndarray | None = None,
    force: dict[str, float] | None = None,
) -> OperatingPoint:
    """Compute the DC operating point: :func:`dc_operating_points` on a
    one-member stack, its captured failure re-raised.

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
    (point,) = dc_operating_points([compiled], [x0], [force])
    if isinstance(point, Exception):
        raise point
    return point


def _ladder(
    compiled: CompiledCircuit,
    x: np.ndarray,
    force: dict[str, float] | None,
    recovery: set[str],
) -> OperatingPoint:
    """The homotopies after plain Newton failed from the guess ``x``,
    each solve a one-member stack: gmin stepping, then source stepping."""
    (group,) = _group_batch([compiled])
    recovery.add("gmin-stepping")
    for exponent in range(3, 13):
        solution = _newton_one(group, x, 10.0 ** (-exponent), 1.0, force, recovery)
        if solution is None:
            break
        x = solution
    else:
        solution = _newton_one(group, x, 0.0, 1.0, force, recovery)
        if solution is not None:
            return _finish(compiled, solution, recovery)

    # Source stepping fallback, with a supporting gmin that relaxes as
    # the sources ramp up.
    recovery.add("source-stepping")
    x = np.zeros(compiled.size)
    for scale in np.linspace(0.1, 1.0, 10):
        gmin = 1e-9 * (1.0 - scale) + 1e-12
        stepped = _newton_one(group, x, gmin, float(scale), force, recovery)
        if stepped is None:
            raise ConvergenceError(
                f"DC operating point failed for circuit "
                f"{compiled.circuit.name!r} at source scale {scale:.2f}",
                code="CONV-DC",
            )
        x = stepped
    final = _newton_one(group, x, 0.0, 1.0, force, recovery)
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
    return OperatingPoint(compiled=compiled, x=x, recovery=tags)


# -- the stacked Newton loop --------------------------------------------------
#
# Every DC Newton solve runs here, on a stack of circuits that share one
# system pattern: library selection sweeps evaluate many near-identical
# variants whose netlists differ only in device values, and a serial
# operating point (each rung of its gmin/source-stepping ladder too) is
# a one-member stack.  The members iterate in lockstep on one
# :class:`~repro.spice.kernel.BatchedSystemTemplate`.  The working arrays
# hold only the live members and shrink when one converges or hits a
# singular step.  Every per-member floating-point operation (device
# model, companion stamps, damping dot product, voltage limiting,
# convergence test) is the same in any stack, so a member's result does
# not depend, to the bit, on what it was stacked with.

#: The :class:`CompiledCircuit` MOSFET parameter arrays, in
#: :func:`~repro.devices.mosfet.channel_current` argument order.
_MOS_PARAMS = (
    "_mos_pol", "_mos_vth", "_mos_n", "_mos_ispec", "_mos_lam", "_mos_theta",
)

#: The capacitance arrays that :func:`~repro.devices.mosfet.evaluate_mosfets`
#: takes after :data:`_MOS_PARAMS`.
_MOS_CAPS = ("_mos_coxwl", "_mos_cov", "_mos_cdb", "_mos_csb")


def fill_mos_evals(ops: list[OperatingPoint]) -> None:
    """Evaluate the device model of many operating points at once.

    Members with MOSFETs whose model is not read yet are stacked per
    group of equal system size and device count, and each group costs
    one :func:`~repro.devices.mosfet.evaluate_mosfets` call on
    ``(K, devices)`` arrays.  The model is elementwise, so every
    member's :attr:`OperatingPoint.mos_eval` is bitwise equal to its
    serial read.
    """
    groups: dict[tuple[int, int], list[OperatingPoint]] = {}
    for op in ops:
        if "mos_eval" not in vars(op) and op.compiled.mos_elements:
            key = (op.compiled.size, len(op.compiled.mos_elements))
            groups.setdefault(key, []).append(op)
    stats = kernel.active()
    for members in groups.values():
        compileds = [op.compiled for op in members]
        # Solutions padded with the ghost ground entry, as in the serial read.
        xg = np.stack([np.append(op.x, 0.0) for op in members])
        terminals = [
            np.take_along_axis(
                xg, np.stack([getattr(c, name) for c in compileds]), axis=1
            )
            for name in ("_mos_g", "_mos_d", "_mos_s")
        ]
        params = [
            np.array([getattr(c, name) for c in compileds])
            for name in _MOS_PARAMS + _MOS_CAPS
        ]
        t0 = kernel._clock() if stats is not None else 0.0
        ev = evaluate_mosfets(*params, *terminals)
        if stats is not None:
            stats.device_eval_s += kernel._clock() - t0
        for j, op in enumerate(members):
            op.mos_eval = MosEval(
                **{f.name: getattr(ev, f.name)[j] for f in fields(MosEval)}
            )


class _DcGroup:
    """Template-compatible circuits stacked for one lockstep solve.

    ``indices`` are the members' positions in the caller's batch.
    """

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
        self.terminals = (first._mos_g, first._mos_d, first._mos_s)
        self.params = (
            tuple(
                np.array([getattr(c, name) for c in compileds])
                for name in _MOS_PARAMS
            )
            if first.mos_elements
            else ()
        )


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
    diag: np.ndarray,
    rhs_src: np.ndarray,
    recoveries: list[set],
) -> list[np.ndarray | None]:
    """Damped Newton over one group's members in lockstep.

    ``x0``, ``diag`` and ``rhs_src`` are the members' ``(K, size)``
    initial guesses, ``(K, num_nodes)`` node diagonals and
    ``(K, size+1)`` source right-hand sides (see :func:`_dc_inputs`);
    ``recoveries`` collects each member's ``"tikhonov"`` tags.  Returns
    each member's solution, or None where Newton diverged or hit a
    singular step.
    """
    size, nn = group.size, group.num_nodes
    g, d, s = group.terminals
    params = group.params
    stats = kernel.active()
    solutions: list[np.ndarray | None] = [None] * len(x0)

    # The live members' rows in the group and their iterates, padded
    # with the ghost ground entry that device terminals index.
    rows = np.arange(len(x0))
    member = rows[:, None]
    x = np.concatenate([x0, np.zeros((len(x0), 1))], axis=1)
    limit = np.full(len(x0), VOLTAGE_LIMIT)
    prev_dv: np.ndarray | None = None
    for _ in range(_max_iterations(group.compileds[0])):
        if stats is not None:
            stats.newton_iterations += len(rows)
        rhs = rhs_src.copy()
        dyn = diag
        if params:
            vg, vd, vs = x[:, g], x[:, d], x[:, s]
            t0 = kernel._clock() if stats is not None else 0.0
            ids, gm, gds = channel_current(*params, vg, vd, vs)[:3]
            if stats is not None:
                stats.device_eval_s += kernel._clock() - t0
            gms = -(gm + gds)  # no body effect
            ieq = ids - gm * vg - gds * vd - gms * vs
            np.add.at(rhs, (member, d), -ieq)
            np.add.at(rhs, (member, s), ieq)
            dyn = np.concatenate([diag, gds, gm, gms, -gds, -gm, -gms], axis=1)
        x_new, tags, errors = group.batched.solve(dyn, rhs, rows)

        delta = x_new - x[:, :size]
        dv = delta[:, :nn]
        max_dv = np.maximum.reduce(np.abs(dv), axis=1, initial=0.0)

        # Oscillation-aware damping: when the update direction flips
        # (Newton cycling between basins, e.g. a near-metastable latch),
        # shrink the step limit so the iteration settles into one basin.
        # The dot product is a per-member 1-D np.dot, so its summation
        # order does not depend on the stack.
        grown = np.minimum(VOLTAGE_LIMIT, limit * 1.3)
        flips = (
            []
            if prev_dv is None
            else [float(np.dot(a, b)) < 0.0 for a, b in zip(dv, prev_dv)]
        )
        if any(flips):
            grown = np.where(flips, np.maximum(0.01, limit * 0.6), grown)
        limit = grown
        prev_dv = dv

        over = max_dv > limit
        if over.any():
            step = limit / np.maximum(max_dv, limit)
            x_new = np.where(
                over[:, None], x[:, :size] + delta * step[:, None], x_new
            )
        x[:, :size] = x_new
        vmax = np.maximum.reduce(np.abs(x_new[:, :nn]), axis=1, initial=0.0)
        done = (max_dv < VNTOL + RELTOL * vmax) & ~over
        for j, k in enumerate(rows):
            if errors[j] is not None:
                # A singular step ends the solve, so that the homotopies
                # (which regularize the physics, not the algebra) get
                # their chance.
                done[j] = True
                continue
            if tags[j] is not None:
                recoveries[k].add(tags[j])
            if done[j]:
                solutions[k] = x_new[j].copy()
        if done.any():
            keep = ~done
            rows = rows[keep]
            if not len(rows):
                break
            member = member[: len(rows)]
            x, diag, rhs_src = x[keep], diag[keep], rhs_src[keep]
            limit, prev_dv = limit[keep], prev_dv[keep]
            params = tuple(p[keep] for p in params)
    return solutions


def _plain_newton(
    compileds: list[CompiledCircuit],
    x0s: list[np.ndarray],
    forces: list[dict[str, float] | None],
) -> list[tuple[np.ndarray | None, set]]:
    """Stacked plain Newton over a batch from the initial guesses ``x0s``
    with the ``forces`` pinned (see :func:`dc_operating_points`).

    Returns per member its solution (None where Newton failed) and the
    recovery tags collected on the way.
    """
    stats = kernel.active()
    out: list = [None] * len(compileds)
    for group in _group_batch(compileds):
        if stats is not None:
            for _ in group.indices:
                stats.count_analysis("dc")
        diags, rhss = zip(
            *(_dc_inputs(compileds[i], 0.0, 1.0, forces[i]) for i in group.indices)
        )
        recoveries: list[set] = [set() for _ in group.indices]
        solutions = _newton_solve_batch(
            group,
            np.array([x0s[i] for i in group.indices]),
            np.array(diags),
            np.array(rhss),
            recoveries,
        )
        for j, i in enumerate(group.indices):
            out[i] = (solutions[j], recoveries[j])
    return out


def dc_operating_points(
    compileds: list[CompiledCircuit],
    x0s: list[np.ndarray | None] | None = None,
    forces: list[dict[str, float] | None] | None = None,
) -> list[OperatingPoint | Exception]:
    """The DC operating points of many circuits, stacked.

    Each member starts from its initial guess in ``x0s`` (zero where
    None or absent), perturbed on retry attempts
    (:func:`_perturb_retry_guess`), with its ``forces`` nodeset pinned.
    Plain Newton runs stacked, and a member it cannot converge climbs
    the gmin/source-stepping ladder on its own, from the same initial
    guess and with the recovery tags it has collected.  Every member's
    result, Newton iterations and analyses are those of its own
    one-member stack (:func:`dc_operating_point`).

    Failures are *captured per member* — the returned list holds an
    :class:`OperatingPoint` or the :class:`~repro.errors.ConvergenceError`
    (or injected :class:`~repro.errors.SingularMatrixError`) of that
    member, so one diverging member does not hide the others' results;
    callers re-raise at the member position when they want serial raise
    semantics.  The fault hook trips once per member, before its solve.
    """
    count = len(compileds)
    x0s = x0s or [None] * count
    forces = forces or [None] * count
    results: list = [None] * count
    injector = faults.active()
    if injector is not None:
        for i, compiled in enumerate(compileds):
            try:
                injector.check_dc(compiled.circuit.name)
            except (ConvergenceError, SingularMatrixError) as exc:
                results[i] = exc
    live = [i for i in range(count) if results[i] is None]
    starts = [
        _perturb_retry_guess(
            np.zeros(compileds[i].size)
            if x0s[i] is None
            else np.array(x0s[i], dtype=float)
        )
        for i in live
    ]
    solved = _plain_newton(
        [compileds[i] for i in live], starts, [forces[i] for i in live]
    )
    for i, x, (solution, recovery) in zip(live, starts, solved):
        if solution is not None:
            results[i] = _finish(compileds[i], solution, recovery)
            continue
        try:
            results[i] = _ladder(compileds[i], x, forces[i], recovery)
        except ConvergenceError as exc:
            results[i] = exc
    return results
