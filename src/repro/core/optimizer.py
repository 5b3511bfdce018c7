"""The primitive optimizer facade (Algorithms 1 and 2 end to end).

Runs primitive selection, binning, per-bin tuning and (given global-route
information) port-constraint generation for one primitive, while keeping
the simulation accounting the paper reports in Table V: each stage's
simulations are independent, so with enough parallel SPICE licenses a
stage costs one simulation wall-time; the effective runtime is
``stages x sim_time``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.port_constraints import (
    GlobalRouteInfo,
    PortConstraint,
    derive_port_constraint,
)
from repro.core.selection import (
    LayoutOption,
    evaluate_options,
    select_best_per_bin,
)
from repro.core.tuning import TuningResult, tune_option
from repro.devices.mosfet import MosGeometry
from repro.errors import OptimizationError
from repro.runtime import EvalCache, EvalRuntime, FailureLog, SweepJournal
from repro.runtime.policy import DEFAULT_RETRIES
from repro.verify import verify_circuit

#: Wall time the paper attributes to one primitive simulation (seconds).
PAPER_SIM_TIME = 10.0


@dataclass
class StageCount:
    """Simulation accounting for one optimization stage."""

    name: str
    simulations: int

    @property
    def parallel_time(self) -> float:
        """Wall time with unlimited parallelism (one batch)."""
        return PAPER_SIM_TIME if self.simulations else 0.0


@dataclass
class OptimizationReport:
    """Full record of one primitive's optimization.

    Attributes:
        primitive_name: The optimized primitive.
        options: Every evaluated (sizing x pattern) option.
        selected: Best option per aspect-ratio bin (input to the placer).
        tuned: Tuning results, parallel to ``selected``.
        port_constraints: Per-net constraints from Algorithm 2 step 1.
        stages: Simulation counts per stage (Table V rows).
        failures: Absorbed evaluation failures of the run (see
            :mod:`repro.runtime`).
        cached_evaluations: Evaluations answered from a checkpoint
            journal without re-simulating (resume bookkeeping).
        cache_stats: Content-cache accounting (``hits``/``stored``)
            of the run's :class:`~repro.runtime.EvalCache`.  Only
            the order-independent fields are reported, so the stats are
            identical for any stack width.
        solver_profile: Solver-kernel profiling counters accumulated by
            the run's :class:`~repro.runtime.EvalRuntime` (see
            :meth:`repro.spice.kernel.SolverStats.as_dict`).  A
            profiling view only — wall-clock timings vary run to run and
            the dict is excluded from determinism fingerprints.
    """

    primitive_name: str
    options: list[LayoutOption] = field(default_factory=list)
    selected: list[LayoutOption] = field(default_factory=list)
    tuned: list[TuningResult] = field(default_factory=list)
    port_constraints: dict[str, PortConstraint] = field(default_factory=dict)
    stages: list[StageCount] = field(default_factory=list)
    failures: FailureLog = field(default_factory=FailureLog)
    cached_evaluations: int = 0
    cache_stats: dict[str, int] = field(default_factory=dict)
    solver_profile: dict = field(default_factory=dict)

    @property
    def best(self) -> LayoutOption:
        """The minimum-cost tuned option."""
        if self.tuned:
            return min((t.option for t in self.tuned), key=lambda o: o.cost)
        if self.selected:
            return min(self.selected, key=lambda o: o.cost)
        detail = f" ({self.failures.summary()})" if self.failures else ""
        raise OptimizationError(
            f"report has no options{detail}", failures=self.failures
        )

    @property
    def total_simulations(self) -> int:
        return sum(stage.simulations for stage in self.stages)

    @property
    def effective_time(self) -> float:
        """Paper-style effective wall time (stages x 10s)."""
        return sum(stage.parallel_time for stage in self.stages)

    def placer_options(self) -> list[LayoutOption]:
        """The tuned options handed to the placer (one per bin)."""
        return [t.option for t in self.tuned] if self.tuned else list(self.selected)

    def summary(self) -> str:
        """Human-readable multi-line report of the optimization."""
        lines = [
            f"primitive {self.primitive_name}: "
            f"{len(self.options)} options, "
            f"{self.total_simulations} simulations, "
            f"effective {self.effective_time:.0f}s"
        ]
        for stage in self.stages:
            lines.append(f"  {stage.name}: {stage.simulations} simulations")
        for option in self.placer_options():
            lines.append(f"  -> {option.describe()}")
        for net, constraint in self.port_constraints.items():
            upper = constraint.w_max if constraint.w_max is not None else "inf"
            lines.append(
                f"  port {net}: [{constraint.w_min}, {upper}] parallel routes"
            )
        if self.failures:
            lines.append(f"  {self.failures.summary()}")
        if self.cached_evaluations:
            lines.append(
                f"  resumed: {self.cached_evaluations} evaluations from "
                f"checkpoint"
            )
        if self.cache_stats.get("hits"):
            lines.append(
                f"  cache: {self.cache_stats['hits']} evaluations answered "
                f"from content cache"
            )
        return "\n".join(lines)


class PrimitiveOptimizer:
    """Primitive-level layout optimization engine.

    Args:
        n_bins: Number of aspect-ratio bins (options given to the placer).
        max_wires: Upper bound for tuning and port-constraint sweeps.
        weight_override: Optional per-metric weight replacement (ablation
            and what-if studies).
        retries: Retries after the first failed attempt of an evaluation
            (the schematic reference always gets at least 3).
        run_dir: Directory for sweep-checkpoint journals; evaluations are
            journaled to ``<run_dir>/<primitive>.jsonl`` so a crashed
            sweep can resume.  None disables checkpointing.
        resume: Replay an existing journal instead of starting fresh.
        erc: Run electrical-rule checks on the primitive's schematic
            reference before any simulation is spent; ERC errors raise
            :class:`~repro.errors.OptimizationError` immediately (a
            broken netlist would corrupt every downstream score).
        cache: In-memory content-addressed evaluation cache shared by
            every run of this optimizer; pass an
            :class:`~repro.runtime.EvalCache` to share it across
            optimizers too (as the flow does).  A fresh one by default.
    """

    def __init__(
        self,
        n_bins: int = 3,
        max_wires: int = 8,
        weight_override: dict[str, float] | None = None,
        retries: int = DEFAULT_RETRIES,
        run_dir: str | os.PathLike | None = None,
        resume: bool = False,
        erc: bool = True,
        cache: EvalCache | None = None,
    ):
        self.n_bins = n_bins
        self.max_wires = max_wires
        self.weight_override = weight_override
        self.retries = retries
        self.run_dir = run_dir
        self.resume = resume
        self.erc = erc
        self.cache = cache if isinstance(cache, EvalCache) else EvalCache()

    def _runtime_for(self, primitive) -> EvalRuntime:
        journal = None
        if self.run_dir is not None:
            journal = SweepJournal(
                Path(self.run_dir) / f"{primitive.name}.jsonl",
                resume=self.resume,
            )
        return EvalRuntime(retries=self.retries, journal=journal, cache=self.cache)

    def optimize(
        self,
        primitive,
        variants: list[MosGeometry] | None = None,
        patterns: list[str] | None = None,
        routes: list[GlobalRouteInfo] | None = None,
        tune: bool = True,
        runtime: EvalRuntime | None = None,
    ) -> OptimizationReport:
        """Run Algorithm 1 (and Algorithm 2 step 1 when routes given).

        Simulation failures never abort the run directly: they are
        retried, then absorbed (failed options dropped, failed tuning
        points scored ``inf``, fully-failed ports unconstrained) and
        recorded on ``report.failures``.  The only raise is
        :class:`~repro.errors.OptimizationError` when zero selection
        options survive.
        """
        owns_runtime = runtime is None
        if owns_runtime:
            runtime = self._runtime_for(primitive)
        try:
            return self._optimize(
                primitive, runtime, variants, patterns, routes, tune
            )
        finally:
            if owns_runtime and runtime.journal is not None:
                runtime.journal.close()

    def _optimize(
        self,
        primitive,
        runtime: EvalRuntime,
        variants,
        patterns,
        routes,
        tune: bool,
    ) -> OptimizationReport:
        report = OptimizationReport(
            primitive_name=primitive.name, failures=runtime.failures
        )

        # Cheap front gate: lint the schematic before spending any SPICE
        # budget.  A floating gate or rail short would not crash the
        # simulator -- it would silently corrupt every score downstream.
        if self.erc:
            self._erc_gate(primitive)

        # Stage 0: the schematic reference everything is scored against.
        # Journaled so a resumed run does not re-simulate it, and granted
        # extra retries — without it no option can be costed at all.
        self._schematic_reference(primitive, runtime)

        # Stage 1: primitive selection.
        report.options = evaluate_options(
            primitive,
            variants=variants,
            patterns=patterns,
            weight_override=self.weight_override,
            runtime=runtime,
        )
        selection_sims = sum(o.simulations for o in report.options)
        report.selected = select_best_per_bin(report.options, self.n_bins)
        report.stages.append(StageCount("selection", selection_sims))

        # Stage 2: primitive tuning.
        if tune:
            tuning_sims = 0
            for option in report.selected:
                result = tune_option(
                    primitive,
                    option,
                    max_wires=self.max_wires,
                    weight_override=self.weight_override,
                    runtime=runtime,
                )
                tuning_sims += result.simulations
                report.tuned.append(result)
            report.stages.append(StageCount("tuning", tuning_sims))

        # Stage 3: port constraints (Algorithm 2 step 1).
        if routes:
            dut = self._best_circuit(primitive, report)
            port_sims = 0
            for route in routes:
                constraint, sims = derive_port_constraint(
                    primitive,
                    dut,
                    route,
                    max_wires=self.max_wires,
                    weight_override=self.weight_override,
                    runtime=runtime,
                )
                port_sims += sims
                report.port_constraints[route.net] = constraint
            report.stages.append(StageCount("port_constraints", port_sims))

        report.cached_evaluations = runtime.journal_replays
        # Only the deterministic fields: misses also count lookups whose
        # evaluation later failed (see CacheStats).
        report.cache_stats = {
            "hits": runtime.cache.stats.hits,
            "stored": runtime.cache.stats.stored,
        }
        if runtime.solver_stats:
            report.solver_profile = runtime.solver_stats.as_dict()
        return report

    def _erc_gate(self, primitive) -> None:
        """Fail fast on electrical-rule errors in the schematic reference."""
        erc_report = verify_circuit(primitive.schematic_circuit())
        if erc_report.errors:
            details = "; ".join(v.render() for v in erc_report.errors)
            raise OptimizationError(
                f"{primitive.name}: schematic failed ERC before "
                f"optimization: {details}"
            )

    def _schematic_reference(self, primitive, runtime: EvalRuntime) -> None:
        """Evaluate (or restore) the primitive's schematic reference."""
        ref = runtime.evaluate(
            f"ref:{primitive.name}",
            lambda: primitive.schematic_reference(),
            stage="reference",
            to_payload=lambda values: {
                "values": dict(values),
                "simulations": primitive._reference_sims,
            },
            from_payload=lambda payload: payload,
            retries=max(runtime.retries, 3),
        )
        if ref is None:
            raise OptimizationError(
                f"{primitive.name}: schematic reference evaluation failed "
                f"({runtime.failures.summary()})",
                failures=runtime.failures,
            )
        if isinstance(ref, dict) and "values" in ref:
            primitive.set_schematic_reference(
                ref["values"], int(ref.get("simulations", 0))
            )

    def _best_circuit(self, primitive, report: OptimizationReport):
        best = report.best
        layout = primitive.generate(
            best.base, best.pattern, best.wires, verify=False
        )
        return primitive.extract(layout, best.base).build_circuit()
