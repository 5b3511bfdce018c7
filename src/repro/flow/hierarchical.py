"""The hierarchical layout-generation flow (paper Fig. 1).

``HierarchicalFlow.run(circuit, flavor)`` executes, in order:

1. **Bias calibration** — the circuit's schematic operating point sets
   every primitive's testbench bias (Algorithm 1, line 3).
2. **Primitive optimization** — Algorithm 1 per *unique* primitive
   (instances sharing a primitive share its optimization, as the VCO's
   sixteen identical inverters do in the paper).
3. **Placement** — sequence-pair simulated annealing over the binned
   layout options.
4. **Global routing** — grid router over the placement; per-net segment
   lists with layers and vias.
5. **Port optimization** — Algorithm 2: per-port wire-count intervals,
   then reconciliation on shared nets.
6. **Assembly & measurement** — post-layout netlist with chosen layouts
   and reconciled route RC, measured with the circuit's testbench.

Flavors:

* ``"this_work"`` — the full methodology.
* ``"conventional"`` — geometric constraints only (common-centroid
  pattern, default mesh, single-wire routes), mirroring the paper's
  conventional baseline: no parasitic/LDE optimization at any step.
* ``"manual"`` — an exhaustive-search oracle (wider sweeps, global best
  option) standing in for expert manual layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cellgen.generator import WireConfig
from repro.circuits.base import CompositeCircuit, LayoutChoice, RouteBudget
from repro.core.optimizer import OptimizationReport, PrimitiveOptimizer
from repro.core.port_constraints import GlobalRouteInfo, PortConstraint
from repro.core.reconcile import (
    ReconciledNet,
    gap_range,
    intervals_overlap,
    reconcile_net,
)
from repro.errors import OptimizationError
from repro.geometry.layout import Instance, Layout
from repro.geometry.shapes import Point
from repro.pnr.global_router import GlobalRoute, GlobalRouter
from repro.pnr.placer import Block, Placement, SaPlacer
from repro.runtime import EvalCache, EvalRuntime, FailureLog, SweepJournal
from repro.runtime.policy import DEFAULT_RETRIES
from repro.spice import kernel
from repro.spice.netlist import Circuit, is_ground
from repro.tech.pdk import Technology
from repro.verify import (
    AuditTech,
    Report,
    WaiverSet,
    budget_net_currents,
    check_route_currents,
    check_route_parallelism,
    verify_assembly,
    verify_circuit,
    verify_layout,
)

#: Modeled per-simulation wall time (paper Section III-C).
PAPER_SIM_TIME = 10.0


@dataclass
class FlowResult:
    """Everything a flow run produces.

    Attributes:
        circuit_name: The circuit.
        flavor: ``"this_work"``, ``"conventional"`` or ``"manual"``.
        choices: Layout decision per binding.
        route_budgets: Route RC and wire count per top-level net.
        placement: Block placement (None for the conventional flavor's
            trivial row placement).
        reports: Optimization report per unique primitive name.
        reconciled: Reconciliation outcome per shared net.
        detailed_routes: Realized parallel-wire bundles per net (the
            detailed-router constraint output of Algorithm 2).
        assembled: The final post-layout netlist.
        metrics: Top-level measurements.
        verification: Static-verification report over the chosen cell
            layouts and the assembled placement (None when verification
            is disabled).
        failures: Absorbed evaluation failures across every stage of the
            run (the per-primitive reports carry the same log objects).
        wall_time: Actual wall-clock seconds of the run.
        modeled_runtime: Paper-style runtime model (10 s per parallel
            simulation batch plus P&R).
        solver_profile: Aggregated solver-kernel counters across the
            whole run — per-primitive optimization, port optimization,
            bias calibration and the final top-level measurement (see
            :meth:`repro.spice.kernel.SolverStats.as_dict`).  Profiling
            only; excluded from determinism fingerprints.
    """

    circuit_name: str
    flavor: str
    choices: dict[str, LayoutChoice] = field(default_factory=dict)
    route_budgets: dict[str, RouteBudget] = field(default_factory=dict)
    placement: Placement | None = None
    reports: dict[str, OptimizationReport] = field(default_factory=dict)
    reconciled: dict[str, ReconciledNet] = field(default_factory=dict)
    detailed_routes: dict = field(default_factory=dict)
    assembled: Circuit | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    verification: Report | None = None
    failures: FailureLog = field(default_factory=FailureLog)
    wall_time: float = 0.0
    modeled_runtime: float = 0.0
    solver_profile: dict = field(default_factory=dict)


class HierarchicalFlow:
    """The end-to-end flow engine.

    Args:
        tech: Technology node.
        n_bins: Aspect-ratio bins per primitive (options to the placer).
        max_wires: Sweep bound for tuning and port optimization.
        seed: Placer RNG seed.
        placer_iterations: Annealing iterations.
        verify: Statically verify the chosen cell layouts and the
            assembled placement (DRC + connectivity + ERC on each unique
            primitive's schematic + the constraint/symmetry pass + route
            parallelism); the report lands on
            ``FlowResult.verification``.
        strict: Raise :class:`~repro.errors.VerificationError` when
            verification finds unwaived errors instead of just recording
            them.
        waivers: Optional lint baseline (:class:`~repro.verify.rules
            .WaiverSet`); matching violations are marked waived before
            the strict check.
        retries: Retries after the first failed attempt of an evaluation.
        run_dir: Directory for sweep-checkpoint journals (one JSONL per
            primitive plus ``ports.jsonl``); None disables checkpointing.
        resume: Replay existing journals instead of starting fresh.

    The flow holds one in-memory content-addressed evaluation cache
    (:attr:`cache`), shared by every stage of every run.
    """

    def __init__(
        self,
        tech: Technology,
        n_bins: int = 3,
        max_wires: int = 7,
        seed: int = 1,
        placer_iterations: int = 1500,
        verify: bool = True,
        strict: bool = False,
        retries: int = DEFAULT_RETRIES,
        run_dir: str | None = None,
        resume: bool = False,
        waivers: WaiverSet | None = None,
    ):
        self.tech = tech
        self.n_bins = n_bins
        self.max_wires = max_wires
        self.seed = seed
        self.placer_iterations = placer_iterations
        self.verify = verify
        self.strict = strict
        self.retries = retries
        self.run_dir = run_dir
        self.resume = resume
        self.waivers = waivers
        self.cache = EvalCache()

    # -- public entry ------------------------------------------------------

    def run(
        self,
        circuit: CompositeCircuit,
        flavor: str = "this_work",
        measure: bool = True,
    ) -> FlowResult:
        """Run the flow in the requested flavor."""
        if flavor not in ("this_work", "conventional", "manual"):
            raise OptimizationError(f"unknown flow flavor {flavor!r}")
        start = time.perf_counter()
        result = FlowResult(circuit_name=circuit.name, flavor=flavor)
        # Flow-level solver profiling: direct simulation work (bias
        # calibration, the final measurement) is collected here; work
        # routed through an EvalRuntime lands on that runtime's own
        # collector and is merged in at the end.
        flow_stats = kernel.SolverStats()

        if hasattr(circuit, "calibrate_biases"):
            with kernel.collect(flow_stats):
                circuit.calibrate_biases()

        bindings = circuit.bindings()
        unique = self._unique_primitives(bindings)

        if flavor == "conventional":
            self._conventional_choices(result, bindings, unique)
        else:
            exhaustive = flavor == "manual"
            self._optimize_primitives(result, unique, exhaustive)
            self._assign_choices(result, bindings, exhaustive)

        rows_hint = circuit.placement_rows()
        if rows_hint:
            self._place_rows(result, bindings, rows_hint)
        else:
            self._place(result, bindings)
        routes = self._global_route(result, circuit, bindings)

        if flavor == "conventional":
            for net, route in routes.items():
                result.route_budgets[net] = RouteBudget(
                    route=route.to_route_info(self.tech), n_wires=1
                )
        else:
            self._port_optimization(
                result, circuit, bindings, routes, stats=flow_stats
            )

        if self.verify:
            self._verify_assembly(result, bindings)

        result.assembled = circuit.assembled(result.choices, result.route_budgets)
        if measure:
            with kernel.collect(flow_stats):
                result.metrics = circuit.measure(result.assembled)

        for report in result.reports.values():
            if report.solver_profile:
                flow_stats.merge(
                    kernel.SolverStats.from_dict(report.solver_profile)
                )
        if flow_stats:
            result.solver_profile = flow_stats.as_dict()

        result.wall_time = time.perf_counter() - start
        result.modeled_runtime = self._model_runtime(result)
        return result

    # -- stages ---------------------------------------------------------

    @staticmethod
    def _unique_primitives(bindings) -> dict[str, object]:
        unique: dict[str, object] = {}
        for binding in bindings:
            unique.setdefault(binding.primitive.name, binding.primitive)
        return unique

    def _optimize_primitives(
        self, result: FlowResult, unique: dict[str, object], exhaustive: bool
    ) -> None:
        optimizer = PrimitiveOptimizer(
            n_bins=1 if exhaustive else self.n_bins,
            max_wires=self.max_wires + (2 if exhaustive else 0),
            retries=self.retries,
            run_dir=self.run_dir,
            resume=self.resume,
            cache=self.cache,
        )
        for name, primitive in unique.items():
            report = optimizer.optimize(primitive)
            result.reports[name] = report
            result.failures.extend(report.failures)

    def _assign_choices(
        self, result: FlowResult, bindings, exhaustive: bool
    ) -> None:
        for binding in bindings:
            report = result.reports[binding.primitive.name]
            best = report.best
            result.choices[binding.name] = LayoutChoice(
                base=best.base, pattern=best.pattern, wires=best.wires
            )

    def _conventional_choices(
        self, result: FlowResult, bindings, unique: dict[str, object]
    ) -> None:
        """Geometric constraints only: common-centroid pattern, default
        mesh, and a squarish default variant — what a layout engineer
        gets from a cell generator with no performance feedback."""
        for binding in bindings:
            primitive = binding.primitive
            variants = primitive.variants()
            # Default fingering heuristic: balance fins per finger
            # against fingers (squarish unit), minimal multiplicity.
            base = min(variants, key=lambda g: (abs(g.nfin - g.nf), g.m))
            counts = {
                t.name: base.m * t.m_ratio
                for t in primitive.templates()
                if t.name in primitive.matched_group()
            }
            from repro.cellgen.patterns import available_patterns

            patterns = available_patterns(list(counts), counts)
            pattern = "ABBA" if "ABBA" in patterns else patterns[0]
            result.choices[binding.name] = LayoutChoice(
                base=base, pattern=pattern, wires=WireConfig()
            )

    def _place(self, result: FlowResult, bindings) -> Placement:
        blocks = []
        for binding in bindings:
            choice = result.choices[binding.name]
            primitive = binding.primitive
            report = result.reports.get(primitive.name)
            options: list[tuple[int, int]] = []
            if report is not None:
                for opt in report.placer_options():
                    options.append((opt.layout.width, opt.layout.height))
            if not options:
                layout = primitive.generate(
                    choice.base, choice.pattern, choice.wires, verify=False
                )
                options = [(layout.width, layout.height)]
            nets = [n for n in binding.port_map.values() if not is_ground(n)]
            blocks.append(Block(name=binding.name, options=options, nets=nets))
        placer = SaPlacer(blocks, seed=self.seed)
        placement = placer.place(iterations=self.placer_iterations)
        result.placement = placement

        # Placement may pick a different option (aspect-ratio bin) than
        # the minimum-cost one; honor its choice.
        for binding in bindings:
            report = result.reports.get(binding.primitive.name)
            if report is None:
                continue
            placer_options = report.placer_options()
            idx = placement.chosen_option[binding.name]
            if idx < len(placer_options):
                chosen = placer_options[idx]
                result.choices[binding.name] = LayoutChoice(
                    base=chosen.base, pattern=chosen.pattern, wires=chosen.wires
                )
        return placement

    def _place_rows(self, result: FlowResult, bindings, rows: list[list[str]]) -> None:
        """Deterministic row placement from a circuit's floorplan hint."""
        sizes: dict[str, tuple[int, int]] = {}
        for binding in bindings:
            choice = result.choices[binding.name]
            layout = binding.primitive.generate(
                choice.base, choice.pattern, choice.wires, verify=False
            )
            sizes[binding.name] = (layout.width, layout.height)
        spacing = 200
        positions: dict[str, tuple[int, int]] = {}
        y = 0
        total_width = 0
        for row in rows:
            x = 0
            row_height = 0
            for name in row:
                w, h = sizes[name]
                positions[name] = (x, y)
                x += w + spacing
                row_height = max(row_height, h)
            total_width = max(total_width, x)
            y += row_height + spacing
        hpwl = 0.0
        result.placement = Placement(
            positions=positions,
            chosen_option={name: 0 for name in positions},
            width=total_width,
            height=y,
            hpwl=hpwl,
        )

    def _global_route(
        self, result: FlowResult, circuit, bindings
    ) -> dict[str, GlobalRoute]:
        placement = result.placement
        assert placement is not None
        router = GlobalRouter(
            width=max(placement.width, 2000),
            height=max(placement.height, 2000),
        )
        pins: dict[str, list[tuple[int, int]]] = {}
        for binding in bindings:
            x, y = placement.positions[binding.name]
            block_opt = result.choices[binding.name]
            layout = binding.primitive.generate(
                block_opt.base, block_opt.pattern, block_opt.wires, verify=False
            )
            cx, cy = x + layout.width // 2, y + layout.height // 2
            for port, net in binding.port_map.items():
                if is_ground(net) or net.endswith("!"):
                    # Power nets are routed manually (outside the
                    # methodology, as in the paper).
                    continue
                pins.setdefault(net, []).append((cx, cy))
        routes: dict[str, GlobalRoute] = {}
        for net, pin_list in pins.items():
            if len(pin_list) < 2:
                continue
            routes[net] = router.route_net(net, pin_list)
        return routes

    def _port_optimization(
        self,
        result: FlowResult,
        circuit,
        bindings,
        routes: dict[str, GlobalRoute],
        stats: kernel.SolverStats | None = None,
    ) -> None:
        from repro.core.port_constraints import derive_port_constraint

        journal = None
        if self.run_dir is not None:
            journal = SweepJournal(
                Path(self.run_dir) / "ports.jsonl", resume=self.resume
            )
        runtime = EvalRuntime(
            retries=self.retries,
            journal=journal,
            failures=result.failures,
            cache=self.cache,
        )

        constraints_by_net: dict[str, list[PortConstraint]] = {}
        constraint_cache: dict[tuple[str, str], PortConstraint] = {}
        # (primitive.name, port) -> what a gap re-simulation needs.
        sim_context: dict[tuple[str, str], tuple] = {}

        try:
            for binding in bindings:
                primitive = binding.primitive
                choice = result.choices[binding.name]
                sym_lookup: dict[str, tuple[str, ...]] = {}
                for group in binding.symmetric_ports:
                    for port in group:
                        sym_lookup[port] = tuple(p for p in group if p != port)

                # The chosen layout's netlist, extracted at the binding's
                # first port that needs a sweep and shared by the rest.
                dut = None
                for port in binding.ports_to_optimize():
                    net = binding.port_map.get(port)
                    if net is None or net not in routes:
                        continue
                    key = (primitive.name, port)
                    if key in constraint_cache:
                        constraint = constraint_cache[key]
                    else:
                        if dut is None:
                            dut = primitive.extract(
                                primitive.generate(
                                    choice.base, choice.pattern, choice.wires,
                                    verify=False,
                                ),
                                choice.base,
                            ).build_circuit()
                        info = routes[net].to_route_info(
                            self.tech, symmetric_with=sym_lookup.get(port, ())
                        )
                        info = GlobalRouteInfo(
                            net=port,
                            layer=info.layer,
                            length_nm=info.length_nm,
                            via_cuts=info.via_cuts,
                            via_resistance=info.via_resistance,
                            symmetric_with=sym_lookup.get(port, ()),
                        )
                        constraint, _sims = derive_port_constraint(
                            primitive, dut, info, max_wires=self.max_wires,
                            runtime=runtime,
                        )
                        constraint_cache[key] = constraint
                        sim_context[key] = (primitive, dut, info)
                    constraints_by_net.setdefault(net, []).append(constraint)

            resimulated = self._reconcile_resims(
                runtime, constraints_by_net, sim_context
            )
        finally:
            if journal is not None:
                journal.close()

        def gap_cost(constraint: PortConstraint, wires: int) -> float:
            try:
                return constraint.cost_at(wires)
            except OptimizationError:
                pass
            return resimulated.get(
                (constraint.primitive_name, constraint.net, wires),
                float("inf"),
            )

        for net, constraints in constraints_by_net.items():
            result.reconciled[net] = reconcile_net(
                net, constraints, cost_at=gap_cost, failures=result.failures
            )

        for net, route in routes.items():
            n_wires = result.reconciled[net].wires if net in result.reconciled else 1
            result.route_budgets[net] = RouteBudget(
                route=route.to_route_info(self.tech), n_wires=n_wires
            )

        # Realize the reconciled counts as parallel-wire bundles — the
        # constraint handoff to the detailed router.  Symmetric port
        # pairs that landed on different top nets stay matched.
        from repro.pnr.detailed import realize_routes

        matched_pairs: list[tuple[str, str]] = []
        for binding in bindings:
            for group in binding.symmetric_ports:
                if len(group) != 2:
                    continue
                net_a = binding.port_map.get(group[0])
                net_b = binding.port_map.get(group[1])
                if (
                    net_a in routes
                    and net_b in routes
                    and net_a != net_b
                    and (net_a, net_b) not in matched_pairs
                    and (net_b, net_a) not in matched_pairs
                ):
                    matched_pairs.append((net_a, net_b))
        counts = {net: budget.n_wires for net, budget in result.route_budgets.items()}
        result.detailed_routes = realize_routes(
            routes, counts, self.tech, matched_pairs
        )
        if stats is not None:
            stats.merge(runtime.solver_stats)

    def _reconcile_resims(
        self,
        runtime: EvalRuntime,
        constraints_by_net: dict[str, list[PortConstraint]],
        sim_context: dict[tuple[str, str], tuple],
    ) -> dict[tuple[str, str, int], float]:
        """Batch the gap re-simulations reconciliation will need.

        ``reconcile_net``'s non-overlap search reads the cost of every
        gap wire count for every constraint on the net; counts a
        constraint never explored (or whose sweep point failed) would
        otherwise silently score ``inf``.  The paper's Algorithm 2
        re-simulates them — all such points across all nets are
        independent, so they dispatch as one batch.  Returns
        ``(primitive, port, wires) -> cost``.
        """
        from repro.core.port_constraints import route_point_task

        tasks = []
        order: list[tuple[str, str, int]] = []
        seen: set[tuple[str, str, int]] = set()
        for net, constraints in constraints_by_net.items():
            if intervals_overlap(constraints):
                continue
            lo, hi = gap_range(constraints)
            for wires in range(lo, hi + 1):
                for constraint in constraints:
                    ckey = (constraint.primitive_name, constraint.net, wires)
                    if ckey in seen:
                        continue
                    try:
                        constraint.cost_at(wires)
                        continue  # explored during the port sweep
                    except OptimizationError:
                        pass
                    context = sim_context.get(ckey[:2])
                    if context is None:
                        continue
                    seen.add(ckey)
                    primitive, dut, info = context
                    tasks.append(
                        route_point_task(
                            primitive,
                            dut,
                            info,
                            wires,
                            key_prefix="recon",
                        )
                    )
                    order.append(ckey)
        resimulated: dict[tuple[str, str, int], float] = {}
        if not tasks:
            return resimulated
        batch = runtime.evaluate_batch(tasks, stage="reconcile")
        for index, ckey in enumerate(order):
            point = batch.consume(index)
            resimulated[ckey] = (
                float(point["cost"]) if point is not None else float("inf")
            )
        return resimulated

    def _verify_assembly(self, result: FlowResult, bindings) -> None:
        """Statically verify the chosen cells and their placement.

        Every unique (primitive, sizing, pattern, wires) layout gets a
        full spec-based DRC + connectivity + constraint pass, and each
        unique primitive's schematic reference is ERC-checked once; the
        placed instances are then checked for overlaps and flattened
        for a structural pass over the merged geometry (shorts,
        floating vias).  Realized parallel-wire routes are checked
        against their budgets and matched partners, and against the
        static EM limits: each top net's worst-case current is the sum
        of the declared budgets its connected primitives could push
        through their ports, and the realized bundle must carry it
        (``EM-ROUTE-DENSITY``).  The merged report (with waivers
        applied) lands on ``FlowResult.verification``; in strict mode
        any unwaived error raises.
        """
        merged = Report(target=f"{result.circuit_name}:{result.flavor}")
        layouts: dict[str, Layout] = {}
        seen: set[tuple] = set()
        erc_seen: set[str] = set()
        for binding in bindings:
            choice = result.choices[binding.name]
            primitive = binding.primitive
            layout = primitive.generate(
                choice.base, choice.pattern, choice.wires, verify=False
            )
            layouts[binding.name] = layout
            if primitive.name not in erc_seen:
                erc_seen.add(primitive.name)
                merged.merge(verify_circuit(primitive.schematic_circuit()))
            key = (
                primitive.name,
                choice.base,
                choice.pattern,
                repr(choice.wires),
            )
            if key not in seen:
                seen.add(key)
                spec = primitive.cell_spec(choice.base)
                merged.merge(verify_layout(layout, self.tech, spec=spec))
        placement = result.placement
        if placement is not None:
            instances = [
                Instance(
                    name=binding.name,
                    layout=layouts[binding.name],
                    offset=Point(*placement.positions[binding.name]),
                )
                for binding in bindings
            ]
            merged.merge(
                verify_assembly(
                    f"{result.circuit_name}_assembly", instances, self.tech
                )
            )
        if result.detailed_routes:
            budgets = {
                net: budget.n_wires
                for net, budget in result.route_budgets.items()
            }
            merged.merge(
                check_route_parallelism(
                    result.detailed_routes,
                    budgets,
                    target=f"{result.circuit_name}_routes",
                )
            )
            audit = AuditTech.for_technology(self.tech)
            currents: dict[str, float] = {}
            for binding in bindings:
                local = budget_net_currents(layouts[binding.name], audit)
                for port, top_net in sorted(binding.port_map.items()):
                    amps = local.get(port, 0.0)
                    if amps > 0.0:
                        currents[top_net] = currents.get(top_net, 0.0) + amps
            merged.merge(
                check_route_currents(
                    result.detailed_routes,
                    currents,
                    self.tech,
                    audit=audit,
                    target=f"{result.circuit_name}_routes",
                )
            )
        merged.apply_waivers(self.waivers)
        result.verification = merged
        if self.strict:
            merged.raise_if_errors()

    def _model_runtime(self, result: FlowResult) -> float:
        """Paper-style runtime: 10 s per parallel stage plus P&R time."""
        total = 0.0
        for report in result.reports.values():
            total += report.effective_time
        total += 15.0  # placement
        total += 5.0  # global routing
        if result.reconciled:
            total += PAPER_SIM_TIME  # port-optimization batch
        return total
