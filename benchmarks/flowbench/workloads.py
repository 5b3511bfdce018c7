"""The four flowbench workloads: what each unit runs and what it reports.

A workload is a list of *units* (a primitive family, or a circuit taken
through the whole flow).  The timed loop in :mod:`worker` runs units one
at a time; every unit builds its own primitive or circuit and optimizer,
so no unit inherits state from an earlier one.  Sizes are scaled so a
unit takes seconds, not tens of seconds: a run repeats each unit several
times inside the benchmark's time budget and reports medians.

Execution knobs reach the program only through the ``REPRO_*`` variables
in :attr:`Workload.env`; constructors receive problem size, paths and the
placer seed.  A knob a later change deletes is then simply ignored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: Problem size shared by both library workloads.
LIBRARY_SIZE = {"n_bins": 2, "max_wires": 3}
LIBRARY_BASE_FINS = 48

#: DC/AC-bound families with both pruned and never-pruned surrogate
#: behaviour.  The transient-bound families (current_starved_inverter,
#: ~20 s at 48 fins, and the delay cell) are left to ``vco_flow``.
LIBRARY_FAMILIES = (
    "differential_pair",
    "current_mirror",
    "cascode_current_mirror",
    "common_source_amplifier",
    "cross_coupled_inverters",
    "regenerative_pair",
    "switch",
)
SMOKE_FAMILIES = ("differential_pair", "current_mirror", "diode_load")

#: The placer seed every flow uses.  It is fixed rather than taken from
#: ``--seed``: placer seeds 1-6 move the flows' post-layout deviation
#: between 83.7% and 92.4%, far beyond its 1% bound, so quality is only
#: comparable across runs on one placement.
PLACER_SEED = 1

FLOWS_SIZE = {"n_bins": 2, "max_wires": 5}
#: One wire per port keeps a VCO unit near 10 s, so two fit in a run;
#: ``flows`` exercises the port sweeps.
VCO_SIZE = {"n_bins": 1, "max_wires": 1}
VCO_STAGES = 4


@dataclass(frozen=True)
class Workload:
    """One workload's identity, environment and trace expectations.

    Attributes:
        name: Workload name (``--workload``); BENCHMARK.json says why
            each workload exists.
        env: ``REPRO_*`` knobs of its subprocess (all others are removed).
        large_spans: Spans a traced run must see fire; a traced run where
            one of them (of those the tracer could install) never fires
            fails its correctness check.
    """

    name: str
    env: dict[str, str] = field(default_factory=dict)
    large_spans: tuple[str, ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "library",
            large_spans=(
                "core.optimize",
                "core.select",
                "core.tune",
                "primitives.evaluate",
                "spice.dc",
                "spice.ac",
                "spice.bisect",
                "cellgen.generate",
                "extraction.extract",
            ),
        ),
        Workload(
            "flows",
            env={"REPRO_BATCH": "8"},
            large_spans=(
                "flow.run",
                "core.optimize",
                "spice.dc",
                "spice.ac",
                "cellgen.generate",
                "extraction.extract",
                "extraction.build",
                "pnr.place",
                "pnr.route",
                "verify.layout",
                "verify.assembly",
                "circuits.measure",
            ),
        ),
        Workload(
            "vco_flow",
            large_spans=(
                "flow.run",
                "spice.tran",
                "pnr.route",
                "verify.assembly",
                "circuits.measure",
            ),
        ),
        Workload(
            "library_warm",
            # Serial on purpose: its BENCHMARK.json entry gives the
            # measured cost of 2 workers on 2 vCPUs.
            env={"REPRO_JOBS": "1", "REPRO_SURROGATE": "1"},
            large_spans=(
                "core.optimize",
                "runtime.cache",
                "runtime.journal",
                "runtime.dispatch",
                "surrogate.features",
                "surrogate.plan",
                "surrogate.record",
            ),
        ),
    )
}


@dataclass
class UnitResult:
    """What one execution of a unit produced.

    Attributes:
        record: Plain-data result (chosen options, costs, top-level
            metrics) hashed into the unit digest.
        costs: Eq. 5 best cost of every primitive the unit optimized.
        dev_pct: The unit's post-layout deviation in percent, when known
            at unit time (library units; flows need the schematic first).
        metrics: Top-level post-layout metrics (flow units).
        signoff_errors: Unwaived verification errors (flow units).
        counts: Per-layer counts read from the unit's public results.
        chosen: What the untimed checks need (library units: the
            primitive and its best option, for sign-off).
    """

    record: dict
    costs: list[float]
    dev_pct: float | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    signoff_errors: int | None = None
    counts: dict[str, float] = field(default_factory=dict)
    chosen: tuple | None = None

    @property
    def digest(self) -> str:
        return sha256_json(self.record)


def sha256_json(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _plain(obj) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(obj), sort_keys=True))


def _option_record(option) -> dict:
    return {
        "base": _plain(option.base),
        "pattern": option.pattern,
        "wires": _plain(option.wires),
        "cost": option.cost,
    }


# -- per-layer counts from public results -----------------------------------

#: Solver-kernel counters copied from ``solver_profile`` dicts.
KERNEL_FIELDS = (
    "device_eval_s",
    "stamp_s",
    "factor_s",
    "solve_s",
    "newton_iterations",
    "factorizations",
    "lu_reuses",
    "tran_steps",
    "tran_rejected",
    "batched_solves",
    "batch_members",
    "batch_fallbacks",
)


#: Every per-layer count a workload reports (0 where a layer does no work).
COUNT_KEYS = (
    "primitives.simulations",
    "core.sim.selection",
    "core.sim.tuning",
    "surrogate.sel_kept",
    "surrogate.sel_pruned",
    "surrogate.tune_pruned",
    "surrogate.fallbacks",
    *(f"spice.kernel.{name}" for name in KERNEL_FIELDS),
    "runtime.eval_failures",
    "runtime.downgrades",
    "runtime.cache.hits",
    "runtime.cache.stored",
    "pnr.area_um2",
    "pnr.hpwl_um",
    "pnr.route_r_ohm",
    "pnr.route_c_ff",
    "verify.signoff_errors",
)


def _add(counts: dict[str, float], key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def report_counts(report, counts: dict[str, float]) -> None:
    """Add one :class:`OptimizationReport`'s counters into ``counts``."""
    stages = {stage.name: stage.simulations for stage in report.stages}
    _add(counts, "primitives.simulations", sum(stages.values()))
    _add(counts, "core.sim.selection", stages.get("selection", 0))
    _add(counts, "core.sim.tuning", stages.get("tuning", 0))
    # getattr: the report loses this field if the surrogate is deleted.
    surrogate = getattr(report, "surrogate_stats", None) or {}
    _add(counts, "surrogate.sel_kept", surrogate.get("sel_kept", 0))
    _add(counts, "surrogate.sel_pruned", surrogate.get("sel_pruned", 0))
    _add(counts, "surrogate.tune_pruned", surrogate.get("tune_pruned", 0))
    _add(counts, "surrogate.fallbacks", sum(surrogate.get("fallbacks", {}).values()))


def kernel_counts(profile: dict, counts: dict[str, float]) -> None:
    for name in KERNEL_FIELDS:
        _add(counts, f"spice.kernel.{name}", profile.get(name, 0))


def failure_counts(failures, counts: dict[str, float]) -> None:
    _add(counts, "runtime.eval_failures", len(failures.failures))
    _add(counts, "runtime.downgrades", len(failures.downgrades))


def cache_counts(stats, counts: dict[str, float]) -> None:
    _add(counts, "runtime.cache.hits", stats.get("hits", 0))
    _add(counts, "runtime.cache.stored", stats.get("stored", 0))


def derived_counts(counts: dict[str, float]) -> dict[str, float]:
    """Add the ratio counters (computed on per-round totals)."""
    out = dict(counts)
    hits = out.get("runtime.cache.hits", 0)
    stored = out.get("runtime.cache.stored", 0)
    out["runtime.cache.hit_ratio"] = hits / (hits + stored) if hits + stored else 0.0
    kept = out.get("surrogate.sel_kept", 0)
    pruned = out.get("surrogate.sel_pruned", 0)
    out["surrogate.prune_ratio"] = pruned / (kept + pruned) if kept + pruned else 0.0
    return out


# -- the workloads ------------------------------------------------------------


class LibraryWorkload:
    """``library`` and ``library_warm``: Algorithm 1 per family.

    The warm variant's set-up runs one cold pass into a throwaway run
    directory.  Every timed unit then gets a fresh run directory holding
    only a copy of that pass's surrogate corpus, so each unit starts with
    a warm model and an empty journal and disk cache.
    """

    def __init__(self, spec: Workload, smoke: bool, scratch: Path):
        from repro import Technology

        self.spec = spec
        self.warm = spec.name == "library_warm"
        self.families = SMOKE_FAMILIES if smoke else LIBRARY_FAMILIES
        self.tech = Technology.default()
        self.waivers = _repo_waivers()
        self.scratch = scratch
        self.units = list(self.families)
        self.cold_costs: dict[str, float] = {}
        self._runs = 0
        self.corpus: Path | None = None
        if self.warm:
            self._cold_pass()

    def _cold_pass(self) -> None:
        cold_dir = self.scratch / "cold"
        for family in self.families:
            _, report = self._optimize(family, cold_dir)
            self.cold_costs[family] = report.best.cost
        corpus = cold_dir / "evalcache" / "corpus.jsonl"
        if corpus.is_file():
            self.corpus = self.scratch / "corpus.jsonl"
            shutil.copyfile(corpus, self.corpus)
        shutil.rmtree(cold_dir, ignore_errors=True)

    def _optimize(self, family: str, run_dir: Path | None):
        from repro import PrimitiveOptimizer
        from repro.primitives import PrimitiveLibrary

        primitive = PrimitiveLibrary().create(
            family, self.tech, base_fins=LIBRARY_BASE_FINS
        )
        kwargs = dict(LIBRARY_SIZE)
        if run_dir is not None:
            kwargs["run_dir"] = run_dir
        return primitive, PrimitiveOptimizer(**kwargs).optimize(primitive)

    def prepare(self, unit: str) -> Path | None:
        """Untimed per-unit preparation: the warm unit's run directory."""
        if not self.warm:
            return None
        self._runs += 1
        run_dir = self.scratch / f"run{self._runs}"
        if self.corpus is not None:
            (run_dir / "evalcache").mkdir(parents=True)
            shutil.copyfile(self.corpus, run_dir / "evalcache" / "corpus.jsonl")
        return run_dir

    def run(self, unit: str, prepared: Path | None) -> UnitResult:
        primitive, report = self._optimize(unit, prepared)
        best = report.best
        counts: dict[str, float] = {}
        report_counts(report, counts)
        kernel_counts(report.solver_profile or {}, counts)
        failure_counts(report.failures, counts)
        cache_counts(report.cache_stats or {}, counts)
        deviations = list(best.breakdown.deviations.values())
        return UnitResult(
            record={"unit": unit, **_option_record(best)},
            costs=[best.cost],
            dev_pct=statistics.fmean(deviations),
            counts=counts,
            chosen=(primitive, best),
        )

    def cleanup(self, prepared: Path | None) -> None:
        if prepared is not None:
            shutil.rmtree(prepared, ignore_errors=True)

    def check(self, results: dict[str, UnitResult]) -> dict:
        """Untimed checks: sign-off of each chosen layout; warm == cold."""
        from repro.verify import verify_layout

        errors = 0
        for result in results.values():
            primitive, best = result.chosen
            layout = primitive.generate(
                best.base, best.pattern, best.wires, verify=False
            )
            report = verify_layout(
                layout,
                self.tech,
                spec=primitive.cell_spec(best.base),
                waivers=self.waivers,
            )
            errors += len(report.errors)
        checks = {}
        if self.warm:
            checks["warm_cost_equals_cold"] = all(
                results[f].costs[0] == self.cold_costs.get(f) for f in results
            )
        return {
            "signoff_errors": errors,
            "dev_pct": statistics.fmean(r.dev_pct for r in results.values()),
            "checks": checks,
        }


class FlowWorkload:
    """``flows`` and ``vco_flow``: ``HierarchicalFlow.run`` per circuit."""

    def __init__(self, spec: Workload, smoke: bool, scratch: Path):
        from repro import Technology
        from repro.circuits import (
            CommonSourceAmpCircuit,
            FiveTransistorOta,
            RingOscillatorVco,
            StrongArmComparator,
        )

        self.spec = spec
        self.tech = Technology.default()
        self.waivers = _repo_waivers()
        tech = self.tech
        if spec.name == "vco_flow":
            self.size = VCO_SIZE
            self.factories = {
                "vco": lambda: RingOscillatorVco(tech, stages=VCO_STAGES)
            }
        else:
            self.size = FLOWS_SIZE
            self.factories = {
                "csamp": lambda: CommonSourceAmpCircuit(tech),
                "ota": lambda: FiveTransistorOta(tech),
                "strongarm": lambda: StrongArmComparator(tech),
            }
            if smoke:
                self.factories = {"csamp": self.factories["csamp"]}
        self.units = list(self.factories)

    def prepare(self, unit: str) -> None:
        return None

    def cleanup(self, prepared) -> None:
        return None

    def run(self, unit: str, prepared=None) -> UnitResult:
        from repro.flow import HierarchicalFlow

        flow = HierarchicalFlow(
            self.tech, seed=PLACER_SEED, waivers=self.waivers, **self.size
        )
        result = flow.run(self.factories[unit](), flavor="this_work")
        counts: dict[str, float] = {}
        costs = {}
        for name in sorted(result.reports):
            report = result.reports[name]
            report_counts(report, counts)
            costs[name] = report.best.cost
        kernel_counts(result.solver_profile or {}, counts)
        failure_counts(result.failures, counts)
        if flow.cache is not None:
            cache_counts(flow.cache.stats.to_dict(), counts)
        placement = result.placement
        if placement is not None:
            _add(counts, "pnr.area_um2", placement.area * 1e-6)
            _add(counts, "pnr.hpwl_um", placement.hpwl * 1e-3)
        for route in result.detailed_routes.values():
            _add(counts, "pnr.route_r_ohm", route.resistance)
            _add(counts, "pnr.route_c_ff", route.capacitance * 1e15)
        errors = len(result.verification.errors) if result.verification else 0
        record = {
            "unit": unit,
            "choices": {
                name: {
                    "base": _plain(choice.base),
                    "pattern": choice.pattern,
                    "wires": _plain(choice.wires),
                }
                for name, choice in sorted(result.choices.items())
            },
            "costs": costs,
            "reconciled": {
                net: rec.wires for net, rec in sorted(result.reconciled.items())
            },
            "metrics": dict(sorted(result.metrics.items())),
        }
        return UnitResult(
            record=record,
            costs=list(costs.values()),
            metrics=dict(result.metrics),
            signoff_errors=errors,
            counts=counts,
        )

    def check(self, results: dict[str, UnitResult]) -> dict:
        """Untimed checks: schematic reference and StrongARM decision."""
        deviations = []
        for unit, result in results.items():
            circuit = self.factories[unit]()
            schematic = circuit.measure(circuit.schematic())
            devs = [
                100.0 * abs(result.metrics[k] - ref) / abs(ref)
                for k, ref in sorted(schematic.items())
                if ref != 0.0 and k in result.metrics
            ]
            deviations.append(statistics.fmean(devs))
        checks = {}
        if "strongarm" in results:
            checks["strongarm_decision"] = (
                results["strongarm"].metrics.get("decision") == 1.0
            )
        return {
            "signoff_errors": sum(r.signoff_errors for r in results.values()),
            "dev_pct": statistics.fmean(deviations),
            "checks": checks,
        }


def _repo_waivers():
    """The repository's lint baseline, when the checkout has one."""
    from repro.verify import load_waivers

    path = Path(__file__).resolve().parents[2] / ".reprolint.toml"
    return load_waivers(path) if path.is_file() else None


def build(name: str, smoke: bool, scratch: Path):
    spec = WORKLOADS[name]
    if name in ("library", "library_warm"):
        return LibraryWorkload(spec, smoke, scratch)
    return FlowWorkload(spec, smoke, scratch)

