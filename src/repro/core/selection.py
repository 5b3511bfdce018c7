"""Primitive selection — Algorithm 1, step 1.

For every (nfin, nf, m) factorization and placement pattern, generate the
layout, extract it (wire parasitics + LDEs + diffusion sharing), run the
primitive's metric testbenches on the extracted netlist, and score the
weighted deviation cost.  Options are then binned by bounding-box aspect
ratio and the cheapest option per bin is handed to the placer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cellgen.generator import WireConfig
from repro.cellgen.patterns import available_patterns
from repro.core.binning import bin_by_aspect_ratio
from repro.core.cost import CostBreakdown, layout_cost
from repro.devices.mosfet import MosGeometry
from repro.errors import LayoutError, OptimizationError
from repro.geometry.layout import Layout
from repro.runtime import BatchSpec, BatchTask, EvalRuntime, evaluate_spec
from repro.runtime.evalcache import EvalCache


@dataclass
class LayoutOption:
    """One evaluated primitive layout candidate.

    Attributes:
        base: The unit-device sizing (nfin, nf, m).
        pattern: Placement pattern name.
        layout: The generated layout.
        values: Measured metric values on the extracted netlist.
        breakdown: Weighted cost breakdown.
        simulations: Number of simulations spent evaluating this option
            (0 when the content cache answered the evaluation).
        wires: The wire configuration used (tuning updates this).
        cache_key: Content key of the evaluation in the
            :class:`~repro.runtime.evalcache.EvalCache` (None when a
            value-affecting fault injector bypassed the cache).
    """

    base: MosGeometry
    pattern: str
    layout: Layout
    values: dict[str, float]
    breakdown: CostBreakdown
    simulations: int
    wires: WireConfig = field(default_factory=WireConfig)
    cache_key: str | None = None

    @property
    def cost(self) -> float:
        return self.breakdown.cost

    @property
    def aspect_ratio(self) -> float:
        return self.layout.aspect_ratio

    def describe(self) -> str:
        g = self.base
        return (
            f"nfin={g.nfin} nf={g.nf} m={g.m} {self.pattern} "
            f"AR={self.aspect_ratio:.2f} cost={self.cost:.2f}"
        )


def wires_tag(wires: WireConfig | None) -> str:
    """Stable serialization of a wire configuration for evaluation keys."""
    if wires is None or (not wires.parallel and not wires.dummies):
        return "-"
    parts = ",".join(f"{net}={n}" for net, n in sorted(wires.parallel.items()))
    return (parts or "-") + ("+dummies" if wires.dummies else "")


def option_key(
    stage_tag: str, base: MosGeometry, pattern: str, wires: WireConfig | None
) -> str:
    """Stable journal/injection key for one (sizing, pattern, wires) option."""
    return (
        f"{stage_tag}:{base.nfin}x{base.nf}x{base.m}:{pattern}:{wires_tag(wires)}"
    )


def option_error(option: LayoutOption) -> str | None:
    """BAD-METRIC validator: non-None when an option's numbers are poisoned."""
    bad = sorted(
        name
        for name, value in option.values.items()
        if not math.isfinite(value)
    )
    if bad:
        return f"non-finite metric values: {', '.join(bad)}"
    if not math.isfinite(option.cost):
        return f"non-finite cost {option.cost!r}"
    return None


def option_payload(option: LayoutOption) -> dict:
    """Journal payload of a completed option evaluation (values only —
    the layout regenerates deterministically without simulation)."""
    payload = {"values": dict(option.values), "simulations": option.simulations}
    if option.cache_key is not None:
        payload["cache_key"] = option.cache_key
    return payload


def restore_option(
    primitive,
    payload: dict,
    base: MosGeometry,
    pattern: str,
    wires: WireConfig,
    weight_override: dict[str, float] | None,
) -> LayoutOption:
    """Rebuild a journaled option without re-running its testbenches."""
    layout = primitive.generate(base, pattern, wires, verify=False)
    values = {name: float(v) for name, v in payload["values"].items()}
    breakdown = layout_cost(primitive, values, weight_override=weight_override)
    return LayoutOption(
        base=base,
        pattern=pattern,
        layout=layout,
        values=values,
        breakdown=breakdown,
        simulations=int(payload.get("simulations", 0)),
        wires=wires,
        cache_key=payload.get("cache_key"),
    )


def option_spec(
    primitive,
    base: MosGeometry,
    pattern: str,
    wires: WireConfig,
    weight_override: dict[str, float] | None,
) -> BatchSpec:
    """The :class:`~repro.runtime.BatchSpec` of one layout option:
    ``build`` is the layout → extract → netlist pipeline, ``finish``
    assembles the :class:`LayoutOption` from the measured values."""

    def build():
        # Sweep evaluations skip per-variant verification (the optimizer
        # verifies the options it emits, not every scored candidate).
        layout = primitive.generate(base, pattern, wires, verify=False)
        circuit = primitive.extract(layout, base).build_circuit()
        return circuit, layout

    def finish(layout, values, simulations, cache_key):
        breakdown = layout_cost(
            primitive, values, weight_override=weight_override
        )
        return LayoutOption(
            base=base,
            pattern=pattern,
            layout=layout,
            values=values,
            breakdown=breakdown,
            simulations=simulations,
            wires=wires,
            cache_key=cache_key,
        )

    return BatchSpec(
        primitive=primitive,
        build=build,
        finish=finish,
        weight_override=weight_override,
    )


def evaluate_option(
    primitive,
    base: MosGeometry,
    pattern: str,
    wires: WireConfig | None = None,
    weight_override: dict[str, float] | None = None,
    cache: EvalCache | None = None,
) -> LayoutOption:
    """Generate, extract and score a single layout option (through
    ``cache``, or a fresh cache when called standalone)."""
    spec = option_spec(
        primitive, base, pattern, wires or WireConfig(), weight_override
    )
    return evaluate_spec(spec, cache if cache is not None else EvalCache())


def option_task(
    stage_tag: str,
    primitive,
    base: MosGeometry,
    pattern: str,
    wires: WireConfig,
    weight_override: dict[str, float] | None,
) -> BatchTask:
    """The :class:`~repro.runtime.BatchTask` evaluating one layout option.

    Shared by the selection sweep and the tuning sweeps so both fan out
    through the same batch machinery with identical keys and payloads.
    """
    return BatchTask(
        key=option_key(stage_tag, base, pattern, wires),
        spec=option_spec(primitive, base, pattern, wires, weight_override),
        validate=option_error,
        to_payload=option_payload,
        from_payload=lambda payload: restore_option(
            primitive, payload, base, pattern, wires, weight_override
        ),
    )


def evaluate_options(
    primitive,
    variants: list[MosGeometry] | None = None,
    patterns: list[str] | None = None,
    wires: WireConfig | None = None,
    weight_override: dict[str, float] | None = None,
    runtime: EvalRuntime | None = None,
) -> list[LayoutOption]:
    """Evaluate all requested (sizing x pattern) layout options.

    ``variants`` defaults to every (nfin, nf, m) factorization of the
    primitive's fin budget; ``patterns`` defaults to every pattern
    feasible for the matched group at each multiplicity.  Infeasible
    combinations are skipped silently (e.g. ABBA at odd ratioed counts).

    Simulation failures (non-convergence, singular systems, NaN metrics)
    are absorbed by the ``runtime``: the failed option
    is dropped from the sweep and recorded on ``runtime.failures``.  The
    sweep raises only when *zero* options survive.
    """
    runtime = runtime if runtime is not None else EvalRuntime()
    variants = variants if variants is not None else primitive.variants()
    options: list[LayoutOption] = []
    matched = list(primitive.matched_group())
    tasks: list[BatchTask] = []
    for base in variants:
        if patterns is None:
            counts = {
                t.name: base.m * t.m_ratio
                for t in primitive.templates()
                if t.name in matched
            }
            todo = available_patterns(matched, counts)
        else:
            todo = patterns
        for pattern in todo:
            tasks.append(
                option_task(
                    "sel",
                    primitive,
                    base,
                    pattern,
                    wires or WireConfig(),
                    weight_override,
                )
            )
    batch = runtime.evaluate_batch(tasks, stage="selection")
    for index in range(len(tasks)):
        try:
            option = batch.consume(index)
        except LayoutError:
            continue
        if option is not None:
            options.append(option)
    if not options:
        raise OptimizationError(
            f"{primitive.name}: no feasible layout options "
            f"({runtime.failures.summary()})",
            failures=runtime.failures,
        )
    return options


def select_best_per_bin(
    options: list[LayoutOption],
    n_bins: int = 3,
    quality_factor: float = 1.5,
    quality_abs: float = 5.0,
) -> list[LayoutOption]:
    """Bin options by aspect ratio and keep the cheapest of each bin.

    Every option handed to the placer must be *usable*: a bin whose best
    still costs more than ``quality_factor`` times the global best plus
    the ``quality_abs`` absolute allowance is dropped — the placer
    optimizes area and wirelength and must be free to pick any offered
    option without wrecking performance.  The global best always
    survives.  A caller comparing selection strategies at a fixed
    quality bar can tighten ``quality_abs``; the default keeps the
    historical allowance.
    """
    bins = bin_by_aspect_ratio(options, n_bins, lambda o: o.aspect_ratio)
    winners = [min(group, key=lambda o: o.cost) for group in bins]
    best_cost = min(o.cost for o in winners)
    threshold = quality_factor * best_cost + quality_abs
    kept = [o for o in winners if o.cost <= threshold]
    return kept
