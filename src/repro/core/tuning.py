"""Primitive tuning — Algorithm 1, step 2.

For each selected layout, parallel wires are added at the tuning
terminals (Table II) and the cost re-measured: "We start with adding a
single wire, and continue until the performance is closest to the
schematic (minimum cost), or at the point of maximum curvature for a
monotonically decreasing cost curve."

Uncorrelated terminals are optimized separately; correlated terminals are
enumerated jointly (the paper notes more than two correlated terminals is
uncommon, so the joint grid stays small).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from repro.cellgen.generator import WireConfig
from repro.core.selection import LayoutOption, option_task
from repro.errors import OptimizationError
from repro.runtime import EvalRuntime

#: Wire-range points dispatched per batch: the early-stop break usually
#: fires within three points, so dispatching the whole range up front
#: would make the stacked engine, which simulates a batch eagerly,
#: simulate past the stop.  Chunked dispatch keeps journal keys, consume order and
#: chosen wires identical while never evaluating unconsumed points.
TUNE_CHUNK = 3


@dataclass
class SweepPoint:
    """Cost at one wire count during a terminal sweep."""

    wires: int
    cost: float
    values: dict[str, float]


@dataclass
class TerminalSweep:
    """Sweep record for one tuning terminal (or correlated group)."""

    terminal: str
    points: list[SweepPoint] = field(default_factory=list)
    chosen: int = 1
    stopped_by: str = "exhausted"

    @property
    def costs(self) -> list[float]:
        return [p.cost for p in self.points]


@dataclass
class TuningResult:
    """Outcome of tuning one layout option.

    Attributes:
        option: The final (tuned) layout option.
        sweeps: Per-terminal sweep records.
        simulations: Simulations spent during tuning.
    """

    option: LayoutOption
    sweeps: list[TerminalSweep]
    simulations: int


def choose_stop_point(costs: list[float]) -> tuple[int, str]:
    """Pick the index of the chosen wire count from a cost curve.

    Returns (index, reason); reason is ``"minimum"`` when the curve turns
    upward, ``"curvature"`` when it decreases monotonically and the point
    of maximum (most positive) discrete curvature is used, or
    ``"exhausted"`` for short curves.
    """
    if not costs:
        raise OptimizationError("empty cost curve")
    finite = [i for i in range(len(costs)) if math.isfinite(costs[i])]
    if not finite:
        raise OptimizationError("every point of the cost curve failed")
    if len(finite) < len(costs):
        # Failed (inf-scored) points break the curve shape; settle for
        # the cheapest surviving point rather than reading curvature
        # through the gaps.
        return (min(finite, key=lambda i: costs[i]), "failed-points")
    if len(costs) < 3:
        return (min(range(len(costs)), key=lambda i: costs[i]), "exhausted")
    best = min(range(len(costs)), key=lambda i: costs[i])
    if best != len(costs) - 1:
        return best, "minimum"
    # Monotone decreasing: maximum curvature (second difference).
    curvature = [
        costs[i - 1] - 2.0 * costs[i] + costs[i + 1]
        for i in range(1, len(costs) - 1)
    ]
    k = max(range(len(curvature)), key=lambda i: curvature[i])
    return k + 1, "curvature"


def _terminal_groups(primitive) -> list[list]:
    """Group tuning terminals: singletons plus correlated clusters."""
    terminals = primitive.tuning_terminals()
    by_name = {t.name: t for t in terminals}
    seen: set[str] = set()
    groups: list[list] = []
    for terminal in terminals:
        if terminal.name in seen:
            continue
        cluster = [terminal]
        seen.add(terminal.name)
        stack = list(terminal.correlated_with)
        while stack:
            other_name = stack.pop()
            if other_name in seen or other_name not in by_name:
                continue
            other = by_name[other_name]
            cluster.append(other)
            seen.add(other_name)
            stack.extend(other.correlated_with)
        groups.append(cluster)
    return groups


def _untuned_straps(wires: WireConfig, group) -> int:
    """The wire count a failed sweep falls back to: the untuned strap
    count of the group's first connected net (1 for a terminal that
    touches no nets at all, e.g. a placeholder terminal)."""
    for terminal in group:
        if terminal.nets:
            return wires.straps(terminal.nets[0])
    return 1


def _with_counts(wires: WireConfig, terminals, counts) -> WireConfig:
    updated = wires
    for terminal, count in zip(terminals, counts):
        for net in terminal.nets:
            updated = updated.with_straps(net, count)
    return updated


def tune_option(
    primitive,
    option: LayoutOption,
    max_wires: int = 8,
    weight_override: dict[str, float] | None = None,
    runtime: EvalRuntime | None = None,
) -> TuningResult:
    """Tune one selected layout option (Algorithm 1, lines 8-15).

    Failing sweep points are scored ``inf`` (recorded on
    ``runtime.failures``) so they can never be chosen; a terminal whose
    sweep fails entirely keeps its untuned wire count, so tuning always
    returns a usable result for a selectable option.
    """
    runtime = runtime if runtime is not None else EvalRuntime()
    sweeps: list[TerminalSweep] = []
    simulations = 0
    wires = option.wires
    best_option = option

    def sweep_batch(candidates: list[WireConfig]):
        tasks = [
            option_task(
                "tune",
                primitive,
                option.base,
                option.pattern,
                candidate,
                weight_override,
            )
            for candidate in candidates
        ]
        return runtime.evaluate_batch(tasks, stage="tuning")

    for group in _terminal_groups(primitive):
        limit = min(max_wires, min(t.max_wires for t in group))
        if len(group) > 1:
            # Joint grids grow as limit**k; the paper notes correlated
            # groups are small, and so must the per-terminal range be.
            limit = min(limit, 4)
        if len(group) == 1:
            terminal = group[0]
            sweep = TerminalSweep(terminal=terminal.name)
            options_at = {}
            counts = list(range(1, limit + 1))
            # The range dispatches in chunks of TUNE_CHUNK: the
            # early-stop break below usually fires within three points,
            # and chunking keeps the eager stacked engine from
            # simulating points the loop never consumes.
            # Journal keys, consume order and chosen wires are identical
            # to a single-batch dispatch.
            stopped_early = False
            for start in range(0, len(counts), TUNE_CHUNK):
                chunk = counts[start:start + TUNE_CHUNK]
                batch = sweep_batch(
                    [_with_counts(wires, group, (c,)) for c in chunk]
                )
                for index, count in enumerate(chunk):
                    candidate = batch.consume(index)
                    if candidate is None:
                        sweep.points.append(
                            SweepPoint(count, float("inf"), {})
                        )
                        continue
                    simulations += candidate.simulations
                    sweep.points.append(
                        SweepPoint(count, candidate.cost, candidate.values)
                    )
                    options_at[count] = candidate
                    if len(sweep.points) >= 3 and (
                        sweep.points[-1].cost > sweep.points[-2].cost
                        and sweep.points[-2].cost > sweep.points[-3].cost
                    ):
                        stopped_early = True
                        break  # clearly past the minimum
                if stopped_early:
                    break
            if not options_at:
                # Whole terminal sweep failed: keep the untuned wires.
                sweep.chosen = _untuned_straps(wires, group)
                sweep.stopped_by = "failed"
                sweeps.append(sweep)
                continue
            idx, reason = choose_stop_point(sweep.costs)
            sweep.chosen = sweep.points[idx].wires
            sweep.stopped_by = reason
            sweeps.append(sweep)
            wires = _with_counts(wires, group, (sweep.chosen,))
            best_option = options_at[sweep.chosen]
        else:
            # Correlated terminals: joint enumeration.
            sweep = TerminalSweep(
                terminal="+".join(t.name for t in group), stopped_by="joint"
            )
            best_cost = float("inf")
            best_counts: tuple[int, ...] | None = None
            grid = list(product(range(1, limit + 1), repeat=len(group)))
            batch = sweep_batch([_with_counts(wires, group, c) for c in grid])
            for index, counts in enumerate(grid):
                candidate = batch.consume(index)
                if candidate is None:
                    sweep.points.append(
                        SweepPoint(sum(counts), float("inf"), {})
                    )
                    continue
                simulations += candidate.simulations
                sweep.points.append(
                    SweepPoint(sum(counts), candidate.cost, candidate.values)
                )
                if candidate.cost < best_cost:
                    best_cost = candidate.cost
                    best_counts = counts
                    best_option = candidate
            if best_counts is None:
                # Whole joint sweep failed: keep the untuned wires (the
                # dataclass default of 1 would misreport a pre-tuned
                # strap count).
                sweep.chosen = _untuned_straps(wires, group)
                sweep.stopped_by = "failed"
                sweeps.append(sweep)
                continue
            sweep.chosen = sum(best_counts)
            sweeps.append(sweep)
            wires = _with_counts(wires, group, best_counts)

    return TuningResult(option=best_option, sweeps=sweeps, simulations=simulations)
