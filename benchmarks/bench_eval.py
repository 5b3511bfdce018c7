#!/usr/bin/env python
"""Benchmark the content-cached evaluation engine.

Measures two configurations of the primitive-optimization sweep over a
small primitive set — serial (the stacked sweep engine, no cache) and
content-cached (cache on) — plus the cache's simulation-count reduction
on the full 5T OTA hierarchical flow, and writes the numbers to
``BENCH_eval.json`` so later changes have a performance trajectory to
compare against.

Determinism makes the comparison honest: the cached sweep scores every
option exactly as the uncached one (asserted here), so the only thing
the cache can change is how many evaluations reach the simulator.

Run via ``make bench-eval``, or directly::

    python benchmarks/bench_eval.py --out BENCH_eval.json

``--smoke`` shrinks the sweep for CI smoke runs (the JSON still carries
every field, just from a smaller workload).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import HierarchicalFlow, PrimitiveOptimizer, Technology  # noqa: E402
from repro.circuits import FiveTransistorOta  # noqa: E402
from repro.primitives import (  # noqa: E402
    DifferentialPair,
    DiodeLoad,
    MosPrimitive,
    PassiveCurrentMirror,
)
from repro.runtime import EvalCache  # noqa: E402


@contextmanager
def count_simulations():
    """Count every evaluation that actually reaches the simulator.

    Wraps :meth:`MosPrimitive.evaluate` and its stacked counterpart
    :meth:`MosPrimitive.evaluate_many` at the class level, so primitives
    constructed inside the flow are counted too.  Cache hits reach
    neither and therefore never count — which is exactly the number the
    benchmark wants.  A stacked member that failed (None) is re-run
    through ``evaluate`` and counted there.
    """
    counts = {"evaluations": 0, "simulations": 0}
    original = MosPrimitive.evaluate
    original_many = MosPrimitive.evaluate_many

    def counting(self, dut):
        values, sims = original(self, dut)
        counts["evaluations"] += 1
        counts["simulations"] += sims
        return values, sims

    def counting_many(self, duts):
        outcomes = original_many(self, duts)
        for outcome in outcomes:
            if outcome is not None:
                counts["evaluations"] += 1
                counts["simulations"] += outcome[1]
        return outcomes

    MosPrimitive.evaluate = counting
    MosPrimitive.evaluate_many = counting_many
    try:
        yield counts
    finally:
        MosPrimitive.evaluate = original
        MosPrimitive.evaluate_many = original_many


def _primitive_set(tech: Technology, smoke: bool) -> list[MosPrimitive]:
    base = 8 if smoke else 48
    return [
        DifferentialPair(tech, base_fins=base, name="bench_dp"),
        PassiveCurrentMirror(tech, base_fins=base, name="bench_cm"),
        DiodeLoad(tech, base_fins=base, name="bench_load"),
    ]


def _fingerprint(report) -> tuple:
    return (
        [(o.describe(), o.cost) for o in report.options],
        [(t.option.describe(), t.option.cost) for t in report.tuned],
        report.total_simulations,
        report.best.cost,
    )


def _sweep(tech, cache, smoke):
    """One full-library optimization pass; returns (wall_s, sims, prints)."""
    optimizer = PrimitiveOptimizer(
        n_bins=2,
        max_wires=3 if smoke else 5,
        cache=cache,
    )
    start = time.perf_counter()
    with count_simulations() as counts:
        reports = [
            optimizer.optimize(p) for p in _primitive_set(tech, smoke)
        ]
    wall = time.perf_counter() - start
    return wall, counts, [_fingerprint(r) for r in reports]


def bench_sweep(tech, smoke: bool) -> dict:
    serial_wall, serial_counts, serial_prints = _sweep(
        tech, cache=False, smoke=smoke
    )
    cached_wall, cached_counts, cached_prints = _sweep(
        tech, cache=EvalCache(), smoke=smoke
    )
    # Caching may zero per-option simulation counts but never the
    # scores: every option, tuning point and best cost must match the
    # uncached run.
    for cached, serial in zip(cached_prints, serial_prints):
        assert (cached[0], cached[1], cached[3]) == (
            serial[0],
            serial[1],
            serial[3],
        ), "cache changed a result: costs diverged"
    return {
        "primitives": [p.name for p in _primitive_set(tech, smoke)],
        # "simulations" counts calls that reached the simulator
        # (including schematic references); "report_simulations" is the
        # sweep-stage accounting from the optimization reports.
        "serial": {
            "wall_s": round(serial_wall, 4),
            "simulations": serial_counts["simulations"],
            "evaluations": serial_counts["evaluations"],
            "report_simulations": sum(fp[2] for fp in serial_prints),
        },
        "cached": {
            "wall_s": round(cached_wall, 4),
            "simulations": cached_counts["simulations"],
            "evaluations": cached_counts["evaluations"],
            "report_simulations": sum(fp[2] for fp in cached_prints),
        },
        "cache_sim_reduction": round(
            1.0
            - cached_counts["simulations"]
            / max(serial_counts["simulations"], 1),
            4,
        ),
    }


def bench_ota_flow(tech, smoke: bool) -> dict:
    """Cache simulation-count reduction on the 5T OTA hierarchical flow."""

    def run(cache: bool) -> dict:
        flow = HierarchicalFlow(
            tech,
            n_bins=2,
            max_wires=3 if smoke else 5,
            placer_iterations=100 if smoke else 500,
            verify=False,
            cache=cache,
        )
        with count_simulations() as counts:
            result = flow.run(FiveTransistorOta(tech), measure=False)
        assert result.assembled is not None
        return dict(counts)

    uncached = run(cache=False)
    cached = run(cache=True)
    return {
        "circuit": "FiveTransistorOta",
        "uncached_simulations": uncached["simulations"],
        "cached_simulations": cached["simulations"],
        "sim_reduction": round(
            1.0 - cached["simulations"] / max(uncached["simulations"], 1), 4
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_eval.json",
        help="output JSON path (default: BENCH_eval.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload for CI smoke runs",
    )
    args = parser.parse_args()

    tech = Technology.default()
    report = {
        "benchmark": "eval-engine",
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "sweep": bench_sweep(tech, smoke=args.smoke),
        "ota_flow": bench_ota_flow(tech, smoke=args.smoke),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    sweep = report["sweep"]
    print(
        f"sweep: serial {sweep['serial']['wall_s']}s / "
        f"{sweep['serial']['simulations']} sims; "
        f"cached {sweep['cached']['wall_s']}s / "
        f"{sweep['cached']['simulations']} sims "
        f"(-{sweep['cache_sim_reduction']:.0%})"
    )
    ota = report["ota_flow"]
    print(
        f"5T OTA flow: {ota['uncached_simulations']} -> "
        f"{ota['cached_simulations']} sims with cache "
        f"(-{ota['sim_reduction']:.0%})"
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
