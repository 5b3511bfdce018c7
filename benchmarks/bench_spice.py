#!/usr/bin/env python
"""Benchmark the sparse factorization-reuse MNA kernel.

Times the benchmark testbenches (5T OTA, StrongARM comparator, 8-stage
ring-oscillator VCO) on two solver backends --

* ``fixed_dense``   -- fixed-grid trapezoidal stepping on the dense LU
  backend, assembled from the same ``SystemTemplate`` triplets as the
  sparse run.  It is the baseline the other configuration is held to.
* ``fixed_sparse``  -- the same step sequence through scipy ``splu`` with
  the symbolic pattern and column order reused across factorizations.

-- and writes wall-clock, solver counters (steps, rejections,
factorizations), the kernel's time per layer (device evaluation,
stamping, factorization, solves) and measured metrics to
``BENCH_spice.json``.  It also times the 5T-OTA primitive-selection
sweep serial vs stacked (the vectorized multi-variant engine at
``STACK_WIDTH = 8``).  Each configuration measures circuit objects
built fresh for it, so neither backend runs on caches the other warmed.
Four properties are asserted, not just recorded:

* every configuration reproduces the baseline metrics within the cost
  function's noise tolerance,
* every configuration runs the same number of transient steps,
* the sparse backend beats the dense baseline by >= 2x wall-clock on
  the VCO transient (the dominant cost in the paper's Table VIII
  runtime), and
* the batched selection sweep reproduces the serial sweep's option
  metrics bitwise and beats it by >= 2x wall-clock.

Run via ``make bench-spice``, or directly::

    python benchmarks/bench_spice.py --out BENCH_spice.json

``--smoke`` swaps the assembled VCO for a short schematic run so CI can
exercise the harness in seconds (the speedup assert is skipped -- the
shrunk workload is too small to be representative).
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

from repro import Technology  # noqa: E402
from repro.cellgen.generator import WireConfig  # noqa: E402
from repro.cellgen.patterns import available_patterns  # noqa: E402
from repro.circuits import (  # noqa: E402
    FiveTransistorOta,
    RingOscillatorVco,
    StrongArmComparator,
)
from repro.circuits.base import LayoutChoice  # noqa: E402
from repro.spice import kernel  # noqa: E402

#: Metric agreement bar: the optimization cost function bins metric
#: deviations far coarser than 1%, so configurations whose metrics agree
#: to this tolerance are interchangeable for layout selection.
METRIC_RTOL = 1e-2

#: (name, solver) -- fixed_dense first: it is the baseline the other
#: row is compared against.
CONFIGS = [
    ("fixed_dense", kernel.DENSE),
    ("fixed_sparse", kernel.SPARSE),
]


@contextmanager
def configure(solver: str):
    """Pin every system to one backend through the size threshold."""
    saved = kernel.SPARSE_MIN_SIZE
    kernel.SPARSE_MIN_SIZE = 0 if solver == kernel.SPARSE else sys.maxsize
    try:
        yield
    finally:
        kernel.SPARSE_MIN_SIZE = saved


def conventional_choices(circuit) -> dict[str, LayoutChoice]:
    """Minimal hand-style layout choices, enough to assemble the DUT."""
    choices = {}
    for binding in circuit.bindings():
        primitive = binding.primitive
        variants = primitive.variants()
        base = min(variants, key=lambda g: (abs(g.nfin - g.nf), g.m))
        counts = {
            t.name: base.m * t.m_ratio
            for t in primitive.templates()
            if t.name in primitive.matched_group()
        }
        patterns = available_patterns(list(counts), counts)
        pattern = "ABBA" if "ABBA" in patterns else patterns[0]
        choices[binding.name] = LayoutChoice(
            base=base, pattern=pattern, wires=WireConfig()
        )
    return choices


def _testbenches(tech: Technology, smoke: bool) -> list[tuple]:
    """(label, make_thunk, skip_metrics) per benchmark circuit.

    ``make_thunk()`` builds fresh circuit objects (and, for the full
    run, the assembled VCO) and returns the measure thunk to time.
    :func:`bench_circuit` calls it once per configuration, outside the
    timed region, so no configuration runs warm on state another one
    cached -- the VCO caches its cell's schematic-reference delay
    transient on first use.

    ``skip_metrics`` names metrics excluded from the agreement assert.
    Only the smoke run skips anything: StrongARM ``power`` integrates a
    sub-picosecond supply-current spike that is not dt-converged at the
    smoke step (it moves ~8% between dt=2ps and dt=0.5ps), so a
    dense-vs-sparse disagreement there measures grid aliasing, not
    solver accuracy.  The full run steps at dt=0.5ps, where the metric
    is converged and all configurations agree to ~0.1%.
    """

    def ota_schematic():
        ota = FiveTransistorOta(tech)
        return lambda: ota.measure(ota.schematic())

    def strongarm_schematic():
        comparator = StrongArmComparator(tech)
        return lambda: comparator.measure(
            comparator.schematic(), dt=2e-12 if smoke else 5e-13
        )

    def vco_schematic():
        vco = RingOscillatorVco(tech)
        return lambda: vco.measure(
            vco.schematic(), periods=6, steps_per_period=150
        )

    def vco_assembled():
        # The acceptance workload: extracted 8-stage VCO, full transient.
        vco = RingOscillatorVco(tech)
        dut = vco.assembled(conventional_choices(vco))
        return lambda: vco.measure(dut)

    benches = [
        ("ota_schematic", ota_schematic, set()),
        (
            "strongarm_schematic",
            strongarm_schematic,
            {"power"} if smoke else set(),
        ),
    ]
    if smoke:
        benches.append(("vco_schematic", vco_schematic, set()))
    else:
        benches.append(("vco_assembled", vco_assembled, set()))
    return benches


def _run(measure_thunk, solver: str) -> dict:
    stats = kernel.SolverStats()
    with configure(solver):
        start = time.perf_counter()
        with kernel.collect(stats):
            metrics = measure_thunk()
        wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "metrics": metrics,
        "newton_iterations": stats.newton_iterations,
        "solves": stats.solves,
        "factorizations": stats.factorizations,
        "tran_steps": stats.tran_steps,
        "tran_rejected": stats.tran_rejected,
        "backends": stats.backends,
        # Where the kernel's time went (seconds, see ``SolverStats``).
        "device_eval_s": round(stats.device_eval_s, 4),
        "stamp_s": round(stats.stamp_s, 4),
        "factor_s": round(stats.factor_s, 4),
        "solve_s": round(stats.solve_s, 4),
    }


def bench_circuit(label: str, make_thunk, skip_metrics: set) -> dict:
    rows = {}
    for name, solver in CONFIGS:
        rows[name] = _run(make_thunk(), solver)
        print(
            f"  {label}/{name}: {rows[name]['wall_s']}s, "
            f"{rows[name]['tran_steps']} steps "
            f"({rows[name]['tran_rejected']} rejected), "
            f"{rows[name]['factorizations']} factorizations; kernel "
            f"eval {rows[name]['device_eval_s']}s, "
            f"stamp {rows[name]['stamp_s']}s, "
            f"factor {rows[name]['factor_s']}s, "
            f"solve {rows[name]['solve_s']}s"
        )
    # Both backends step the same fixed grid; unequal step counts mean
    # one configuration reused state another one computed.
    steps = {name: row["tran_steps"] for name, row in rows.items()}
    assert len(set(steps.values())) == 1, (
        f"{label}: configurations ran unequal transient steps {steps}"
    )
    baseline = rows["fixed_dense"]
    for name, row in rows.items():
        for key, ref in baseline["metrics"].items():
            if key in skip_metrics:
                continue
            got = row["metrics"][key]
            assert abs(got - ref) <= METRIC_RTOL * max(
                abs(ref), 1e-30
            ), f"{label}/{name}: metric {key} diverged ({got} vs {ref})"
        row["speedup"] = round(
            baseline["wall_s"] / max(row["wall_s"], 1e-9), 3
        )
    return rows


def bench_batched_selection(tech: Technology, smoke: bool) -> dict:
    """Time the 5T-OTA primitive-selection sweep serial vs batched.

    Runs the full (sizing x pattern) selection sweep of every OTA
    binding with the stacked engine's ``STACK_WIDTH`` set to 1 (the
    lazy-serial reference) and to 8, and asserts the batched
    sweep reproduces every option's metric values *bitwise* — the
    batched solvers replay the serial arithmetic, so agreement is exact,
    far inside the 1% acceptance tolerance.  The full run also asserts
    the >= 2x wall-clock win; the smoke run shrinks the variant set too
    far to time meaningfully.
    """
    from repro.core.selection import evaluate_options
    from repro.runtime import EvalRuntime
    from repro.runtime import batched as engine

    rows = {}
    results: dict[int, list] = {}
    counters = (
        "newton_iterations",
        "solves",
        "batched_solves",
        "batch_members",
        "batch_fallbacks",
    )
    default_width = engine.STACK_WIDTH
    for width in (1, 8):
        ota = FiveTransistorOta(tech)
        wall = 0.0
        totals = dict.fromkeys(counters, 0)
        options: list[tuple] = []
        n_options = 0
        for binding in ota.bindings():
            primitive = binding.primitive
            variants = primitive.variants()
            if smoke:
                variants = variants[:2]
            runtime = EvalRuntime()
            engine.STACK_WIDTH = width
            start = time.perf_counter()
            try:
                opts = evaluate_options(
                    primitive, variants=variants, runtime=runtime
                )
            finally:
                engine.STACK_WIDTH = default_width
            wall += time.perf_counter() - start
            # Solver work runs under the runtime's own collector; sum
            # its counters across bindings.
            for key in counters:
                totals[key] += getattr(runtime.solver_stats, key)
            n_options += len(opts)
            options.extend(
                (binding.name, o.base, o.pattern, o.values, o.simulations)
                for o in opts
            )
        results[width] = options
        rows[f"batch{width}"] = {"wall_s": round(wall, 4), "options": n_options}
        rows[f"batch{width}"].update(totals)
        print(
            f"  ota_selection/batch{width}: {rows[f'batch{width}']['wall_s']}s, "
            f"{n_options} options, {totals['batched_solves']} stacked solves"
        )

    assert len(results[1]) == len(results[8]), "option count diverged"
    for serial, batched in zip(results[1], results[8]):
        assert serial[:3] == batched[:3], "option identity diverged"
        assert serial[4] == batched[4], f"simulation count diverged: {serial[:3]}"
        for key, ref in serial[3].items():
            got = batched[3][key]
            assert got == ref, (
                f"ota_selection: {serial[0]} {serial[2]} metric {key} "
                f"diverged ({got} vs {ref})"
            )
    speedup = round(
        rows["batch1"]["wall_s"] / max(rows["batch8"]["wall_s"], 1e-9), 3
    )
    rows["speedup"] = speedup
    if not smoke:
        assert speedup >= 2.0, (
            f"acceptance regression: batched 5T-OTA selection sweep "
            f"speedup {speedup}x < 2x over the serial sweep"
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_spice.json",
        help="output JSON path (default: BENCH_spice.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload for CI smoke runs (skips the 2x assert)",
    )
    args = parser.parse_args()

    tech = Technology.default()
    circuits = {}
    for label, thunk, skip in _testbenches(tech, args.smoke):
        print(f"{label}:")
        circuits[label] = bench_circuit(label, thunk, skip)

    print("ota_selection:")
    batched_selection = bench_batched_selection(tech, args.smoke)

    report = {
        "benchmark": "spice-kernel",
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "metric_rtol": METRIC_RTOL,
        "circuits": circuits,
        "batched_selection": batched_selection,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    if not args.smoke:
        vco = circuits["vco_assembled"]
        speedup = vco["fixed_sparse"]["speedup"]
        print(
            f"VCO transient: {vco['fixed_dense']['wall_s']}s dense -> "
            f"{vco['fixed_sparse']['wall_s']}s sparse ({speedup}x)"
        )
        assert speedup >= 2.0, (
            f"acceptance regression: sparse VCO speedup {speedup}x "
            "< 2x over the dense baseline"
        )
        print(
            f"5T-OTA selection sweep: {batched_selection['batch1']['wall_s']}s "
            f"serial -> {batched_selection['batch8']['wall_s']}s batched "
            f"({batched_selection['speedup']}x)"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
