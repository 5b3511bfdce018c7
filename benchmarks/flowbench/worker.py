"""One workload in one process: set up, run the timed loop, check, report.

Started by :mod:`run`, never by hand.  The parent records
``time.monotonic()`` in ``FLOWBENCH_T0`` just before starting this
process; set-up time runs from there until the workload is built, so
it includes interpreter start and imports.  The result is written as
JSON to ``--result``.

Timed loop
    Units run round-robin in an order drawn from ``--seed``, each unit at
    least once; after the first round a unit runs again only if its last
    time still fits in ``--seconds``.  ``wall_s`` is the sum over units of
    each unit's median time: the time to run the workload once.

Host-speed correction (:mod:`hostspeed`)
    The host's speed is sampled while untraced units run, and every
    execution's time is corrected to reference seconds before the medians
    are taken.  ``setup_s`` is corrected by the samples taken during
    set-up and a burst of samples right after it.  The uncorrected times
    are kept as ``raw_*``.

Traced loop (``--trace 1``)
    Whole rounds alternate untraced and traced, at least one of each.
    The tracer is installed only for traced rounds, and the host speed
    is sampled only in untraced ones, so no span holds a kernel run.
    End-to-end numbers come from untraced rounds; per-layer numbers are
    per traced round.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

_clock = time.perf_counter

#: One execution: ``(start, end, seconds of host sampling inside it)``.
Interval = tuple[float, float, float]


def seconds_of(interval: Interval) -> float:
    """An execution's own time, host sampling excluded."""
    start, end, stolen = interval
    return end - start - stolen


@contextmanager
def _recording(tracer):
    tracer.install()
    tracer.recording = True
    try:
        yield
    finally:
        tracer.recording = False
        tracer.uninstall()


class Loop:
    """Runs units, keeping results and failures per unit."""

    def __init__(self, workload, units: list[str], speed, tracer=None):
        self.workload = workload
        self.units = units
        self.speed = speed
        self.tracer = tracer
        self.results: dict[str, list] = {u: [] for u in units}
        self.errors: list[str] = []
        self.dead: set[str] = set()

    def execute(self, unit: str) -> Interval | None:
        """Run one unit; returns its interval, or None when it raised."""
        prepared = self.workload.prepare(unit)
        try:
            stolen = self.speed.stolen
            start = _clock()
            if self.tracer is not None and self.tracer.recording:
                self.tracer.unit = unit
                with self.tracer.span("flowbench.unit"):
                    result = self.workload.run(unit, prepared)
            else:
                result = self.workload.run(unit, prepared)
            end = _clock()
        except Exception:
            self.errors.append(f"{unit}: {traceback.format_exc()}")
            self.dead.add(unit)
            return None
        finally:
            self.workload.cleanup(prepared)
        self.results[unit].append(result)
        return start, end, self.speed.stolen - stolen

    def untraced(self, seconds: float) -> dict[str, list[Interval]]:
        times: dict[str, list[Interval]] = {u: [] for u in self.units}
        start = _clock()
        with self.speed.sampling():
            for i in itertools.count():
                if len(self.dead) == len(self.units):
                    break
                unit = self.units[i % len(self.units)]
                if unit in self.dead:
                    continue
                if i >= len(self.units) and _clock() - start + seconds_of(times[unit][-1]) > seconds:
                    break
                interval = self.execute(unit)
                if interval is not None:
                    times[unit].append(interval)
        return times

    def alternating(self, seconds: float):
        """Whole rounds, untraced and traced in turn; returns the unit
        intervals and round walls of each kind, keyed by ``traced``."""
        times = {kind: {u: [] for u in self.units} for kind in (False, True)}
        rounds: dict[bool, list[float]] = {False: [], True: []}
        start = _clock()
        for r in itertools.count():
            traced = r % 2 == 1
            if r >= 2 and _clock() - start + rounds[traced][-1] > seconds:
                break
            wall = 0.0
            with _recording(self.tracer) if traced else self.speed.sampling():
                for unit in self.units:
                    interval = None if unit in self.dead else self.execute(unit)
                    if interval is not None:
                        times[traced][unit].append(interval)
                        wall += seconds_of(interval)
            rounds[traced].append(wall)
        return times, rounds


def per_layer_from_trace(tracer, traced_rounds: int, workload) -> tuple[dict, list[str]]:
    """Per-round span metrics, and the large spans that never fired."""
    from tracer import ROOT as ROOT_SPAN
    from tracer import TARGETS, summarize

    summary = summarize(tracer.spans)
    root = summary.pop(ROOT_SPAN, {"self_s": 0.0, "total_s": 0.0})
    wall = root["total_s"]
    metrics: dict[str, float] = {}
    for name in TARGETS:
        entry = summary.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}.self_s"] = entry["self_s"] / traced_rounds
        metrics[f"{name}.self_pct"] = 100.0 * entry["self_s"] / wall if wall else 0.0
        metrics[f"{name}.calls"] = entry["calls"] / traced_rounds
    metrics["trace.unattributed_s"] = root["self_s"] / traced_rounds
    metrics["trace.coverage_pct"] = 100.0 * (1.0 - root["self_s"] / wall) if wall else 0.0
    missing = set(tracer.missing)
    silent = [
        span
        for span in workload.spec.large_spans
        if any(t not in missing for t in TARGETS[span])
        and summary.get(span, {}).get("calls", 0) == 0
    ]
    return metrics, silent


def finish(workload, loop: Loop) -> dict:
    """Check phase (untimed): correctness checks, quality and counts."""
    from workloads import COUNT_KEYS, derived_counts, sha256_json

    first = {u: rs[0] for u, rs in loop.results.items() if rs}
    unit_digests = {u: first[u].digest for u in sorted(first)}
    unstable = {u for u, rs in loop.results.items() if len({r.digest for r in rs}) > 1}
    nonfinite = {
        u
        for u, r in first.items()
        if not all(math.isfinite(v) for v in [*r.costs, *r.metrics.values()])
    }
    checked = workload.check(first) if first else {"checks": {}, "dev_pct": math.nan}
    costs = [c for r in first.values() for c in r.costs]
    quality = {
        "layout_cost": (
            statistics.geometric_mean(costs) if costs and min(costs) > 0 else math.nan
        ),
        "post_layout_dev_pct": checked["dev_pct"],
    }
    checks = {
        "digest_stable_across_repeats": not unstable,
        "metrics_finite": not nonfinite
        and all(math.isfinite(v) for v in quality.values()),
        **checked["checks"],
    }

    # Per-round counts: the mean over a unit's executions, summed over units.
    counts = dict.fromkeys(COUNT_KEYS, 0.0)
    for results in loop.results.values():
        for key in {k for r in results for k in r.counts}:
            counts[key] += statistics.fmean(r.counts.get(key, 0.0) for r in results)
    counts["verify.signoff_errors"] = checked.get("signoff_errors", 0)

    executions = sum(len(rs) for rs in loop.results.values())
    return {
        **quality,
        "counts": derived_counts(counts),
        "checks": checks,
        "unit_digests": unit_digests,
        "result_digest": sha256_json(unit_digests),
        # A unit that raised counts once; one that failed a check counts
        # every execution.
        "attempted": executions + len(loop.dead),
        "failed": len(loop.dead)
        + sum(len(loop.results[u]) for u in unstable | nonfinite),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    t0 = float(os.environ["FLOWBENCH_T0"])
    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import HostSpeed

    speed = HostSpeed()
    start = _clock()
    with speed.sampling():
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"imported repro from {repro.__file__}, not {ROOT / 'src'}")
        import workloads

        workload = workloads.build(args.workload, args.smoke, args.scratch)
    raw_setup = time.monotonic() - t0 - speed.stolen
    # A set-up shorter than a few sampling periods is corrected mostly by
    # these samples, taken right after it.
    speed.burst()
    out: dict = {
        "workload": args.workload,
        "raw_setup_s": raw_setup,
        "setup_s": raw_setup * speed.factor(start, _clock()),
    }
    if args.setup_only:
        args.result.write_text(json.dumps(out))
        return 0

    units = list(workload.units)
    random.Random(args.seed).shuffle(units)
    out["units"] = units
    per_layer: dict[str, float] = {}
    if args.trace:
        from tracer import Tracer, chrome_trace

        tracer = Tracer()
        loop = Loop(workload, units, speed, tracer)
        times, rounds = loop.alternating(args.seconds)
        per_layer, silent = per_layer_from_trace(tracer, len(rounds[True]), workload)
        per_layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(rounds[True]) / statistics.median(rounds[False]) - 1.0
        )
        intervals = times[False]
        out["traced_unit_times"] = {u: list(map(seconds_of, t)) for u, t in times[True].items()}
        out["rounds"] = {"untraced": rounds[False], "traced": rounds[True]}
        out["missing_targets"] = tracer.missing
        out["silent_large_spans"] = silent
        if args.trace_out is not None:
            args.trace_out.write_text(json.dumps(chrome_trace(tracer.spans, args.workload)))
    else:
        loop = Loop(workload, units, speed)
        intervals = loop.untraced(args.seconds)
    out["raw_unit_times"] = {u: list(map(seconds_of, t)) for u, t in intervals.items()}
    out["unit_times"] = {
        u: [seconds_of(i) * speed.factor(i[0], i[1]) for i in t] for u, t in intervals.items()
    }
    out["raw_wall_s"] = sum(statistics.median(t) for t in out["raw_unit_times"].values() if t)
    out["wall_s"] = sum(statistics.median(t) for t in out["unit_times"].values() if t)
    kernel = [s for _, s in speed.samples]
    out["host"] = {"samples": len(kernel), "kernel_mean_s": statistics.fmean(kernel)}
    out.update(finish(workload, loop))
    if args.trace:
        out["checks"]["large_spans_fire"] = not out["silent_large_spans"]
    out["per_layer"] = {**per_layer, **out.pop("counts")}
    out["errors"] = loop.errors
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
