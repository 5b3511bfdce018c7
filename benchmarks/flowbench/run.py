#!/usr/bin/env python3
"""flowbench: time-to-layout and layout quality of the whole flow.

Runs each workload in its own subprocess, one at a time, and prints every
metric with its name and unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--trace`` the metrics are the end-to-end ones; with ``--trace`` they are
the per-layer ones from an outside-in span trace.  The full record goes
to ``--out`` (default ``benchmarks/flowbench/out/BENCH_flow.json``).  The
exit status is non-zero when a correctness check fails.

Usage, from the repository root::

    python3 benchmarks/flowbench/run.py --workload library --seed 1
    python3 -m benchmarks.flowbench --repeat 3
    python3 -m benchmarks.flowbench --smoke --trace

See ``benchmarks/flowbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per run: the main workload process plus this many
#: set-up-only processes (none in smoke mode); ``setup_s`` is their median.
SETUP_PROBES = 2

#: Set-up probes plus the measured process of one sample must end within
#: this; whatever still runs is killed.
SAMPLE_TIMEOUT_S = 170.0

SEED_NOTE = (
    "--seed orders the units of every workload; the flows' placer seed is "
    "fixed at 1, and the VCO's snake floorplan and both library workloads "
    "take no placer seed"
)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def run_seconds_default() -> float:
    return float(benchmark_spec()["run_seconds"])


def _worker_env(name: str, tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(WORKLOADS[name].env)
    # One BLAS thread: the workload runs on one thread of its own, and the
    # host-speed timer signal always lands on that thread.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp)
    return env


def _spawn(args: list[str], env: dict[str, str], deadline: float) -> tuple[int, float]:
    """Run one workload process; returns (exit status, peak RSS in MiB).

    The process leads its own session, so passing ``deadline`` kills any
    worker pool it started along with it.  ``os.wait4`` reports the
    largest RSS of the process and every descendant it reaped.
    """
    env = dict(env, FLOWBENCH_T0=repr(time.monotonic()))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        stdout=sys.stderr.fileno(),
        start_new_session=True,
    )
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    # Reaped here, not by Popen: record it so Popen does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, run_id: str) -> dict:
    """One sample: set-up probes, then the measured workload process."""
    deadline = time.monotonic() + SAMPLE_TIMEOUT_S
    tmp = OUT_DIR / "tmp" / run_id
    tmp.mkdir(parents=True, exist_ok=True)
    env = _worker_env(name, tmp)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    try:
        setups = []
        for probe in range(0 if smoke else SETUP_PROBES):
            result = tmp / f"setup{probe}.json"
            status, _ = _spawn(
                [*common, "--setup-only", "--scratch", str(tmp / f"s{probe}"), "--result", str(result)],
                env,
                deadline,
            )
            if status != 0 or not result.is_file():
                return {"workload": name, "crashed": f"set-up probe exited {status}"}
            setups.append(json.loads(result.read_text()))
        result = tmp / "result.json"
        args = [*common, "--trace", str(int(trace)), "--scratch", str(tmp / "main"), "--result", str(result)]
        if trace:
            args += ["--trace-out", str(OUT_DIR / f"trace_{name}_seed{seed}.json")]
        status, rss = _spawn(args, env, deadline)
        if status != 0 or not result.is_file():
            return {"workload": name, "crashed": f"workload process exited {status}"}
        sample = json.loads(result.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(sample)
    for key in ("setup_s", "raw_setup_s"):
        values = [s[key] for s in setups]
        sample[f"{key}_samples"] = values
        sample[key] = statistics.median(values)
    sample["peak_rss_mb"] = rss
    return sample


def sample_correct(sample: dict) -> bool:
    return (
        "crashed" not in sample
        and sample["failed"] == 0
        and all(sample["checks"].values())
    )


def aggregate(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def summarize_workload(name: str, samples: list[dict], trace: bool) -> dict:
    ok = [s for s in samples if "crashed" not in s]
    digests = sorted({s["result_digest"] for s in ok})
    whys = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}
    summary = {
        "why": whys.get(name, ""),
        "env": WORKLOADS[name].env,
        "correct": bool(ok) and len(ok) == len(samples) and all(map(sample_correct, ok)) and len(digests) == 1,
        "attempted": sum(s.get("attempted", 1) for s in samples),
        "failed": sum(s["failed"] if "crashed" not in s else 1 for s in samples),
        "result_digests": digests,
        "samples": samples,
    }
    if not ok:
        return summary
    summary["end_to_end"] = {
        metric: {**aggregate([s[metric] for s in ok]), "unit": unit}
        for metric, unit in metric_units("end_to_end").items()
    }
    # The same times before the host-speed correction, for reference.
    summary["uncorrected"] = {
        metric: {**aggregate([s[f"raw_{metric}"] for s in ok]), "unit": "s"}
        for metric in ("wall_s", "setup_s")
    }
    if trace:
        summary["per_layer"] = {
            metric: aggregate([s["per_layer"][metric] for s in ok])
            for metric in ok[0]["per_layer"]
        }
    return summary


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def cross_checks(summaries: dict[str, dict]) -> dict[str, bool]:
    """Checks across workloads of one invocation."""
    checks = {}
    lib, warm = summaries.get("library"), summaries.get("library_warm")
    if lib and warm and lib.get("result_digests") and warm.get("result_digests"):
        # Equal digests mean equal chosen options and best costs per
        # family: the disk cache, journal and surrogate change nothing.
        checks["library_equals_library_warm"] = lib["result_digests"] == warm["result_digests"]
    return checks


def contract_line(summaries: dict[str, dict], trace: bool) -> dict:
    """The last stdout line: one object for one workload, else metrics
    keyed ``<workload>/<metric>``."""
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {}
    for name, summary in summaries.items():
        table = summary.get("per_layer" if trace else "end_to_end", {})
        for metric, unit in units.items():
            if metric in table:
                key = metric if len(summaries) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": table[metric]["median"], "unit": unit}
    return metrics


def layer_unit(metric: str, listed: dict[str, str]) -> str:
    """Unit of a per-layer metric: as BENCHMARK.json lists it, else by
    its suffix."""
    if metric in listed:
        return listed[metric]
    for suffix, unit in (("_s", "s"), ("_pct", "%"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def print_table(summaries: dict[str, dict]) -> None:
    listed = metric_units("per_layer")
    print(f"flowbench: {SEED_NOTE}")
    for name, summary in summaries.items():
        print(f"[{name}] correct={summary['correct']} attempted={summary['attempted']} failed={summary['failed']} digest={','.join(d[:12] for d in summary['result_digests'])}")
        for metric, stats in summary.get("end_to_end", {}).items():
            print(f"  {metric:<24} {stats['median']:>14.6g} {stats['unit']:<5} (median of {stats['n']}, min {stats['min']:.6g}, max {stats['max']:.6g})")
        for metric, stats in summary.get("uncorrected", {}).items():
            print(f"  {metric + ' (uncorrected)':<24} {stats['median']:>14.6g} {stats['unit']}")
        for metric, stats in summary.get("per_layer", {}).items():
            print(f"  {metric:<36} {stats['median']:>14.6g} {layer_unit(metric, listed)}")
        for sample in summary["samples"]:
            if "crashed" in sample:
                print(f"  CRASHED: {sample['crashed']}")
                continue
            for check, passed in sample["checks"].items():
                if not passed:
                    print(f"  CHECK FAILED: {check}")
            for error in sample["errors"]:
                print(f"  ERROR: {error.strip().splitlines()[-1]}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes per workload; medians are reported")
    parser.add_argument("--seed", type=int, default=1, help="orders each workload's units (default 1)")
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report per-layer metrics from a traced run (bare --trace means 1)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny workloads, fewest rounds, no set-up probes")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "BENCH_flow.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like Ctrl-C, so a running workload process is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"flowbench: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    names = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else (0.0 if args.smoke else run_seconds_default())
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    summaries = {}
    for name in names:
        samples = []
        for rep in range(args.repeat):
            print(f"flowbench: {name} run {rep + 1}/{args.repeat}", file=sys.stderr, flush=True)
            samples.append(run_workload(name, args.seed, seconds, bool(args.trace), args.smoke, f"{os.getpid()}-{name}-{rep}"))
        summaries[name] = summarize_workload(name, samples, bool(args.trace))

    extra = cross_checks(summaries)
    correct = all(s["correct"] for s in summaries.values()) and all(extra.values())
    record = {
        "benchmark": "flowbench",
        "seed": args.seed,
        "seed_note": SEED_NOTE,
        "seconds": seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "repeat": args.repeat,
        "machine": machine_info(),
        "cross_checks": extra,
        "correct": correct,
        "workloads": summaries,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print_table(summaries)
    for check, passed in extra.items():
        print(f"cross-check {check}: {'ok' if passed else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": contract_line(summaries, bool(args.trace)),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
