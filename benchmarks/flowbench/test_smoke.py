"""Schema test: a traced ``--smoke`` run reports every metric named in
BENCHMARK.json, with its unit, on every workload, and passes every
correctness check.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/flowbench -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SMOKE_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "BENCH_flow.json"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {
        "elapsed": elapsed,
        "last_line": json.loads(proc.stdout.strip().splitlines()[-1]),
        "record": json.loads(out.read_text()),
        "spec": json.loads((ROOT / "BENCHMARK.json").read_text()),
    }


def test_smoke_fits_its_budget(smoke):
    # In reference seconds, like every time the benchmark reports: the
    # host's own slowdown, as the runs measured it, does not count.
    kernel = [
        sample["host"]["kernel_mean_s"]
        for summary in smoke["record"]["workloads"].values()
        for sample in summary["samples"]
    ]
    assert smoke["elapsed"] * REFERENCE_S / statistics.fmean(kernel) <= SMOKE_BUDGET_S


def test_every_check_passes(smoke):
    record = smoke["record"]
    assert record["correct"] and smoke["last_line"]["correct"]
    assert all(record["cross_checks"].values()) and record["cross_checks"]
    for name, summary in record["workloads"].items():
        assert summary["correct"], name
        assert summary["failed"] == 0
        for sample in summary["samples"]:
            assert all(sample["checks"].values()), (name, sample["checks"])


def test_every_benchmark_metric_is_reported_with_its_unit(smoke):
    spec, record = smoke["spec"], smoke["record"]
    assert sorted(record["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, summary in record["workloads"].items():
        for metric in spec["end_to_end"]:
            reported = summary["end_to_end"][metric["name"]]
            assert reported["unit"] == metric["unit"], (name, metric)
            assert reported["median"] > 0, (name, metric)
        for metric in spec["per_layer"]:
            assert metric["name"] in summary["per_layer"], (name, metric)
    line = smoke["last_line"]["metrics"]
    for name in record["workloads"]:
        for metric in spec["per_layer"]:
            assert line[f"{name}/{metric['name']}"]["unit"] == metric["unit"]
