"""Checkpoint/resume: a killed sweep resumes without re-simulation.

ISSUE acceptance: killing an optimize run mid-sweep and resuming with
``--resume`` reproduces identical results without re-simulating the
evaluations the journal already holds.
"""

from __future__ import annotations

import pytest

from repro import PrimitiveOptimizer, Technology
from repro.runtime import CONV_DC
from repro.runtime import batched as engine
from repro.runtime.faults import FaultSpec, inject


def _fresh_dp():
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=8, name="rs_dp")


def _count_evaluations(primitive) -> list:
    """Instrument ``primitive.evaluate`` to count real simulations."""
    calls: list = []
    original = primitive.evaluate

    def counting(dut):
        calls.append(dut.name)
        return original(dut)

    primitive.evaluate = counting
    return calls


def _report_fingerprint(report) -> tuple:
    return (
        [(o.describe(), o.cost) for o in report.options],
        [(o.describe(), o.cost) for o in report.selected],
        [(t.option.describe(), t.option.cost) for t in report.tuned],
        report.total_simulations,
        report.best.cost,
        [f.to_dict() for f in report.failures.failures],
    )


@pytest.fixture(autouse=True)
def _lazy_serial(monkeypatch):
    # STACK_WIDTH=1 (with cache=False in ``_optimizer``) keeps this
    # file about pure journal mechanics: the ``_count_evaluations``
    # instrumentation counts serial simulator calls, which content-cache
    # hits and the stacked engine (whose members run through
    # ``batch_evaluate`` hooks, not ``primitive.evaluate``) would
    # legitimately elide (see test_evalcache.py / test_batched.py for
    # the cache- and stack-aware resume guarantees).
    monkeypatch.setattr(engine, "STACK_WIDTH", 1)


def _optimizer(run_dir, resume=False):
    return PrimitiveOptimizer(
        n_bins=2,
        max_wires=3,
        retries=2,
        run_dir=run_dir,
        resume=resume,
        cache=False,
    )


def test_resume_after_kill_is_identical_and_skips_sims(tmp_path):
    # Uninterrupted run: the ground truth.
    baseline = _optimizer(tmp_path / "full").optimize(_fresh_dp())

    # The same run, checkpointed.
    first = _optimizer(tmp_path / "run").optimize(_fresh_dp())
    assert _report_fingerprint(first) == _report_fingerprint(baseline)

    # "Kill" the sweep mid-way: keep only the first half of the journal,
    # as if the process died after journaling half its evaluations.
    journal = tmp_path / "run" / "rs_dp.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    assert len(lines) > 4
    kept = len(lines) // 2
    journal.write_text("".join(lines[:kept]))

    resumed_primitive = _fresh_dp()
    calls = _count_evaluations(resumed_primitive)
    resumed = _optimizer(tmp_path / "run", resume=True).optimize(
        resumed_primitive
    )

    # Identical results...
    assert _report_fingerprint(resumed) == _report_fingerprint(baseline)
    assert resumed.cached_evaluations == kept
    # ...without re-simulating the journaled half.  The resumed run only
    # simulates what the journal lost (plus nothing else: total journal
    # entries == journaled + re-run evaluations).
    assert len(calls) == len(lines) - kept


def test_full_journal_resume_needs_zero_simulations(tmp_path):
    first = _optimizer(tmp_path).optimize(_fresh_dp())

    primitive = _fresh_dp()
    calls = _count_evaluations(primitive)
    resumed = _optimizer(tmp_path, resume=True).optimize(primitive)
    assert not calls
    assert resumed.cached_evaluations > 0
    assert _report_fingerprint(resumed) == _report_fingerprint(first)


def test_resume_under_fault_injection_is_identical(tmp_path, fault_seed):
    # Keyed injection makes the fault pattern a pure function of
    # (seed, key, attempt), so an interrupted+resumed run must reproduce
    # the uninterrupted run bit-for-bit — including its failure log.
    spec = FaultSpec(dc_fail_rate=0.3)
    with inject(spec, seed=fault_seed):
        baseline = _optimizer(tmp_path / "full").optimize(_fresh_dp())

    with inject(spec, seed=fault_seed):
        _optimizer(tmp_path / "run").optimize(_fresh_dp())
    journal = tmp_path / "run" / "rs_dp.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[: len(lines) // 2]))

    with inject(spec, seed=fault_seed):
        resumed = _optimizer(tmp_path / "run", resume=True).optimize(
            _fresh_dp()
        )
    assert _report_fingerprint(resumed) == _report_fingerprint(baseline)
    if baseline.failures:
        assert resumed.failures.count(code=CONV_DC) == baseline.failures.count(
            code=CONV_DC
        )


def test_resume_without_journal_runs_fresh(tmp_path):
    primitive = _fresh_dp()
    report = _optimizer(tmp_path, resume=True).optimize(primitive)
    assert report.options
    assert report.cached_evaluations == 0
