"""Chaos harness: torn journals and kills between a result and its
journal line.

A run whose journal tail is torn — a primitive's journal, or a flow's
``ports.jsonl`` — resumes to the clean run's result and records the
truncation on its downgrade ledger.  A run killed after an evaluation
finished but before the journal recorded it resumes to the same report
as an uninterrupted run: the journal is the only state that crosses the
kill, so nothing can answer the lost evaluation except a re-simulation.

Every scenario is deterministic; the seed matrix picks where the
torn-journal scenario tears the file, and ``make chaos`` runs this file
under ``REPRO_FAULT_SEEDS=0,1,2,3``.  Set ``REPRO_CHAOS_ARTIFACTS`` to a
directory to keep each scenario's run dir (journals) for post-mortem —
CI uploads them on failure.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import PrimitiveOptimizer, Technology
from repro.runtime import SweepJournal


@pytest.fixture
def chaos_dir(tmp_path, request):
    """Scratch dir for a chaos scenario's run state.

    Honors ``REPRO_CHAOS_ARTIFACTS``: when set, run dirs land under it
    (named per test) and survive the run, so CI can upload the journals
    of a failing scenario as artifacts.
    """
    root = os.environ.get("REPRO_CHAOS_ARTIFACTS")
    if not root:
        return tmp_path
    keep = Path(root) / request.node.name.replace("/", "_")
    keep.mkdir(parents=True, exist_ok=True)
    return keep


def _fresh_dp():
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=8, name="ch_dp")


def _optimizer(run_dir=None, resume=False):
    return PrimitiveOptimizer(
        n_bins=2,
        max_wires=3,
        retries=2,
        run_dir=run_dir,
        resume=resume,
    )


def _fingerprint(report) -> tuple:
    """Everything the determinism contract covers (downgrade-ledger
    entries excluded: they record *how* the run survived, not what it
    computed)."""
    return (
        [(o.describe(), o.cost) for o in report.options],
        [(o.describe(), o.cost) for o in report.selected],
        [(t.option.describe(), t.option.cost) for t in report.tuned],
        [(s.name, s.simulations) for s in report.stages],
        report.total_simulations,
        report.best.cost,
        [f.to_dict() for f in report.failures.failures],
        report.cache_stats,
    )


@pytest.fixture(scope="module")
def baseline():
    """Fingerprint of the uninterrupted, un-journaled run."""
    return _fingerprint(_optimizer().optimize(_fresh_dp()))


# -- torn journal --------------------------------------------------------


def test_torn_journal_resume_matches_clean(chaos_dir, fault_seed, baseline):
    run_dir = chaos_dir / "run"
    first = _optimizer(run_dir=run_dir).optimize(_fresh_dp())
    assert _fingerprint(first) == baseline

    # Crash artifact: the journal ends mid-line.  The seed picks which
    # line the crash tore (counting back from the last), so later
    # completed work is lost too and must be re-simulated.
    journal = run_dir / "ch_dp.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    victim = len(lines) - 1 - fault_seed % len(lines)
    torn = lines[victim][: len(lines[victim]) // 2]
    journal.write_bytes(b"".join(lines[:victim]) + torn)

    resumed = _optimizer(run_dir=run_dir, resume=True).optimize(_fresh_dp())

    assert _fingerprint(resumed) == baseline
    # The truncation is on the downgrade ledger, naming file and size.
    assert resumed.failures.downgrades == [
        f"journal {journal}: truncated a torn {len(torn)}-byte tail"
    ]
    # The truncated journal is clean JSONL end-to-end again.
    for line in journal.read_text().splitlines():
        json.loads(line)


def test_torn_ports_journal_resumes_flow_with_downgrade(chaos_dir):
    from repro import HierarchicalFlow
    from repro.circuits import CommonSourceAmpCircuit

    tech = Technology.default()

    def run(resume=False):
        flow = HierarchicalFlow(
            tech, n_bins=1, max_wires=2, verify=False,
            run_dir=str(chaos_dir / "flow"), resume=resume,
        )
        return flow.run(CommonSourceAmpCircuit(tech), measure=False)

    first = run()
    ports = chaos_dir / "flow" / "ports.jsonl"
    lines = ports.read_bytes().splitlines(keepends=True)
    torn = lines[-1][: len(lines[-1]) // 2]
    ports.write_bytes(b"".join(lines[:-1]) + torn)

    resumed = run(resume=True)

    assert resumed.choices == first.choices
    assert resumed.route_budgets == first.route_budgets
    assert resumed.failures.downgrades == [
        f"journal {ports}: truncated a torn {len(torn)}-byte tail"
    ]


# -- kill between an evaluation and its journal line ---------------------


class _Killed(BaseException):
    """A simulated kill: no runtime layer may absorb it."""


#: The scenario's run journals ten successes; kill before each of them.
@pytest.mark.parametrize("kill_at", range(1, 11))
def test_kill_before_journal_line_resumes_identically(
    chaos_dir, monkeypatch, kill_at, baseline
):
    # The evaluation thunk stores its content-cache entry, then the
    # runtime journals the result.  Killing in between must not let the
    # resumed run answer that evaluation from anywhere but a
    # re-simulation: the stage counts and cache statistics must match
    # the uninterrupted run's.
    run_dir = chaos_dir / "run"
    real = SweepJournal.record_success
    calls = 0

    def record_success(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == kill_at:
            raise _Killed
        return real(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SweepJournal, "record_success", record_success)
        with pytest.raises(_Killed):
            _optimizer(run_dir=run_dir).optimize(_fresh_dp())

    resumed = _optimizer(run_dir=run_dir, resume=True).optimize(_fresh_dp())

    assert _fingerprint(resumed) == baseline
    assert not resumed.failures.downgrades
