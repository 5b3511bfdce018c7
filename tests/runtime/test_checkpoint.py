"""Sweep-journal crash consistency and replay."""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError
from repro.runtime import (
    CONV_DC,
    EvalFailure,
    EvalRuntime,
    FailureLog,
    SweepJournal,
)


def test_success_round_trip(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("k1", {"cost": 1.5})
        journal.record_success("k2", {"cost": 2.5})
    with SweepJournal(path, resume=True) as journal:
        assert len(journal) == 2
        assert "k1" in journal
        assert journal.lookup("k1")["payload"] == {"cost": 1.5}
        assert journal.lookup("missing") is None


def test_failure_round_trip(tmp_path):
    path = tmp_path / "sweep.jsonl"
    failure = EvalFailure(CONV_DC, "selection", "k1", message="boom", attempt=1)
    with SweepJournal(path) as journal:
        journal.record_failure("k1", [failure])
    with SweepJournal(path, resume=True) as journal:
        assert journal.lookup("k1")["status"] == "failed"
        assert journal.journaled_failures("k1") == [failure]
        assert journal.journaled_failures("other") == []


def test_fresh_journal_truncates(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("stale", {})
    with SweepJournal(path, resume=False) as journal:
        assert len(journal) == 0
    with SweepJournal(path, resume=True) as journal:
        assert "stale" not in journal


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("done", {"cost": 1.0})
    with path.open("a") as handle:
        handle.write('{"key": "in-flight", "status"')  # killed mid-write
    with SweepJournal(path, resume=True) as journal:
        assert "done" in journal
        assert "in-flight" not in journal


def test_torn_tail_is_truncated_on_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("done", {"cost": 1.0})
    clean = path.read_bytes()
    torn = b'{"key": "in-flight", "sta'
    with path.open("ab") as handle:
        handle.write(torn)
    with SweepJournal(path, resume=True) as journal:
        assert journal.truncated_tail == len(torn)
        journal.record_success("next", {"cost": 2.0})
    # The file is clean JSONL end-to-end: the torn bytes are gone and
    # every line parses.
    raw = path.read_bytes()
    assert raw.startswith(clean)
    for line in raw.decode().splitlines():
        json.loads(line)
    # A second resume sees no artifact of the first crash.
    with SweepJournal(path, resume=True) as journal:
        assert journal.truncated_tail == 0
        assert "done" in journal and "next" in journal


def test_clean_resume_reports_zero_truncated_tail(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("done", {"cost": 1.0})
    with SweepJournal(path, resume=True) as journal:
        assert journal.truncated_tail == 0
        assert not EvalRuntime(journal=journal).failures.downgrades


def test_runtime_records_torn_tail_on_downgrade_ledger(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("done", {"cost": 1.0})
    torn = b'{"key": "in-flight", "sta'
    with path.open("ab") as handle:
        handle.write(torn)
    log = FailureLog()
    with SweepJournal(path, resume=True) as journal:
        EvalRuntime(journal=journal, failures=log)
        EvalRuntime(journal=journal, failures=log)  # recorded once
    assert log.downgrades == [
        f"journal {path}: truncated a torn {len(torn)}-byte tail"
    ]
    assert "downgraded" in log.summary()


def test_interior_corruption_raises(tmp_path):
    path = tmp_path / "sweep.jsonl"
    lines = [
        json.dumps({"key": "a", "status": "ok", "payload": {}}),
        "garbage not json",
        json.dumps({"key": "b", "status": "ok", "payload": {}}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError):
        SweepJournal(path, resume=True)


def test_unknown_status_raises(tmp_path):
    path = tmp_path / "sweep.jsonl"
    path.write_text(json.dumps({"key": "a", "status": "maybe"}) + "\n")
    path.write_text(
        path.read_text() + json.dumps({"key": "b", "status": "ok"}) + "\n"
    )
    with pytest.raises(CheckpointError):
        SweepJournal(path, resume=True)


def test_resume_missing_file_starts_empty(tmp_path):
    with SweepJournal(tmp_path / "fresh.jsonl", resume=True) as journal:
        assert len(journal) == 0


def test_last_entry_wins(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_failure("k", [EvalFailure(CONV_DC, "s", "k")])
        journal.record_success("k", {"cost": 3.0})
    with SweepJournal(path, resume=True) as journal:
        assert journal.lookup("k")["status"] == "ok"


def test_pruned_lines_read_as_not_completed(tmp_path):
    # Journals written by an older learned sweep pruner hold payload-free
    # "pruned" lines.  Replay drops them; unknown statuses still raise
    # (see test_unknown_status_raises).
    path = tmp_path / "sweep.jsonl"
    lines = [
        {"key": "a", "status": "ok", "payload": {"cost": 1.0}},
        {"key": "b", "status": "pruned"},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with SweepJournal(path, resume=True) as journal:
        assert len(journal) == 1
        assert "b" not in journal
        assert journal.lookup("b") is None
        assert journal.journaled_failures("b") == []
        journal.record_success("b", {"cost": 2.0})
    with SweepJournal(path, resume=True) as journal:
        assert journal.lookup("b")["payload"] == {"cost": 2.0}


@pytest.mark.parametrize(
    "code, message, downgrade",
    [
        pytest.param(
            "WORKER-LOST",
            "sel:a: implicated in 2 worker deaths",
            "worker pool: worker lost; pool replaced",
            id="WORKER-LOST",
        ),
        pytest.param(
            "EVAL-TIMEOUT",
            "evaluation took 61s (deadline 1s)",
            None,
            id="EVAL-TIMEOUT",
        ),
    ],
)
def test_legacy_failure_codes_still_load(tmp_path, code, message, downgrade):
    # Failure logs and journals may carry codes of retired engines: the
    # process pool's WORKER-LOST (and its downgrade texts) and the
    # per-evaluation deadline's EVAL-TIMEOUT.
    lost = {
        "code": code,
        "stage": "selection",
        "key": "sel:a",
        "message": message,
        "attempt": 0,
        "injected": False,
    }
    downgrades = [downgrade] if downgrade else []
    document = {
        "failures": [lost],
        "degraded_stages": [],
        "downgrades": downgrades,
    }
    log = FailureLog.from_dict(document)
    assert log.by_code() == {code: 1}
    assert log.downgrades == downgrades
    assert f"{code}=1" in log.summary()
    assert all(text in log.summary() for text in downgrades)
    assert log.to_dict() == document

    path = tmp_path / "sweep.jsonl"
    path.write_text(
        json.dumps({"key": "sel:a", "status": "failed", "failures": [lost]})
        + "\n"
    )
    with SweepJournal(path, resume=True) as journal:
        assert journal.journaled_failures("sel:a") == [
            EvalFailure.from_dict(lost)
        ]
        runtime = EvalRuntime(journal=journal)
        never = lambda: pytest.fail("journaled key re-evaluated")  # noqa: E731
        assert runtime.evaluate("sel:a", never, stage="selection") is None
    assert runtime.failures.by_code() == {code: 1}
    assert runtime.failures.summary().startswith(f"1 failures: {code}=1")


def test_journal_with_pruned_lines_resumes_to_the_clean_result(
    tmp_path, monkeypatch
):
    from repro import PrimitiveOptimizer, Technology
    from repro.primitives import DifferentialPair
    from repro.runtime import batched

    monkeypatch.setattr(batched, "STACK_WIDTH", 1)

    def optimize(run_dir, resume=False):
        primitive = DifferentialPair(
            Technology.default(), base_fins=8, name="pr_dp"
        )
        optimizer = PrimitiveOptimizer(
            n_bins=2, max_wires=3, run_dir=run_dir, resume=resume,
            cache=False,
        )
        return optimizer.optimize(primitive)

    clean = optimize(tmp_path / "clean")
    journal = tmp_path / "clean" / "pr_dp.jsonl"
    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    # Rewrite every other selection and tuning result as an old-style
    # "pruned" decision, as a pruning run would have left them.
    for index, entry in enumerate(entries):
        if entry["key"].startswith(("sel:", "tune:")) and index % 2:
            entries[index] = {"key": entry["key"], "status": "pruned"}
    pruned = [e["key"] for e in entries if e["status"] == "pruned"]
    assert pruned
    old = tmp_path / "old"
    old.mkdir()
    (old / "pr_dp.jsonl").write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)
    )

    resumed = optimize(old, resume=True)
    assert resumed.best.describe() == clean.best.describe()
    assert resumed.best.cost == clean.best.cost
    assert resumed.cached_evaluations == len(entries) - len(pruned)
    # The pruned keys were re-evaluated and journaled as results.
    with SweepJournal(old / "pr_dp.jsonl", resume=True) as replayed:
        assert all(replayed.lookup(key)["status"] == "ok" for key in pruned)
