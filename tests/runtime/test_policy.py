"""EvalRuntime retry/budget behaviour (no real simulation)."""

from __future__ import annotations

import pytest

from repro.errors import ConvergenceError, NetlistError
from repro.runtime import BAD_METRIC, CONV_DC, EvalRuntime, SweepJournal
from repro.runtime import context
from repro.runtime import policy as policy_module


def test_success_passes_through():
    runtime = EvalRuntime()
    assert runtime.evaluate("k", lambda: 41 + 1, stage="s") == 42
    assert not runtime.failures


def test_retry_recovers_with_perturbed_context():
    attempts = []

    def flaky():
        ctx = context.current()
        attempts.append((ctx.attempt, ctx.perturbation))
        if ctx.attempt == 0:
            raise ConvergenceError("first attempt fails")
        return "ok"

    runtime = EvalRuntime(retries=1)
    assert runtime.evaluate("k", flaky, stage="s") == "ok"
    assert attempts == [(0, 0.0), (1, pytest.approx(1e-3))]
    # The failed attempt is still accounted for.
    assert runtime.failures.count(code=CONV_DC) == 1
    assert runtime.stage_failure_fraction("s") == 0.0  # eval succeeded


def test_exhausted_budget_absorbs_and_returns_none():
    runtime = EvalRuntime(retries=2)
    calls = []
    result = runtime.evaluate(
        "k",
        lambda: calls.append(1) or (_ for _ in ()).throw(ConvergenceError("x")),
        stage="s",
    )
    assert result is None
    assert len(calls) == 3  # 1 + 2 retries
    assert runtime.failures.count(code=CONV_DC) == 3
    assert runtime.stage_failure_fraction("s") == 1.0


def test_non_eval_failures_propagate():
    runtime = EvalRuntime()
    with pytest.raises(NetlistError):
        runtime.evaluate(
            "k",
            lambda: (_ for _ in ()).throw(NetlistError("bug")),
            stage="s",
        )
    assert not runtime.failures


def test_validate_rejects_as_bad_metric():
    runtime = EvalRuntime(retries=0)
    result = runtime.evaluate(
        "k",
        lambda: float("nan"),
        stage="s",
        validate=lambda r: "nan result" if r != r else None,
    )
    assert result is None
    assert runtime.failures.count(code=BAD_METRIC) == 1


def test_stage_ceiling_marks_degraded_and_stops_retries(monkeypatch):
    monkeypatch.setattr(policy_module, "STAGE_FAILURE_CEILING", 0.4)
    runtime = EvalRuntime(retries=3)
    calls = []

    def failing():
        calls.append(1)
        raise ConvergenceError("x")

    # First failed eval: 1/1 failed > 0.4 -> stage degraded.
    assert runtime.evaluate("k1", failing, stage="s") is None
    assert len(calls) == 4  # full retry budget spent
    assert runtime.stage_degraded("s")
    # Degraded stage: no retries, single attempt only.
    calls.clear()
    assert runtime.evaluate("k2", failing, stage="s") is None
    assert len(calls) == 1


def test_per_call_retry_override():
    runtime = EvalRuntime(retries=0)
    calls = []

    def failing():
        calls.append(1)
        raise ConvergenceError("x")

    assert runtime.evaluate("k", failing, stage="s", retries=4) is None
    assert len(calls) == 5


def test_journal_hit_skips_thunk(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    runtime = EvalRuntime(journal=journal)
    assert runtime.evaluate("k", lambda: {"v": 7}, stage="s") == {"v": 7}
    journal.close()

    resumed = SweepJournal(tmp_path / "j.jsonl", resume=True)
    runtime2 = EvalRuntime(journal=resumed)
    called = []
    result = runtime2.evaluate(
        "k",
        lambda: called.append(1) or {"v": 0},
        stage="s",
        from_payload=lambda p: {"v": p["v"] * 10},
    )
    assert result == {"v": 70}
    assert not called
    assert runtime2.cache_hits == 1
    resumed.close()


def test_journaled_failure_replays_into_log(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    runtime = EvalRuntime(retries=1, journal=journal)
    assert (
        runtime.evaluate(
            "k",
            lambda: (_ for _ in ()).throw(ConvergenceError("x")),
            stage="s",
        )
        is None
    )
    journal.close()
    assert runtime.failures.count(code=CONV_DC) == 2

    resumed = SweepJournal(tmp_path / "j.jsonl", resume=True)
    runtime2 = EvalRuntime(retries=1, journal=resumed)
    called = []
    assert (
        runtime2.evaluate("k", lambda: called.append(1), stage="s") is None
    )
    assert not called  # failure is final: not re-attempted on resume
    # The resumed log accounts for the whole logical run's failures.
    assert runtime2.failures.count(code=CONV_DC) == 2
    assert runtime2.cache_hits == 1
    resumed.close()
