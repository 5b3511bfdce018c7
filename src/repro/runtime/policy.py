"""Retry/budget policy and the fault-tolerant evaluation wrapper.

:class:`EvalRuntime` wraps every simulation-backed evaluation of the
optimization flow.  A failing evaluation is retried (with a perturbed
initial guess) up to a retry budget — the runtime's only knob,
:data:`DEFAULT_RETRIES` unless the caller passes ``retries`` — and, once
the budget is exhausted, *absorbed*: the failure is recorded on a
:class:`~repro.runtime.failures.FailureLog` and the sweep moves on.
Every solver loop below is itself bounded (Newton iterations, homotopy
steps, transient step halvings), so an evaluation always returns or
raises on its own.  The degradation ladder is::

    retry (perturbed guess)  ->  skip the option (scored as missing/inf)
    ->  empty bins fall back to untuned survivors  ->  the flow raises
    only when zero options survive a stage

A per-stage failure-fraction ceiling keeps a pathological stage from
burning its whole retry budget: once the ceiling is crossed the stage is
marked *degraded* and subsequent failures in it are not retried.

When a :class:`~repro.runtime.checkpoint.SweepJournal` is attached, every
completed evaluation (success or exhausted failure) is journaled, and
journaled keys are answered from the journal without re-simulation —
the crash/resume path of ``repro optimize --resume``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import MeasureError
from repro.runtime import context
from repro.runtime.batched import BatchSpec, EvalBatch
from repro.runtime.checkpoint import STATUS_OK, SweepJournal
from repro.runtime.evalcache import EvalCache
from repro.runtime.failures import (
    EvalFailure,
    FailureLog,
    classify_failure,
    is_eval_failure,
)


def _kernel():
    # Deferred: repro.spice.dc imports repro.runtime at module scope, so
    # the solver kernel must be resolved lazily to avoid an import cycle.
    from repro.spice import kernel

    return kernel


#: Retries after the first failed attempt (0 disables retrying).
DEFAULT_RETRIES = 1

#: Relative initial-guess perturbation amplitude per retry attempt.
RETRY_PERTURBATION = 1e-3

#: Fraction of failed evaluations in one stage above which the stage is
#: marked degraded and stops spending retries (it still absorbs failures
#: and keeps going).
STAGE_FAILURE_CEILING = 0.5


@dataclass
class BatchTask:
    """One evaluation of a batch: its journal key, the
    :class:`~repro.runtime.batched.BatchSpec` that describes it, and the
    result hooks of :meth:`EvalRuntime.evaluate`.

    :class:`~repro.runtime.batched.EvalBatch` stacks the simulations of
    same-pattern specs and runs every consumed attempt through
    :func:`~repro.runtime.batched.evaluate_spec`.
    """

    key: str
    spec: BatchSpec
    validate: Callable[[Any], str | None] | None = None
    to_payload: Callable[[Any], dict] | None = None
    from_payload: Callable[[dict], Any] | None = None


class EvalRuntime:
    """Fault-tolerant wrapper around simulation-backed evaluations.

    Args:
        retries: Retries after the first failed attempt; each retry
            re-runs the evaluation with a perturbed initial guess so
            deterministic failures are not replayed verbatim.
        journal: Optional sweep-checkpoint journal; a torn tail it cut on
            resume is recorded once on the downgrade ledger.
        failures: FailureLog to record into (a fresh one by default).
        cache: Content-addressed evaluation cache to share
            (:class:`~repro.runtime.evalcache.EvalCache`; a fresh one by
            default), through which every batch evaluation runs.
    """

    def __init__(
        self,
        retries: int = DEFAULT_RETRIES,
        journal: SweepJournal | None = None,
        failures: FailureLog | None = None,
        cache: EvalCache | None = None,
    ):
        self.retries = retries
        self.journal = journal
        self.failures = failures if failures is not None else FailureLog()
        if journal is not None and journal.truncated_tail:
            self.failures.mark_downgrade(
                f"journal {journal.path}: truncated a torn "
                f"{journal.truncated_tail}-byte tail"
            )
        self.cache = cache if isinstance(cache, EvalCache) else EvalCache()
        self._stage_total: Counter = Counter()
        self._stage_failed: Counter = Counter()
        #: Evaluations answered from the journal without re-simulating.
        self.journal_replays = 0
        #: Solver-kernel counters accumulated across every evaluation
        #: this runtime executes in-process.  A *profiling view*, not
        #: part of the determinism contract: journal replays and cache
        #: hits contribute nothing.
        self.solver_stats = _kernel().SolverStats()

    # -- stage accounting -------------------------------------------------

    def stage_failure_fraction(self, stage: str) -> float:
        total = self._stage_total[stage]
        return self._stage_failed[stage] / total if total else 0.0

    def stage_degraded(self, stage: str) -> bool:
        return stage in self.failures.degraded_stages

    def _finish_stage_eval(self, stage: str, failed: bool) -> None:
        self._stage_total[stage] += 1
        if failed:
            self._stage_failed[stage] += 1
            if self.stage_failure_fraction(stage) > STAGE_FAILURE_CEILING:
                self.failures.mark_degraded(stage)

    # -- the wrapper -------------------------------------------------------

    def evaluate(
        self,
        key: str,
        thunk: Callable[[], Any],
        stage: str,
        validate: Callable[[Any], str | None] | None = None,
        to_payload: Callable[[Any], dict] | None = None,
        from_payload: Callable[[dict], Any] | None = None,
        retries: int | None = None,
    ) -> Any | None:
        """Run one evaluation under the retry/budget policy.

        Args:
            key: Stable evaluation key (journal key; must not collide
                across stages of one run).
            thunk: Zero-argument callable performing the evaluation.
            stage: Stage name for failure accounting.
            validate: Optional ``result -> error message`` check; a
                non-None message is recorded as ``BAD-METRIC``.
            to_payload: Serializes a successful result for the journal.
            from_payload: Rebuilds a result from a journaled payload
                (must not simulate).
            retries: Per-call retry-budget override (e.g. raised for a
                critical evaluation the whole stage depends on).

        Returns:
            The evaluation result, or None when the evaluation failed
            and was absorbed (the failure is on :attr:`failures`).
        """
        entry = self.journal.lookup(key) if self.journal is not None else None
        if entry is not None:
            self.journal_replays += 1
            # Replay the journaled failure accounting (for successes these
            # are retried-then-recovered attempts) so the resumed log
            # matches the uninterrupted run's exactly.
            for failure in self.journal.journaled_failures(key):
                self.failures.record(failure)
            if entry["status"] == STATUS_OK:
                self._finish_stage_eval(stage, failed=False)
                payload = entry["payload"]
                self._prime_cache(payload)
                return from_payload(payload) if from_payload else payload
            self._finish_stage_eval(stage, failed=True)
            return None

        budget = retries if retries is not None else self.retries
        attempts = 1 + max(0, budget)
        if self.stage_degraded(stage):
            attempts = 1  # budget conservation: no retries once degraded
        recorded: list[EvalFailure] = []
        for attempt in range(attempts):
            ctx = context.EvalContext(
                key=key,
                stage=stage,
                attempt=attempt,
                perturbation=RETRY_PERTURBATION * attempt,
            )
            try:
                with context.evaluation(ctx):
                    with _kernel().collect(self.solver_stats):
                        result = thunk()
                if validate is not None:
                    message = validate(result)
                    if message:
                        raise MeasureError(message)
            except Exception as exc:
                if not is_eval_failure(exc):
                    raise
                failure = EvalFailure(
                    code=classify_failure(exc),
                    stage=stage,
                    key=key,
                    message=str(exc),
                    attempt=attempt,
                    injected=bool(getattr(exc, "injected", False))
                    or "injected" in str(exc),
                )
                recorded.append(failure)
                self.failures.record(failure)
                continue
            self._finish_stage_eval(stage, failed=False)
            if self.journal is not None:
                payload = to_payload(result) if to_payload else result
                self.journal.record_success(key, payload, failures=recorded)
            return result

        self._finish_stage_eval(stage, failed=True)
        if self.journal is not None:
            self.journal.record_failure(key, recorded)
        return None

    def _prime_cache(self, payload: Any) -> None:
        """Re-enact a journaled evaluation's content-cache traffic.

        Resuming replays journal entries without simulating, which would
        leave the cache missing the entries the interrupted run had
        stored — and later (non-journaled) evaluations would then
        re-simulate content the original run answered from cache.
        Replaying each journaled success against the cache (a hit for a
        0-simulation payload, a store otherwise) reconstructs the
        interrupted run's cache state and statistics exactly.
        """
        if not isinstance(payload, dict):
            return
        key = payload.get("cache_key")
        values = payload.get("values")
        if key is None or not isinstance(values, dict):
            return
        simulations = int(payload.get("simulations", 0))
        if simulations == 0:
            self.cache.get(key)
        else:
            self.cache.put(
                key, {k: float(v) for k, v in values.items()}, simulations
            )

    # -- batching ----------------------------------------------------------

    def evaluate_batch(self, tasks: list[BatchTask], stage: str) -> EvalBatch:
        """Prepare a batch of independent evaluations of one stage.

        The caller must :meth:`~EvalBatch.consume` results in the same
        order a serial loop would evaluate them, and may stop early.
        Live tasks run on the stacked engine of
        :mod:`repro.runtime.batched` (byte-identical results; see
        docs/performance.md); the rest, and every task of a batch too
        small to stack, evaluate lazily at consumption.
        """
        return EvalBatch(self, tasks, stage)
