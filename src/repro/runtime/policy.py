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
from repro.runtime.checkpoint import STATUS_OK, SweepJournal
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
    """One evaluation of a batch — the arguments of one
    :meth:`EvalRuntime.evaluate` call, captured as data.

    ``batch_spec`` (a :class:`~repro.runtime.batched.BatchSpec`, when the
    call site can describe the evaluation as build-circuit + simulate +
    finish) opts the task into the vectorized multi-variant fast path of
    :mod:`repro.runtime.batched`; tasks without one always run their
    ``thunk`` serially.
    """

    key: str
    thunk: Callable[[], Any]
    validate: Callable[[Any], str | None] | None = None
    to_payload: Callable[[Any], dict] | None = None
    from_payload: Callable[[dict], Any] | None = None
    retries: int | None = None
    batch_spec: Any | None = None


class EvalBatch:
    """A batch of evaluations, consumed strictly in call-site order.

    The base implementation is *lazy serial*: nothing runs until
    :meth:`consume`, which simply forwards to
    :meth:`EvalRuntime.evaluate` — so early-stopping call sites (a
    tuning sweep that breaks once the cost curve turns) pay only for
    what they consume.  :class:`~repro.runtime.batched.BatchedEvalBatch`
    runs same-pattern tasks stacked instead; consumption order — and
    therefore failure logs, journals and stage accounting — is
    identical either way.

    Tasks never consumed are never accounted: not journaled, not
    recorded as failures, not counted against any stage.
    """

    def __init__(self, runtime: "EvalRuntime", tasks: list[BatchTask], stage: str):
        self.runtime = runtime
        self.tasks = tasks
        self.stage = stage

    def __len__(self) -> int:
        return len(self.tasks)

    def consume(self, index: int) -> Any | None:
        """Result of task ``index`` (None when absorbed as a failure)."""
        task = self.tasks[index]
        return self.runtime.evaluate(
            task.key,
            task.thunk,
            self.stage,
            validate=task.validate,
            to_payload=task.to_payload,
            from_payload=task.from_payload,
            retries=task.retries,
        )


class EvalRuntime:
    """Fault-tolerant wrapper around simulation-backed evaluations.

    Args:
        retries: Retries after the first failed attempt; each retry
            re-runs the evaluation with a perturbed initial guess so
            deterministic failures are not replayed verbatim.
        journal: Optional sweep-checkpoint journal; a torn tail it cut on
            resume is recorded once on the downgrade ledger.
        failures: FailureLog to record into (a fresh one by default).
        cache: Optional content-addressed evaluation cache
            (:class:`~repro.runtime.evalcache.EvalCache`); call sites
            read it via :attr:`cache` to route circuit evaluations
            through :func:`~repro.runtime.evalcache
            .evaluate_circuit_cached`.
    """

    def __init__(
        self,
        retries: int = DEFAULT_RETRIES,
        journal: SweepJournal | None = None,
        failures: FailureLog | None = None,
        cache: Any | None = None,
    ):
        self.retries = retries
        self.journal = journal
        self.failures = failures if failures is not None else FailureLog()
        if journal is not None and journal.truncated_tail:
            self.failures.mark_downgrade(
                f"journal {journal.path}: truncated a torn "
                f"{journal.truncated_tail}-byte tail"
            )
        self.cache = cache
        self._stage_total: Counter = Counter()
        self._stage_failed: Counter = Counter()
        #: Evaluations answered from the journal without re-simulating.
        self.cache_hits = 0
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
            self.cache_hits += 1
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
        if self.cache is None or not isinstance(payload, dict):
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
        Tasks that carry batch specs run on the stacked engine of
        :mod:`repro.runtime.batched` (byte-identical results; see
        docs/performance.md); the rest, and every batch the engine
        declines, evaluate lazily at consumption.
        """
        from repro.runtime.batched import maybe_batched  # deferred: cycle

        fast = maybe_batched(self, tasks, stage)
        if fast is not None:
            return fast
        return EvalBatch(self, tasks, stage)
