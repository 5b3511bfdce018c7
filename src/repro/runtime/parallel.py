"""Process-pool parallel evaluation engine.

Every fan-out point of the optimization flow — selection variants,
terminal-sweep points, port sweeps, reconcile gap re-simulations — is a
batch of *independent* evaluations, expressed as
:class:`~repro.runtime.policy.BatchTask` lists and consumed strictly in
call-site order.  :class:`ParallelEvalRuntime` overrides
:meth:`~repro.runtime.policy.EvalRuntime.evaluate_batch` to dispatch
whole batches to a fork-based process pool, then *replays* each worker's
recorded attempts in the parent at consumption time.

Determinism is the design center: a run with ``--jobs 8`` must produce a
byte-identical report (and journal) to ``--jobs 1``.  The replay scheme
achieves this by making workers **speculative and stateless** and the
parent the only bookkeeper:

* Workers run every attempt their task's retry budget allows, ignoring
  parent-side stage degradation (which depends on evaluation *order*),
  and record each attempt — success payload or failure — plus the fault
  events a per-attempt injector clone observed.
* The parent consumes outcomes in call-site order and replays only the
  prefix of attempts the serial runtime would have run given its state
  *at consumption time* (one attempt once the stage is degraded).
  Failures are recorded, journaled and counted exactly as the serial
  path records them; unconsumed speculative work leaves no trace.
* The content cache is reconciled at replay: a payload whose content key
  is already in the parent's cache is zeroed to a hit (the serial run
  would have hit), otherwise the worker's result is stored — so
  simulation accounting is independent of which worker computed what.

Workers are forked per batch *after* the tasks are registered in module
state, so closures (primitives, schematic references, the journal-less
runtime policy) are inherited by memory snapshot and never pickled; only
plain-data outcomes cross the process boundary.

Dispatch runs under a :class:`~repro.runtime.supervise.SupervisedPool`:
workers drop heartbeat markers per task, a wall-clock watchdog SIGKILLs
hung workers (``RetryPolicy.task_timeout_s``), broken pools are rebuilt
with the unfinished tasks re-dispatched, poison tasks are quarantined as
recorded ``WORKER-LOST`` failures, and a pool that keeps dying degrades
the runtime to serial execution — every downgrade recorded once on the
run's :class:`~repro.runtime.failures.FailureLog`.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EvalTimeoutError, MeasureError
from repro.runtime import context, faults, supervise
from repro.runtime.failures import (
    EvalFailure,
    classify_failure,
    is_eval_failure,
)
from repro.runtime.policy import BatchTask, EvalBatch, EvalRuntime

_warned_bad_jobs_env = False


def resolve_jobs(jobs: int | None = None, default: int | None = 1) -> int:
    """Resolve a worker count: explicit arg, then ``REPRO_JOBS``, then
    ``default`` (all clamped to >= 1).

    The CLI passes ``default=os.cpu_count()``; library entry points
    default to 1 so programmatic users opt in explicitly.  The
    environment hook lets CI run the whole test suite under ``--jobs 2``
    without threading a flag through every fixture.  ``REPRO_JOBS=0`` or
    a negative value clamps to 1 (serial); an unparseable value is
    ignored with a one-time warning instead of silently.
    """
    global _warned_bad_jobs_env
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            if not _warned_bad_jobs_env:
                _warned_bad_jobs_env = True
                warnings.warn(
                    f"REPRO_JOBS={env!r} is not an integer; ignoring it",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return max(1, int(default or 1))


@dataclass
class AttemptRecord:
    """One worker-side evaluation attempt, as replayable data.

    Attributes:
        ok: Whether the attempt produced a valid result.
        payload: The serialized result (``to_payload``) when ok.
        failure: The :class:`EvalFailure` dict when not ok.
        fired: Fault events ``(kind, key)`` the attempt's injector clone
            observed, merged into the parent injector iff the attempt is
            consumed.
    """

    ok: bool
    payload: Any = None
    failure: dict | None = None
    fired: list = field(default_factory=list)


@dataclass
class TaskOutcome:
    """Everything one worker observed running one task.

    ``kind`` is ``"eval"`` for a normal outcome (success or exhausted
    retries — ``attempts`` holds the evidence), ``"absorbed"`` for an
    exception the call site catches (re-raised at consumption), or
    ``"raised"`` for an unexpected exception (also re-raised).
    """

    kind: str
    attempts: list[AttemptRecord] = field(default_factory=list)
    error: BaseException | None = None


@dataclass
class _BatchState:
    """Module-global task registry inherited by forked workers."""

    tasks: list[BatchTask]
    stage: str
    policy: Any
    clock: Any
    #: Heartbeat scratch directory of the supervising pool (None when
    #: dispatch runs unsupervised, e.g. in unit tests).
    hb_dir: Any = None


_STATE: _BatchState | None = None


def _worker_run(index: int, dispatch_attempt: int = 0) -> TaskOutcome:
    """Run one task to completion in a worker process.

    Mirrors the attempt loop of :meth:`EvalRuntime.evaluate` with two
    deliberate differences: the full retry budget is always available
    (the parent truncates at replay if its stage degraded first), and
    every attempt runs under a fresh injector clone so its fault events
    can be reported per attempt.

    ``dispatch_attempt`` counts prior pool generations that died while
    this task was in flight; the supervisor passes it so the chaos
    harness can kill a task's worker a bounded number of times.  The
    heartbeat marker is written before the chaos kill hook runs, so a
    killed worker is always attributable to its task.
    """
    assert _STATE is not None, "worker forked without batch state"
    task = _STATE.tasks[index]
    supervise.heartbeat_start(_STATE.hb_dir, index)
    try:
        return _worker_attempts(task, dispatch_attempt)
    finally:
        supervise.heartbeat_finish(_STATE.hb_dir, index)


def _worker_attempts(task: BatchTask, dispatch_attempt: int) -> TaskOutcome:
    """The attempt loop of one worker-side task (see :func:`_worker_run`)."""
    assert _STATE is not None, "worker forked without batch state"
    stage = _STATE.stage
    policy = _STATE.policy
    clock = _STATE.clock
    parent_injector = faults.active()
    if parent_injector is not None:
        parent_injector.maybe_kill_worker(task.key, dispatch_attempt)

    budget = task.retries if task.retries is not None else policy.max_retries
    attempts = 1 + max(0, budget)
    records: list[AttemptRecord] = []
    for attempt in range(attempts):
        ctx = context.EvalContext(
            key=task.key,
            stage=stage,
            attempt=attempt,
            perturbation=policy.retry_perturbation * attempt,
        )
        probe = None
        token = None
        if parent_injector is not None:
            probe = faults.FaultInjector(
                parent_injector.spec, seed=parent_injector.seed
            )
            token = faults.install(probe)
        try:
            start = clock()
            try:
                with context.evaluation(ctx):
                    result = task.thunk()
                    injector = faults.active()
                    extra = injector.extra_elapsed() if injector else 0.0
                elapsed = (clock() - start) + extra
                deadline = policy.deadline_s
                if deadline is not None and elapsed > deadline:
                    raise EvalTimeoutError(
                        f"evaluation took {elapsed:.3g}s "
                        f"(deadline {deadline:.3g}s)"
                    )
                if task.validate is not None:
                    message = task.validate(result)
                    if message:
                        raise MeasureError(message)
            except Exception as exc:
                if task.absorb and isinstance(exc, task.absorb):
                    return TaskOutcome(
                        kind="absorbed", attempts=records, error=exc
                    )
                if not is_eval_failure(exc):
                    return TaskOutcome(
                        kind="raised", attempts=records, error=exc
                    )
                failure = EvalFailure(
                    code=classify_failure(exc),
                    stage=stage,
                    key=task.key,
                    message=str(exc),
                    attempt=attempt,
                    injected=bool(getattr(exc, "injected", False))
                    or "injected" in str(exc),
                )
                records.append(
                    AttemptRecord(
                        ok=False,
                        failure=failure.to_dict(),
                        fired=list(probe.fired) if probe else [],
                    )
                )
                continue
            payload = task.to_payload(result) if task.to_payload else result
            records.append(
                AttemptRecord(
                    ok=True,
                    payload=payload,
                    fired=list(probe.fired) if probe else [],
                )
            )
            return TaskOutcome(kind="eval", attempts=records)
        finally:
            if token is not None:
                faults.restore(token)
    return TaskOutcome(kind="eval", attempts=records)


class ParallelBatch(EvalBatch):
    """Batch results computed speculatively by a worker pool.

    ``outcomes`` maps task index to :class:`TaskOutcome`; indices absent
    from it (journaled keys, skipped at dispatch) fall back to the
    serial path, which answers them from the journal.
    """

    def __init__(
        self,
        runtime: "ParallelEvalRuntime",
        tasks: list[BatchTask],
        stage: str,
        outcomes: dict[int, TaskOutcome],
    ):
        super().__init__(runtime, tasks, stage)
        self.outcomes = outcomes

    def consume(self, index: int) -> Any | None:
        outcome = self.outcomes.get(index)
        if outcome is None:
            return super().consume(index)
        task = self.tasks[index]
        runtime = self.runtime
        if outcome.kind in ("absorbed", "raised"):
            assert outcome.error is not None
            allowed = runtime._attempts_allowed(task, self.stage)
            if len(outcome.attempts) < allowed:
                # The serial run reaches the raising attempt: replay the
                # failed attempts before it (recorded but not journaled,
                # exactly as a propagating exception leaves them), then
                # re-raise.
                injector = faults.active()
                for attempt in outcome.attempts:
                    if injector is not None and attempt.fired:
                        injector.merge_fired(attempt.fired)
                    runtime.failures.record(EvalFailure.from_dict(attempt.failure))
                raise outcome.error
            # The serial run's (smaller) attempt budget is exhausted
            # before the raising attempt: the exception is speculative
            # dead wood and the task resolves as an absorbed failure.
            outcome = TaskOutcome(kind="eval", attempts=outcome.attempts)
        return runtime._replay_outcome(task, self.stage, outcome)


class ParallelEvalRuntime(EvalRuntime):
    """An :class:`EvalRuntime` whose batches fan out to worker processes.

    Args:
        jobs: Worker-pool size; None resolves via :func:`resolve_jobs`
            (``REPRO_JOBS`` environment, else 1).  ``jobs <= 1`` keeps
            every batch in process, on the stacked engine
            (:mod:`repro.runtime.batched`) where it engages and lazily
            serial elsewhere — all modes are byte-identical in every
            observable output, so 1 is a safe library default.

    All other arguments match :class:`EvalRuntime`.
    """

    def __init__(self, *args, jobs: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.jobs = resolve_jobs(jobs, default=1)

    def evaluate_batch(self, tasks: list[BatchTask], stage: str) -> EvalBatch:
        if self.jobs <= 1:
            # In-process: the stacked engine
            # (EvalRuntime.evaluate_batch) takes the batch when it can.
            return super().evaluate_batch(tasks, stage)
        pending = [
            i
            for i, task in enumerate(tasks)
            if self.journal is None or self.journal.lookup(task.key) is None
        ]
        if len(pending) <= 1:
            # Zero or one live evaluation: the pool's fork cost buys
            # nothing.
            return super().evaluate_batch(tasks, stage)
        outcomes = self._dispatch(tasks, pending, stage)
        if outcomes is None:
            return super().evaluate_batch(tasks, stage)
        return ParallelBatch(self, tasks, stage, outcomes)

    def _dispatch(
        self, tasks: list[BatchTask], pending: list[int], stage: str
    ) -> dict[int, TaskOutcome] | None:
        """Fan ``pending`` task indices out to a supervised fork pool.

        Returns None when fork is unavailable (non-POSIX platforms) so
        the caller degrades to the serial batch.  Worker crashes, hangs
        and kills never raise: the supervisor replaces the pool,
        re-dispatches survivors, and quarantined tasks come back as
        synthesized ``WORKER-LOST``/``EVAL-TIMEOUT`` failure outcomes.
        Indices the supervisor gave up on (pool-replacement budget
        exhausted) are simply absent from the returned map — the batch
        answers them through the serial path at consumption — and the
        runtime drops to ``jobs=1`` for the rest of the run, the bottom
        rung of the degradation ladder.
        """
        global _STATE
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:
            return None
        supervisor = supervise.SupervisedPool(
            _worker_run,
            pending,
            keys={i: tasks[i].key for i in pending},
            jobs=min(self.jobs, len(pending)),
            mp_context=mp_context,
            task_timeout_s=self.policy.task_timeout_s,
        )
        _STATE = _BatchState(
            tasks=tasks,
            stage=stage,
            policy=self.policy,
            clock=self.clock,
            hb_dir=supervisor.heartbeat_dir,
        )
        try:
            supervised = supervisor.run()
        finally:
            _STATE = None
        for event in supervised.events:
            self.failures.mark_downgrade(event)
        outcomes = supervised.outcomes
        for index, lost in supervised.lost.items():
            failure = EvalFailure(
                code=lost.code,
                stage=stage,
                key=tasks[index].key,
                message=lost.message,
                attempt=0,
            )
            outcomes[index] = TaskOutcome(
                kind="eval",
                attempts=[
                    AttemptRecord(ok=False, failure=failure.to_dict())
                ],
            )
        if supervised.serial_fallback:
            self.jobs = 1
        return outcomes

    # -- replay ------------------------------------------------------------

    def _attempts_allowed(self, task: BatchTask, stage: str) -> int:
        """How many attempts the serial runtime would run *right now*."""
        if self.stage_degraded(stage):
            return 1
        budget = (
            task.retries if task.retries is not None else self.policy.max_retries
        )
        return 1 + max(0, budget)

    def _replay_outcome(
        self, task: BatchTask, stage: str, outcome: TaskOutcome
    ) -> Any | None:
        """Re-enact a worker's attempts against the parent's state.

        The consumed prefix of attempts is exactly what the serial
        runtime would have run: the full budget normally, a single
        attempt once the stage is degraded.  Only consumed attempts
        touch the failure log, the journal, the injector counters and
        the cache — so consuming outcomes in call-site order reproduces
        the serial run byte for byte.
        """
        allowed = self._attempts_allowed(task, stage)
        injector = faults.active()
        recorded: list[EvalFailure] = []
        for attempt in outcome.attempts[:allowed]:
            if injector is not None and attempt.fired:
                injector.merge_fired(attempt.fired)
            if attempt.ok:
                payload = self._reconcile_cache(attempt.payload)
                self._finish_stage_eval(stage, failed=False)
                if self.journal is not None:
                    self.journal.record_success(
                        task.key, payload, failures=recorded
                    )
                return (
                    task.from_payload(payload) if task.from_payload else payload
                )
            failure = EvalFailure.from_dict(attempt.failure)
            recorded.append(failure)
            self.failures.record(failure)
        self._finish_stage_eval(stage, failed=True)
        if self.journal is not None:
            self.journal.record_failure(task.key, recorded)
        return None

    def _reconcile_cache(self, payload: Any) -> Any:
        """Align a worker payload with the parent's content cache.

        Workers query a fork-time *snapshot* of the cache, so their
        hit/miss pattern can differ from the serial run's (a miss on an
        entry a sibling task was about to store).  Replaying the lookup
        against the parent cache in consumption order restores serial
        semantics: already-known content becomes a 0-simulation hit,
        new content is stored.
        """
        if self.cache is None or not isinstance(payload, dict):
            return payload
        key = payload.get("cache_key")
        values = payload.get("values")
        if key is None or not isinstance(values, dict):
            return payload
        hit = self.cache.get(key)
        if hit is not None:
            payload = dict(payload)
            payload["values"] = hit["values"]
            payload["simulations"] = 0
        else:
            self.cache.put(
                key,
                {k: float(v) for k, v in values.items()},
                int(payload.get("simulations", 0)),
            )
        return payload
