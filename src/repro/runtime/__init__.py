"""Fault-tolerant evaluation runtime.

Wraps every simulation-backed evaluation of the optimization flow with a
structured failure taxonomy (:mod:`~repro.runtime.failures`), bounded
retries and per-stage budgets (:mod:`~repro.runtime.policy`), sweep
checkpointing for crash/resume (:mod:`~repro.runtime.checkpoint`), and a
deterministic fault-injection harness (:mod:`~repro.runtime.faults`)
and graceful shutdown (:mod:`~repro.runtime.shutdown`).

See ``docs/robustness.md`` for the failure-code catalog and the
degradation ladder.
"""

from repro.runtime.batched import BatchSpec
from repro.runtime.checkpoint import SweepJournal
from repro.runtime.evalcache import (
    EvalCache,
    analysis_signature,
    content_key,
    evaluate_circuit_cached,
)
from repro.runtime.failures import (
    BAD_METRIC,
    CONV_DC,
    CONV_TRAN,
    EVAL_TIMEOUT,
    FAILURE_CODES,
    SINGULAR_MNA,
    EvalFailure,
    FailureLog,
    classify_failure,
    is_eval_failure,
)
from repro.runtime.faults import FaultInjector, FaultSpec, inject
from repro.runtime.policy import BatchTask, EvalBatch, EvalRuntime, RetryPolicy
from repro.runtime.shutdown import flush_all, graceful_shutdown, register_flushable

__all__ = [
    "BAD_METRIC",
    "CONV_DC",
    "CONV_TRAN",
    "EVAL_TIMEOUT",
    "FAILURE_CODES",
    "SINGULAR_MNA",
    "BatchSpec",
    "BatchTask",
    "EvalBatch",
    "EvalCache",
    "EvalFailure",
    "EvalRuntime",
    "FailureLog",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "SweepJournal",
    "analysis_signature",
    "classify_failure",
    "content_key",
    "evaluate_circuit_cached",
    "flush_all",
    "graceful_shutdown",
    "inject",
    "is_eval_failure",
    "register_flushable",
]
