"""Fault-tolerant evaluation runtime.

Wraps every simulation-backed evaluation of the optimization flow with a
structured failure taxonomy (:mod:`~repro.runtime.failures`), bounded
retries and per-stage budgets (:mod:`~repro.runtime.policy`; the retry
count is the runtime's only knob), sweep checkpointing for crash/resume
(:mod:`~repro.runtime.checkpoint`), a deterministic fault-injection
harness (:mod:`~repro.runtime.faults`) and graceful shutdown
(:mod:`~repro.runtime.shutdown`).

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
    FAILURE_CODES,
    SINGULAR_MNA,
    EvalFailure,
    FailureLog,
    classify_failure,
    is_eval_failure,
)
from repro.runtime.faults import FaultInjector, FaultSpec, inject
from repro.runtime.policy import BatchTask, EvalBatch, EvalRuntime
from repro.runtime.shutdown import graceful_shutdown

__all__ = [
    "BAD_METRIC",
    "CONV_DC",
    "CONV_TRAN",
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
    "SweepJournal",
    "analysis_signature",
    "classify_failure",
    "content_key",
    "evaluate_circuit_cached",
    "graceful_shutdown",
    "inject",
    "is_eval_failure",
]
