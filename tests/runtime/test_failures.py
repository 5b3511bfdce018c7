"""Failure taxonomy: codes, classification, and the FailureLog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    LayoutError,
    MeasureError,
    NetlistError,
    OptimizationError,
    ReproError,
    SingularMatrixError,
)
from repro.runtime import (
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


def test_failure_codes_are_stable():
    assert FAILURE_CODES == (
        "CONV-DC",
        "CONV-TRAN",
        "SINGULAR-MNA",
        "BAD-METRIC",
    )


@pytest.mark.parametrize(
    "exc,code",
    [
        (ConvergenceError("no dc"), CONV_DC),
        (ConvergenceError("no tran", code=CONV_TRAN), CONV_TRAN),
        (SingularMatrixError("singular"), SINGULAR_MNA),
        (FloatingPointError("overflow"), BAD_METRIC),
        (MeasureError("nan gain"), BAD_METRIC),
        (np.linalg.LinAlgError("singular matrix"), SINGULAR_MNA),
        (ZeroDivisionError("x/0"), BAD_METRIC),
        (ValueError("math domain error"), BAD_METRIC),
    ],
)
def test_classify_failure(exc, code):
    assert classify_failure(exc) == code


def test_classify_rejects_non_failures():
    with pytest.raises(TypeError):
        classify_failure(KeyError("missing"))


@pytest.mark.parametrize(
    "exc,absorbable",
    [
        (ConvergenceError("x"), True),
        (SingularMatrixError("x"), True),
        (ConvergenceError("x", code=CONV_TRAN), True),
        (MeasureError("x"), True),
        (np.linalg.LinAlgError("x"), True),
        (ZeroDivisionError("x"), True),
        (FloatingPointError("x"), True),
        # Configuration/programming bugs must keep propagating.
        (NetlistError("x"), False),
        (LayoutError("x"), False),
        (OptimizationError("x"), False),
        (ReproError("x"), False),
        (KeyError("x"), False),
        (TypeError("x"), False),
    ],
)
def test_is_eval_failure(exc, absorbable):
    assert is_eval_failure(exc) is absorbable


def test_eval_failure_round_trip():
    failure = EvalFailure(
        code=CONV_DC,
        stage="selection",
        key="sel:8x1x1:ABBA:-",
        message="no convergence",
        attempt=1,
        injected=True,
    )
    assert EvalFailure.from_dict(failure.to_dict()) == failure


def test_failure_log_counting_and_summary():
    log = FailureLog()
    assert not log
    assert log.summary() == "no failures"
    log.record(EvalFailure(CONV_DC, "selection", "a"))
    log.record(EvalFailure(CONV_DC, "tuning", "b"))
    log.record(EvalFailure(BAD_METRIC, "selection", "a"))
    assert len(log) == 3
    assert log.count() == 3
    assert log.count(code=CONV_DC) == 2
    assert log.count(code=CONV_DC, stage="selection") == 1
    assert log.by_code() == {CONV_DC: 2, BAD_METRIC: 1}
    assert log.failed_keys() == {"a", "b"}
    assert log.failed_keys(stage="tuning") == {"b"}
    assert "CONV-DC=2" in log.summary()
    assert "BAD-METRIC=1" in log.summary()


def test_failure_log_extend_and_degraded():
    log = FailureLog()
    other = FailureLog()
    other.record(EvalFailure(CONV_TRAN, "tuning", "k"))
    other.mark_degraded("tuning")
    log.extend(other)
    log.extend(other)  # degraded stages stay deduplicated
    assert log.count(code=CONV_TRAN) == 2
    assert log.degraded_stages == ["tuning"]
    assert "degraded stages: tuning" in log.summary()


def test_failure_log_round_trip():
    log = FailureLog()
    log.record(EvalFailure(SINGULAR_MNA, "selection", "k", attempt=2))
    log.mark_degraded("selection")
    restored = FailureLog.from_dict(log.to_dict())
    assert restored.failures == log.failures
    assert restored.degraded_stages == log.degraded_stages
