"""Structured failure taxonomy for the evaluation runtime.

Every simulation-backed evaluation that fails is recorded as an
:class:`EvalFailure` with a *stable* failure code instead of aborting the
sweep.  The codes are part of the public contract (tests, journals and
operator dashboards key on them):

========================  ====================================================
Code                      Meaning
========================  ====================================================
``CONV-DC``               DC operating point did not converge (Newton plus
                          gmin/source stepping all failed).
``CONV-TRAN``             A transient time step failed even after the
                          bounded step-halving cascade.
``SINGULAR-MNA``          The MNA system stayed singular after the
                          Tikhonov-regularized least-squares fallback.
``BAD-METRIC``            A measured metric came back NaN/inf (or a metric
                          testbench raised a measurement error).
========================  ====================================================

Older journals and failure logs may also carry the retired
``WORKER-LOST`` and ``EVAL-TIMEOUT`` codes; they still load, since
:meth:`EvalFailure.from_dict` does not validate codes.

Failures are accumulated on a per-run :class:`FailureLog` that the
optimizer attaches to its report; it serializes to plain dicts so the
checkpoint journal can replay it across a resume.  The log also carries
the run's *downgrade ledger* — one entry per graceful-degradation step
taken (today: a torn journal tail truncated on resume), recorded once
each and surfaced through ``summary()``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

from repro.errors import MeasureError, ReproError, SimulationError

CONV_DC = "CONV-DC"
CONV_TRAN = "CONV-TRAN"
SINGULAR_MNA = "SINGULAR-MNA"
BAD_METRIC = "BAD-METRIC"

#: Every stable failure code, in documentation order.
FAILURE_CODES = (
    CONV_DC,
    CONV_TRAN,
    SINGULAR_MNA,
    BAD_METRIC,
)


@dataclass(frozen=True)
class EvalFailure:
    """One failed evaluation attempt.

    Attributes:
        code: Stable failure code (one of :data:`FAILURE_CODES`).
        stage: Optimization stage (``"selection"``, ``"tuning"``,
            ``"port_constraints"``, ...).
        key: The evaluation key (stable across resumes).
        message: Human-readable detail from the underlying error.
        attempt: Zero-based retry attempt that failed.
        injected: Whether the failure came from the fault injector.
    """

    code: str
    stage: str
    key: str
    message: str = ""
    attempt: int = 0
    injected: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EvalFailure":
        return cls(**data)


def classify_failure(exc: BaseException) -> str:
    """Map an exception to its stable failure code.

    Library errors carry ``failure_code`` themselves; NumPy's
    ``LinAlgError`` (raised below the library's error boundary) maps to
    ``SINGULAR-MNA``; anything else measurement-shaped maps to
    ``BAD-METRIC``.
    """
    code = getattr(exc, "failure_code", None)
    if code:
        return code
    import numpy as np

    if isinstance(exc, np.linalg.LinAlgError):
        return SINGULAR_MNA
    if isinstance(exc, (ArithmeticError, ValueError)):
        return BAD_METRIC
    raise TypeError(f"cannot classify {type(exc).__name__} as an EvalFailure")


def is_eval_failure(exc: BaseException) -> bool:
    """True when ``exc`` is an absorbable evaluation failure.

    Simulation/measurement errors and singular linear algebra are
    expected outcomes of a sweep; netlist/technology/layout errors are
    programming or configuration bugs and keep propagating.
    """
    import numpy as np

    return isinstance(
        exc, (SimulationError, MeasureError, np.linalg.LinAlgError)
    ) or (
        not isinstance(exc, ReproError)
        and isinstance(exc, (FloatingPointError, ZeroDivisionError))
    )


@dataclass
class FailureLog:
    """Accumulated evaluation failures of one run (or one report)."""

    failures: list[EvalFailure] = field(default_factory=list)
    #: Stages whose failure fraction crossed the policy ceiling.
    degraded_stages: list[str] = field(default_factory=list)
    #: Graceful-degradation steps the run took (each recorded once):
    #: journal tail truncation.
    downgrades: list[str] = field(default_factory=list)

    def record(self, failure: EvalFailure) -> None:
        self.failures.append(failure)

    def mark_degraded(self, stage: str) -> None:
        if stage not in self.degraded_stages:
            self.degraded_stages.append(stage)

    def mark_downgrade(self, event: str) -> None:
        """Record one graceful-degradation step, deduplicated by text."""
        if event not in self.downgrades:
            self.downgrades.append(event)

    def extend(self, other: "FailureLog") -> None:
        self.failures.extend(other.failures)
        for stage in other.degraded_stages:
            self.mark_degraded(stage)
        for event in other.downgrades:
            self.mark_downgrade(event)

    def __len__(self) -> int:
        return len(self.failures)

    def __bool__(self) -> bool:
        return bool(self.failures) or bool(self.downgrades)

    def count(self, code: str | None = None, stage: str | None = None) -> int:
        """Number of recorded failures, optionally filtered."""
        return sum(
            1
            for f in self.failures
            if (code is None or f.code == code)
            and (stage is None or f.stage == stage)
        )

    def by_code(self) -> dict[str, int]:
        """Failure count per code, insertion-ordered."""
        return dict(Counter(f.code for f in self.failures))

    def failed_keys(self, stage: str | None = None) -> set[str]:
        """Keys that recorded at least one failure."""
        return {
            f.key
            for f in self.failures
            if stage is None or f.stage == stage
        }

    def summary(self) -> str:
        """One-line human summary, e.g. ``"3 failures: CONV-DC=2, BAD-METRIC=1"``."""
        if not self.failures and not self.downgrades:
            return "no failures"
        if self.failures:
            parts = ", ".join(
                f"{c}={n}" for c, n in sorted(self.by_code().items())
            )
            text = f"{len(self.failures)} failures: {parts}"
        else:
            text = "no failures"
        if self.degraded_stages:
            text += f" (degraded stages: {', '.join(self.degraded_stages)})"
        if self.downgrades:
            text += f" (downgraded: {'; '.join(self.downgrades)})"
        return text

    def to_dict(self) -> dict:
        return {
            "failures": [f.to_dict() for f in self.failures],
            "degraded_stages": list(self.degraded_stages),
            "downgrades": list(self.downgrades),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureLog":
        log = cls()
        for item in data.get("failures", ()):
            log.record(EvalFailure.from_dict(item))
        for stage in data.get("degraded_stages", ()):
            log.mark_degraded(stage)
        for event in data.get("downgrades", ()):
            log.mark_downgrade(event)
        return log
