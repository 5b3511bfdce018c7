"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at flow boundaries while still being able
to discriminate simulator convergence problems from layout rule problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TechnologyError(ReproError):
    """Raised for inconsistent or missing technology data (layers, rules)."""


class NetlistError(ReproError):
    """Raised for malformed circuit netlists (unknown nodes, bad values)."""


class SimulationError(ReproError):
    """Raised when an analysis cannot be completed."""

    #: Stable failure code used by the fault-tolerant evaluation runtime
    #: (:mod:`repro.runtime`) to classify this error in a
    #: :class:`~repro.runtime.failures.FailureLog`.
    failure_code: str = "SIM"


class ConvergenceError(SimulationError):
    """Raised when Newton iteration fails to converge after all homotopies.

    ``code`` discriminates the analysis that failed: ``"CONV-DC"`` for
    operating-point solves (the default) and ``"CONV-TRAN"`` for transient
    time steps.
    """

    failure_code = "CONV-DC"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.failure_code = code


class SingularMatrixError(SimulationError):
    """Raised when an MNA system stays singular even after the
    Tikhonov-regularized least-squares fallback."""

    failure_code = "SINGULAR-MNA"


class LayoutError(ReproError):
    """Raised when a layout cannot be generated (infeasible parameters)."""


class DesignRuleError(LayoutError):
    """Raised when a requested geometry violates the technology rules."""


class VerificationError(LayoutError):
    """Raised when static verification (DRC / connectivity) finds errors.

    Carries the offending :class:`~repro.verify.diagnostics.Report` on
    ``self.report`` when one is available, so callers can inspect the
    individual violations programmatically.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ExtractionError(ReproError):
    """Raised when parasitic extraction encounters inconsistent geometry."""


class OptimizationError(ReproError):
    """Raised when the primitive optimizer cannot produce a valid result.

    Carries the run's :class:`~repro.runtime.failures.FailureLog` on
    ``self.failures`` when one is available, so callers can see *why* a
    sweep produced nothing instead of a bare "no options" message.
    """

    def __init__(self, message: str, failures=None):
        super().__init__(message)
        self.failures = failures


class CheckpointError(ReproError):
    """Raised for unreadable or inconsistent sweep-checkpoint journals."""


class PlacementError(ReproError):
    """Raised when the placer cannot satisfy the geometric constraints."""


class RoutingError(ReproError):
    """Raised when global or detailed routing fails."""


class MeasureError(SimulationError):
    """Raised when a measurement cannot be evaluated from waveform data.

    Includes non-finite (NaN/inf) measurement results: those are reported
    as ``BAD-METRIC`` failures rather than silently poisoning cost sums.
    """

    failure_code = "BAD-METRIC"
