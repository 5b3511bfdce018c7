"""Deterministic fault injection for the evaluation runtime.

The harness lets tests (and chaos drills) inject the full failure
taxonomy — non-convergent DC/transient solves, singular MNA matrices
and NaN metrics — at the same boundaries where real failures appear,
without monkeypatching solver internals.

Decisions are *keyed*, not sequenced: whether a given (kind, evaluation
key, attempt) trips is a pure function of the injector seed, so the same
faults fire regardless of evaluation order, caching, or checkpoint
resume.  That property is what lets the resume tests assert bit-identical
reports.

Hook points (each consults :func:`active` and is a no-op when no
injector is installed):

* :func:`repro.spice.dc.dc_operating_points` — ``CONV-DC`` and
  ``SINGULAR-MNA``, once per member (the serial
  :func:`~repro.spice.dc.dc_operating_point` is a one-member call);
* :func:`repro.spice.tran.transient` — ``CONV-TRAN``;
* :meth:`repro.primitives.base.MosPrimitive.evaluate` — ``BAD-METRIC``
  (poisons one measured value with NaN).

Two readers trip nothing: the cache bypass in
:func:`repro.runtime.batched.evaluate_spec` and the stacked engine's
screen (:class:`repro.runtime.batched.EvalBatch`), which leaves what
:meth:`FaultInjector.fires_first` flags to be evaluated at consumption
and stacks the rest.  ``DEV-FAULT`` (``tools/devlint.py``) keeps
:func:`active` to these five sites.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.errors import ConvergenceError, SingularMatrixError
from repro.runtime import context
from repro.runtime.failures import BAD_METRIC, CONV_DC, CONV_TRAN, SINGULAR_MNA

#: Every injectable failure kind.
KINDS = (CONV_DC, CONV_TRAN, SINGULAR_MNA, BAD_METRIC)


@dataclass(frozen=True)
class FaultSpec:
    """Injection rates per failure kind (all in [0, 1]).

    Attributes:
        dc_fail_rate: Probability a DC solve raises ``CONV-DC``.
        tran_fail_rate: Probability a transient run raises ``CONV-TRAN``.
        singular_rate: Probability a DC solve raises ``SINGULAR-MNA``.
        bad_metric_rate: Probability one metric of an evaluation is
            poisoned to NaN (``BAD-METRIC``).
        recover_on_retry: When True, faults only fire on attempt 0, so a
            single retry always recovers (exercises the retry path
            deterministically).
    """

    dc_fail_rate: float = 0.0
    tran_fail_rate: float = 0.0
    singular_rate: float = 0.0
    bad_metric_rate: float = 0.0
    recover_on_retry: bool = False

    def rate(self, kind: str) -> float:
        return {
            CONV_DC: self.dc_fail_rate,
            CONV_TRAN: self.tran_fail_rate,
            SINGULAR_MNA: self.singular_rate,
            BAD_METRIC: self.bad_metric_rate,
        }[kind]

    @property
    def affects_values(self) -> bool:
        """Whether any injected fault can change *evaluation results*.

        Value-affecting specs bypass the content cache (see
        :mod:`repro.runtime.evalcache`).
        """
        return any(self.rate(kind) > 0.0 for kind in KINDS)


class FaultInjector:
    """Keyed deterministic fault source.

    Args:
        spec: Injection rates.
        seed: Seed mixed into every decision hash.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        #: Faults actually fired, per failure code.
        self.counters: dict[str, int] = {}
        #: (kind, key) pairs that fired, for exact accounting in tests.
        self.fired: list[tuple[str, str]] = []

    # -- decisions -------------------------------------------------------

    def _draw(self, kind: str, key: str, attempt: int) -> float:
        token = f"{self.seed}|{kind}|{key}|{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def decide(self, kind: str, key: str, attempt: int = 0) -> bool:
        """Whether the fault ``kind`` fires for (key, attempt).

        Pure — does not update counters; :meth:`trip` does.
        """
        rate = self.spec.rate(kind)
        if rate <= 0.0:
            return False
        if self.spec.recover_on_retry and attempt > 0:
            return False
        return self._draw(kind, key, attempt) < rate

    def fires_first(self, key: str) -> bool:
        """Whether any kind fires for ``key`` on its first attempt.

        Pure, like :meth:`decide`: the stacked sweep engine's screen.
        """
        return any(self.decide(kind, key) for kind in KINDS)

    def trip(self, kind: str) -> bool:
        """Decide for the *current* evaluation context and record a hit."""
        ctx = context.current()
        key = ctx.key if ctx else "<no-context>"
        attempt = ctx.attempt if ctx else 0
        if not self.decide(kind, key, attempt):
            return False
        self.counters[kind] = self.counters.get(kind, 0) + 1
        self.fired.append((kind, key))
        return True

    # -- solver-boundary hooks ------------------------------------------

    def check_dc(self, circuit_name: str) -> None:
        """Raise the injected DC-solve failure, if any."""
        if self.trip(CONV_DC):
            raise ConvergenceError(
                f"injected DC non-convergence for {circuit_name!r}",
                code=CONV_DC,
            )
        if self.trip(SINGULAR_MNA):
            raise SingularMatrixError(
                f"injected singular MNA matrix for {circuit_name!r}"
            )

    def check_tran(self, circuit_name: str) -> None:
        """Raise the injected transient failure, if any."""
        if self.trip(CONV_TRAN):
            raise ConvergenceError(
                f"injected transient non-convergence for {circuit_name!r}",
                code=CONV_TRAN,
            )

    def poison_metrics(self, values: dict[str, float]) -> dict[str, float]:
        """Replace one metric with NaN when the BAD-METRIC fault fires."""
        if values and self.trip(BAD_METRIC):
            victim = sorted(values)[0]
            values = dict(values)
            values[victim] = float("nan")
        return values


_active: ContextVar[FaultInjector | None] = ContextVar(
    "repro_fault_injector", default=None
)


def active() -> FaultInjector | None:
    """The installed fault injector (None in production runs)."""
    return _active.get()


@contextmanager
def installed(injector: FaultInjector | None):
    """Make ``injector`` the active one for a block (None suspends
    injection)."""
    token = _active.set(injector)
    try:
        yield injector
    finally:
        _active.reset(token)


def inject(spec: FaultSpec, seed: int = 0):
    """Install a :class:`FaultInjector` for the duration of a block."""
    return installed(FaultInjector(spec, seed=seed))
