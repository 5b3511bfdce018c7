"""Ambient evaluation context.

The retry machinery needs two side channels into the solver stack without
threading parameters through every call:

* the current *evaluation key* and *attempt number*, so the fault
  injector can make per-key deterministic decisions and so retries can
  differ from first attempts;
* a *retry perturbation* amplitude, so a retried DC solve starts from a
  slightly perturbed initial guess instead of deterministically failing
  the same way.

Both live in a context variable, so a nested evaluation sees its own
context and the outer one is restored when it returns.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(frozen=True)
class EvalContext:
    """The evaluation currently running, if any.

    Attributes:
        key: Stable evaluation key (also the journal key).
        stage: Optimization stage name.
        attempt: Zero-based retry attempt.
        perturbation: Relative amplitude for perturbing initial guesses
            (0 on the first attempt, scaled up per retry).
    """

    key: str = ""
    stage: str = ""
    attempt: int = 0
    perturbation: float = 0.0


_current: ContextVar[EvalContext | None] = ContextVar(
    "repro_eval_context", default=None
)


def current() -> EvalContext | None:
    """The active evaluation context (None outside the runtime)."""
    return _current.get()


@contextmanager
def evaluation(ctx: EvalContext):
    """Run a block with ``ctx`` as the active evaluation context."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)
