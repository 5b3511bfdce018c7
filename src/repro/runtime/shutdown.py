"""Graceful shutdown for long sweeps.

Sweep journals self-register here on construction
(:func:`register_flushable`); they are the only state a run keeps
across processes (the evaluation cache lives in memory and is rebuilt
from the journals on resume).  :func:`graceful_shutdown` installs
SIGINT/SIGTERM handlers that flush every registered object
(:func:`flush_all`) and exit with the conventional ``128 + signum``
code, leaving a resumable ``--run-dir`` behind.
"""

from __future__ import annotations

import os
import signal
import sys
import weakref
from contextlib import contextmanager
from typing import Any


_FLUSHABLES: "weakref.WeakSet" = weakref.WeakSet()


def register_flushable(obj: Any) -> None:
    """Register an object with a ``flush()`` method for signal flushing.

    Journals self-register on construction; the weak set
    never keeps them alive, so a closed/collected journal simply drops
    out.
    """
    _FLUSHABLES.add(obj)


def flush_all() -> int:
    """Flush every registered object; returns how many flushed.

    Individual failures are swallowed — a shutdown handler must never
    raise past the signal frame.
    """
    flushed = 0
    for obj in list(_FLUSHABLES):
        try:
            obj.flush()
            flushed += 1
        except Exception:
            pass
    return flushed


@contextmanager
def graceful_shutdown(
    run_dir: str | os.PathLike | None = None,
    signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
):
    """Install SIGINT/SIGTERM handlers that flush and exit resumable.

    On signal, every registered journal is flushed, a resume hint
    naming ``run_dir`` is printed to stderr, and the process exits with
    the conventional ``128 + signum`` code via :class:`SystemExit`
    (so ``finally`` blocks and context managers still unwind).  Outside
    the main thread — or on platforms without these signals — the
    context is a transparent no-op.
    """

    def _handler(signum, frame):
        flush_all()
        if run_dir is not None:
            print(
                f"\ninterrupted by signal {signum}: run state flushed; "
                f"resume with --run-dir {run_dir} --resume",
                file=sys.stderr,
            )
        raise SystemExit(128 + signum)

    previous: dict[int, Any] = {}
    for sig in signals:
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):
            break  # not the main thread / unsupported signal
    try:
        yield
    finally:
        for sig, prev in previous.items():
            signal.signal(sig, prev)
