"""Graceful shutdown for long sweeps.

:func:`graceful_shutdown` installs SIGINT/SIGTERM handlers that print a
resume hint and exit with the conventional ``128 + signum`` code.  The
exit is a :class:`SystemExit`, so the optimizer's and the flow's
``finally`` blocks close their sweep journals on the way out.  Nothing
needs flushing at signal time: every journal line is flushed and
fsynced as it is appended (:meth:`~repro.runtime.checkpoint.SweepJournal
._append`), and the journals are the only state a run keeps across
processes, so the ``--run-dir`` left behind is always resumable.
"""

from __future__ import annotations

import os
import signal
import sys
from contextlib import contextmanager
from typing import Any


@contextmanager
def graceful_shutdown(
    run_dir: str | os.PathLike | None = None,
    signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
):
    """Install SIGINT/SIGTERM handlers that exit resumable.

    On signal, a resume hint naming ``run_dir`` is printed to stderr and
    the process exits with the conventional ``128 + signum`` code via
    :class:`SystemExit` (so ``finally`` blocks and context managers
    still unwind).  Outside the main thread — or on platforms without
    these signals — the context is a transparent no-op.
    """

    def _handler(signum, frame):
        if run_dir is not None:
            print(
                f"\ninterrupted by signal {signum}: "
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
