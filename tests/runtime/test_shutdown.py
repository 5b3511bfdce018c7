"""Graceful shutdown: SIGINT/SIGTERM flush every registered journal/cache
and exit ``128 + signum``."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.runtime import shutdown


class _Sink:
    """Flushable stand-in for a journal/cache."""

    def __init__(self):
        self.flushed = 0

    def flush(self):
        self.flushed += 1


def test_graceful_shutdown_flushes_and_exits(tmp_path, capsys):
    sink = _Sink()
    shutdown.register_flushable(sink)
    before = signal.getsignal(signal.SIGTERM)
    with pytest.raises(SystemExit) as excinfo:
        with shutdown.graceful_shutdown(run_dir=tmp_path):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)  # the handler fires long before this returns
    assert excinfo.value.code == 128 + signal.SIGTERM
    assert sink.flushed == 1
    # Handlers restored on exit; the resume hint names the run dir.
    assert signal.getsignal(signal.SIGTERM) is before
    assert str(tmp_path) in capsys.readouterr().err


def test_flush_all_swallows_failures():
    class Bad:
        def flush(self):
            raise RuntimeError("broken sink")

    bad = Bad()
    good = _Sink()
    shutdown.register_flushable(bad)
    shutdown.register_flushable(good)
    shutdown.flush_all()  # must not raise past a signal handler
    assert good.flushed == 1
