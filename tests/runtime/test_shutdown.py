"""Graceful shutdown: SIGINT/SIGTERM exit ``128 + signum`` and leave a
``--run-dir`` that resumes to the uninterrupted run's report."""

from __future__ import annotations

import os
import signal

import pytest

from repro import PrimitiveOptimizer, Technology
from repro.runtime import SweepJournal, shutdown


def _fresh_dp():
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=8, name="sd_dp")


def _optimize(run_dir, resume=False):
    optimizer = PrimitiveOptimizer(
        n_bins=2, max_wires=3, run_dir=run_dir, resume=resume
    )
    return optimizer.optimize(_fresh_dp())


def _fingerprint(report) -> tuple:
    return (
        [(o.describe(), o.cost) for o in report.options],
        [(t.option.describe(), t.option.cost) for t in report.tuned],
        [(s.name, s.simulations) for s in report.stages],
        report.total_simulations,
        [f.to_dict() for f in report.failures.failures],
        report.cache_stats,
    )


def test_sigterm_mid_journal_append_resumes_identically(
    tmp_path, monkeypatch, capsys
):
    baseline = _fingerprint(_optimize(tmp_path / "clean"))

    # SIGTERM arrives while the third journal line is being appended.
    run_dir = tmp_path / "run"
    real = SweepJournal._append
    journals: list[SweepJournal] = []

    def append(self, entry):
        journals.append(self)
        real(self, entry)
        if len(journals) == 3:
            os.kill(os.getpid(), signal.SIGTERM)

    before = signal.getsignal(signal.SIGTERM)
    with monkeypatch.context() as patch:
        patch.setattr(SweepJournal, "_append", append)
        with pytest.raises(SystemExit) as excinfo:
            with shutdown.graceful_shutdown(run_dir=run_dir):
                _optimize(run_dir)
    assert excinfo.value.code == 128 + signal.SIGTERM == 143
    # The unwind closed the journal; the handler is restored and the
    # resume hint names the run dir.
    assert journals[-1]._file.closed
    assert signal.getsignal(signal.SIGTERM) is before
    assert str(run_dir) in capsys.readouterr().err

    resumed = _optimize(run_dir, resume=True)
    assert resumed.cached_evaluations == 3
    assert _fingerprint(resumed) == baseline
