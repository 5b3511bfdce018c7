"""Solver backend versus the determinism contract.

For a *fixed* backend (pinned through the ``backend`` fixture), journals
and content-cache keys are byte-identical across stack widths 1 (lazy
serial) and 8 — the profiling layer and the backend swap must not leak
into any journaled or cached artifact.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro import PrimitiveOptimizer, Technology
from repro.runtime import batched as engine
from repro.spice import kernel


def _fresh_dp():
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=8, name="det_dp")


def _optimize(run_dir):
    return PrimitiveOptimizer(
        n_bins=2,
        max_wires=3,
        retries=1,
        run_dir=run_dir,
    ).optimize(_fresh_dp())


def _cache_keys(journal_path):
    keys = []
    for line in journal_path.read_text().splitlines():
        payload = json.loads(line).get("payload") or {}
        if isinstance(payload, dict) and payload.get("cache_key"):
            keys.append(payload["cache_key"])
    return keys


def test_journals_byte_identical_across_stack_width(tmp_path, backend, monkeypatch):
    monkeypatch.setattr(engine, "STACK_WIDTH", 1)
    serial = _optimize(tmp_path / "serial")
    monkeypatch.setattr(engine, "STACK_WIDTH", 8)
    stacked = _optimize(tmp_path / "stacked")
    serial_bytes = (tmp_path / "serial" / "det_dp.jsonl").read_bytes()
    stacked_bytes = (tmp_path / "stacked" / "det_dp.jsonl").read_bytes()
    assert stacked_bytes == serial_bytes
    keys_serial = _cache_keys(tmp_path / "serial" / "det_dp.jsonl")
    keys_stacked = _cache_keys(tmp_path / "stacked" / "det_dp.jsonl")
    assert keys_serial and keys_stacked == keys_serial
    # The profile is a report-level view only — never journaled.
    assert b"solver_profile" not in serial_bytes
    assert b"stamp_s" not in serial_bytes
    # Every evaluation runs in this process, so both profiles are
    # complete and every solve went through the pinned backend.
    for report in (serial, stacked):
        assert report.solver_profile
        assert report.solver_profile["backends"] == {
            backend: report.solver_profile["solves"]
        }
    assert stacked.solver_profile["batched_solves"] > 0


def test_backends_agree_on_selected_options(tmp_path, monkeypatch):
    """Dense and sparse runs pick the same layout options (costs agree
    within the cost function's own tolerance, selection is identical).
    The test compares both backends, so it pins them in turn instead of
    taking the one-backend ``backend`` fixture."""
    monkeypatch.setattr(kernel, "SPARSE_MIN_SIZE", sys.maxsize)
    dense = _optimize(tmp_path / "dense")
    monkeypatch.setattr(kernel, "SPARSE_MIN_SIZE", 0)
    sparse = _optimize(tmp_path / "sparse")
    assert [o.describe() for o in sparse.selected] == [
        o.describe() for o in dense.selected
    ]
    assert sparse.best.cost == pytest.approx(dense.best.cost, rel=1e-2)
