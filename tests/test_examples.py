"""Smoke runs of the example scripts.

`examples/` is not a package, so each script is loaded straight from its
file path and its ``main()`` run in process.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_EXAMPLES = Path(__file__).parents[1] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _EXAMPLES / f"{name}.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_annotate_and_montecarlo_runs(capsys):
    _load("annotate_and_montecarlo").main()
    out = capsys.readouterr().out
    # The ingest recognizer claims every OTA transistor.
    assert "u1_differential_pair     differential_pair      dp.MA, dp.MB" in out
    assert "pmos_current_mirror    M3, M4" in out
    assert "current_source         M5" in out
    assert "coverage 1.00, uncovered: none" in out
    assert "samples: 40" in out
