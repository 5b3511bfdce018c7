"""Primitive tuning (Algorithm 1, step 2)."""

import pytest

from repro.cellgen.generator import WireConfig
from repro.core.selection import evaluate_option
from repro.core.tuning import (
    TUNE_CHUNK,
    _untuned_straps,
    choose_stop_point,
    tune_option,
)
from repro.devices.mosfet import MosGeometry
from repro.errors import OptimizationError
from repro.runtime import EvalRuntime
from repro.runtime import batched as engine
from repro.runtime.faults import FaultSpec, inject


class _Terminal:
    def __init__(self, nets):
        self.nets = nets


def test_stop_at_minimum():
    idx, reason = choose_stop_point([5.0, 4.0, 3.5, 3.8, 4.5])
    assert idx == 2
    assert reason == "minimum"


def test_stop_at_curvature_for_monotone():
    # Monotone decreasing: stop where the discrete second difference
    # (curvature) peaks — the knee of the curve.
    costs = [10.0, 6.0, 4.0, 3.8, 3.7, 3.65]
    idx, reason = choose_stop_point(costs)
    assert reason == "curvature"
    assert idx == 1  # second difference 2.0 at index 1 beats 1.8 at 2
    # A curve with its knee later stops later.
    idx2, reason2 = choose_stop_point([10.0, 9.5, 9.0, 5.0, 4.8, 4.7])
    assert reason2 == "curvature"
    assert idx2 == 3


def test_stop_short_curves():
    idx, reason = choose_stop_point([3.0, 2.0])
    assert idx == 1
    assert reason == "exhausted"


def test_stop_empty_raises():
    with pytest.raises(OptimizationError):
        choose_stop_point([])


def test_tuning_never_worsens_cost(small_dp):
    option = evaluate_option(small_dp, MosGeometry(8, 4, 3), "ABAB")
    result = tune_option(small_dp, option, max_wires=4)
    assert result.option.cost <= option.cost + 1e-9
    assert result.simulations > 0


def test_tuning_records_sweeps(small_dp):
    option = evaluate_option(small_dp, MosGeometry(8, 4, 3), "ABAB")
    result = tune_option(small_dp, option, max_wires=3)
    names = {s.terminal for s in result.sweeps}
    assert names == {"source", "drain"}
    for sweep in result.sweeps:
        assert sweep.points
        assert sweep.chosen >= 1


def test_tuning_wire_config_applied(small_dp):
    option = evaluate_option(small_dp, MosGeometry(8, 4, 3), "ABAB")
    result = tune_option(small_dp, option, max_wires=4)
    by_name = {s.terminal: s for s in result.sweeps}
    assert result.option.wires.straps("tail") == by_name["source"].chosen


def test_untuned_straps_skips_netless_terminals():
    # Regression: the failed-sweep fallback indexed ``nets[0]`` of the
    # group's first terminal, an IndexError for placeholder terminals
    # that touch no nets.
    wires = WireConfig().with_straps("tail", 3)
    assert _untuned_straps(wires, [_Terminal([])]) == 1
    assert _untuned_straps(wires, [_Terminal([]), _Terminal(["tail"])]) == 3
    assert _untuned_straps(wires, [_Terminal(["tail"])]) == 3
    assert _untuned_straps(WireConfig(), [_Terminal(["tail"])]) == 1


def test_fully_failed_sweep_keeps_untuned_wires(small_dp):
    # Regression: a sweep whose every point failed used to report the
    # TerminalSweep dataclass default (chosen=1) even when the option
    # arrived pre-tuned with more straps.
    option = evaluate_option(small_dp, MosGeometry(8, 4, 3), "ABAB")
    option.wires = option.wires.with_straps("tail", 2)
    with inject(FaultSpec(bad_metric_rate=1.0)):
        result = tune_option(small_dp, option, max_wires=3)
    by_name = {s.terminal: s for s in result.sweeps}
    assert all(s.stopped_by == "failed" for s in result.sweeps)
    assert by_name["source"].chosen == 2  # the pre-tuned strap count
    # The untuned option survives as the result.
    assert result.option is option


class _RecordingRuntime(EvalRuntime):
    """EvalRuntime that logs the width of every tuning dispatch."""

    def __init__(self):
        super().__init__()
        self.widths: list[int] = []

    def evaluate_batch(self, tasks, stage):
        if stage == "tuning":
            self.widths.append(len(tasks))
        return super().evaluate_batch(tasks, stage)


def test_singleton_sweeps_dispatch_in_chunks(small_dp, monkeypatch):
    # Eager runtimes (the stacked engine, worker pools) evaluate a whole
    # dispatch up front, so the sweep must never hand them wire counts
    # the early-stop break would leave unconsumed: dispatches are
    # chunked, bounding overshoot to the current chunk.
    option = evaluate_option(small_dp, MosGeometry(8, 4, 3), "ABAB")
    runtime = _RecordingRuntime()
    result = tune_option(small_dp, option, max_wires=8, runtime=runtime)
    assert runtime.widths
    assert all(width <= TUNE_CHUNK for width in runtime.widths)
    consumed = sum(len(s.points) for s in result.sweeps)
    dispatched = sum(runtime.widths)
    assert dispatched <= consumed + (TUNE_CHUNK - 1) * len(result.sweeps)
    # Chunking must not move the outcome: chosen wires match the
    # lazy-serial reference run.
    monkeypatch.setattr(engine, "STACK_WIDTH", 1)
    reference = tune_option(
        small_dp,
        evaluate_option(small_dp, MosGeometry(8, 4, 3), "ABAB"),
        max_wires=8,
    )
    assert [s.chosen for s in result.sweeps] == [
        s.chosen for s in reference.sweeps
    ]


def test_correlated_terminals_swept_jointly(tech):
    from repro.primitives import CascodeCurrentSource

    prim = CascodeCurrentSource(tech, base_fins=48)
    option = evaluate_option(prim, MosGeometry(8, 6, 1), "ABAB")
    result = tune_option(prim, option, max_wires=2)
    joint = [s for s in result.sweeps if "+" in s.terminal]
    assert len(joint) == 1
    assert joint[0].stopped_by == "joint"
    # A 2-terminal joint sweep at limit 2 explores 4 combinations.
    assert len(joint[0].points) == 4
