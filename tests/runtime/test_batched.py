"""Batched (vectorized multi-variant) solves: byte-identical to serial.

The stacked sweep engine (``STACK_WIDTH`` variants per stack) produces
bitwise-identical metrics, journals, cache traffic and reports to the
lazy-serial reference (``STACK_WIDTH = 1``) — for any variant order,
and under the fault-injection seed matrix (where the engine disengages
but output must not move).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import PrimitiveOptimizer, Technology
from repro.cellgen.generator import WireConfig
from repro.devices.mosfet import MosGeometry
from repro.errors import ConvergenceError, LayoutError, MeasureError
from repro.primitives import PrimitiveLibrary
from repro.runtime import BatchSpec, BatchTask, EvalBatch, EvalRuntime
from repro.runtime import batched as engine
from repro.runtime.evalcache import EvalCache
from repro.runtime.faults import FaultSpec, inject
from repro.spice import Circuit, CompiledCircuit, kernel
from repro.spice import measure
from repro.spice import ac as ac_module
from repro.spice import dc as dc_module
from repro.spice.ac import ac_analysis, ac_analysis_many
from repro.spice.dc import dc_operating_point, dc_operating_points

BATCH = engine.STACK_WIDTH


@pytest.fixture
def stack_width(monkeypatch):
    """Setter for the stacked engine's width (1 = lazy-serial reference)."""

    def set_width(width):
        monkeypatch.setattr(engine, "STACK_WIDTH", width)

    return set_width


def _compiled(circuit, tech):
    return CompiledCircuit(circuit, tech.rules)


def _divider(v_in, r2):
    c = Circuit("div")
    c.add_vsource("v1", "in", "0", v_in)
    c.add_resistor("r1", "in", "mid", 1000.0)
    c.add_resistor("r2", "mid", "0", r2)
    return c


def _diode_nmos(tech, bias, nf):
    c = Circuit("dio")
    c.add_isource("i1", "0", "d", bias)
    c.add_mosfet("m1", "d", "d", "0", "0", tech.nmos, MosGeometry(8, nf, 1))
    return c


def _fresh_dp(name="batch_dp"):
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=8, name=name)


def _optimizer(run_dir=None, resume=False):
    return PrimitiveOptimizer(
        n_bins=2,
        max_wires=3,
        retries=2,
        run_dir=run_dir,
        resume=resume,
    )


def _fingerprint(report) -> tuple:
    return (
        [(o.describe(), o.cost) for o in report.options],
        [(o.describe(), o.cost) for o in report.selected],
        [(t.option.describe(), t.option.cost) for t in report.tuned],
        [(s.name, s.simulations) for s in report.stages],
        report.total_simulations,
        report.best.cost,
        [f.to_dict() for f in report.failures.failures],
        report.cache_stats,
    )


# -- DC: stacked lockstep Newton vs per-circuit serial -------------------


def test_dc_operating_points_bitwise(tech):
    circuits = [_divider(0.5 + 0.25 * k, 1000.0 * (k + 1)) for k in range(4)]
    circuits += [_diode_nmos(tech, 50e-6 * (k + 1), 2) for k in range(4)]
    compileds = [_compiled(c, tech) for c in circuits]
    serial = [dc_operating_point(c) for c in compileds]
    batched = dc_operating_points(compileds)
    assert len(batched) == len(serial)
    for got, ref in zip(batched, serial):
        # Bitwise: the lockstep kernel replays the serial float ops.
        assert np.array_equal(got.x, ref.x)
        assert got.recovery == ref.recovery


def test_dc_operating_points_mixed_convergence_captures_failures(
    tech, monkeypatch
):
    # A zero Newton budget makes every member fail, stacked and serial
    # alike; the batched wrapper must hand each member to the serial
    # path and capture the same exceptions per member instead of
    # raising on the first.
    monkeypatch.setattr(dc_module, "_max_iterations", lambda compiled: 0)
    compileds = [
        _compiled(_divider(1.0, 2000.0), tech),
        _compiled(_diode_nmos(tech, 100e-6, 4), tech),
    ]
    serial_errs = []
    for c in compileds:
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(c)
        serial_errs.append(str(err.value))
    batched = dc_operating_points(compileds)
    for got, ref in zip(batched, serial_errs):
        assert isinstance(got, ConvergenceError)
        assert str(got) == ref


# -- AC: stacked frequency sweeps ----------------------------------------


def _rc(k):
    c = Circuit(f"rc{k}")
    c.add_vsource("vin", "in", "0", 0.0, ac_magnitude=1.0)
    c.add_resistor("r1", "in", "out", 1e3 * (k + 1))
    c.add_capacitor("c1", "out", "0", 1e-12)
    return c


def _rc_ladder(k, stages=40):
    # 42 unknowns: one member's 81-point stack (2.2 MiB) is bigger than
    # AC_SLICE_BYTES, so the sweep is solved in frequency slices.
    c = Circuit(f"ladder{k}")
    c.add_vsource("vin", "n0", "0", 0.0, ac_magnitude=1.0)
    for s in range(stages):
        c.add_resistor(f"r{s}", f"n{s}", f"n{s + 1}", 1e3 * (k + 1) + 10 * s)
        c.add_capacitor(f"c{s}", f"n{s + 1}", "0", 1e-13 * (s + 1))
    return c


def test_ac_analysis_many_bitwise(tech, backend):
    member_sets = [
        # Small systems: all four whole sweeps in one stacked solve.
        (_rc, dict(f_start=1e3, f_stop=1e10, points_per_decade=5), 1),
        # One member's stack exceeds the slice cap: frequency slices,
        # 3 per member.
        (_rc_ladder, dict(f_start=1e3, f_stop=1e11, points_per_decade=10), 12),
    ]
    for build, kw, stacked_calls in member_sets:
        if backend == kernel.SPARSE:
            stacked_calls = 0  # sparse-backend members solve serially
        compileds = [_compiled(build(k), tech) for k in range(4)]
        ops = [dc_operating_point(c) for c in compileds]
        serial = [ac_analysis(c, op, **kw) for c, op in zip(compileds, ops)]
        stack_bytes = len(serial[0].freqs) * compileds[0].size ** 2 * 16
        if build is _rc_ladder:
            assert stack_bytes > ac_module.AC_SLICE_BYTES
        stats = kernel.SolverStats()
        with kernel.collect(stats):
            batched = ac_analysis_many(compileds, ops, **kw)
        assert stats.batched_solves == stacked_calls
        assert stats.batch_fallbacks == 0
        for got, ref in zip(batched, serial):
            assert np.array_equal(got.freqs, ref.freqs)
            assert np.array_equal(got.solutions, ref.solutions)


# -- lockstep bisection --------------------------------------------------


def test_find_dc_zero_many_bitwise():
    roots = [0.013, -0.4, 0.2499, 0.0]

    def evaluate_many(indices, xs):
        return [xs[j] - roots[i] for j, i in enumerate(indices)]

    serial = [
        measure.find_dc_zero(lambda x, r=r: x - r, -0.5, 0.5) for r in roots
    ]
    batched = measure.find_dc_zero_many(evaluate_many, len(roots), -0.5, 0.5)
    assert batched == serial  # bitwise: same bisection arithmetic


def test_find_dc_zero_many_captures_member_failures():
    # Member 1 has no sign change, member 2 raises mid-bisection; both
    # are captured in place while member 0 still converges.
    def evaluate_many(indices, xs):
        out = []
        for j, i in enumerate(indices):
            if i == 1:
                out.append(xs[j] + 10.0)
            elif i == 2:
                out.append(ValueError("boom"))
            else:
                out.append(xs[j] - 0.1)
        return out

    results = measure.find_dc_zero_many(evaluate_many, 3, -0.5, 0.5)
    with pytest.raises(MeasureError) as serial_err:
        measure.find_dc_zero(lambda x: x + 10.0, -0.5, 0.5)
    assert results[0] == measure.find_dc_zero(lambda x: x - 0.1, -0.5, 0.5)
    assert isinstance(results[1], MeasureError)
    assert str(results[1]) == str(serial_err.value)
    assert isinstance(results[2], ValueError)


# -- every MOS family: stacked metric evaluation vs serial ---------------


def _mos_families() -> list[str]:
    library = PrimitiveLibrary()
    names = []
    for name in library.names():
        try:
            library.create(name, Technology.default(), base_fins=8)
        except TypeError:
            continue  # passives take no base_fins
        names.append(name)
    return names


# The indirect mark only puts the backend after the family in test ids.
@pytest.mark.parametrize("backend", [kernel.DENSE, kernel.SPARSE], indirect=True)
@pytest.mark.parametrize("name", _mos_families())
def test_every_family_evaluates_stacked_bitwise_equal_to_serial(name, backend):
    prim = PrimitiveLibrary().create(name, Technology.default(), base_fins=8)
    # Only the transient delay metrics lack a stacked evaluator.
    assert [
        m.name for m in prim.metrics() if m.batch_evaluate is None
    ] in ([], ["delay"])
    base = prim.variants()[0]
    nets = [net for t in prim.tuning_terminals() for net in t.nets]
    duts = [
        prim.layout_circuit(
            base, "ABAB", WireConfig(parallel={net: k for net in nets})
        )
        for k in (1, 2, 3)
    ]
    serial = [prim.evaluate(dut) for dut in duts]
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        stacked = prim.evaluate_many(duts)
    # Bitwise: dict equality on the float values, plus simulation counts.
    assert stacked == serial
    assert stats.batched_solves > 0


# -- property: shuffled selection sweeps, batched vs serial --------------


@pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
def test_shuffled_selection_batch_matches_serial(shuffle_seed, stack_width):
    prim = _fresh_dp()
    variants = prim.variants()
    random.Random(shuffle_seed).shuffle(variants)

    def run(width):
        from repro.core.selection import evaluate_options

        stack_width(width)
        runtime = EvalRuntime(cache=EvalCache())
        options = evaluate_options(
            _fresh_dp(), variants=variants, runtime=runtime
        )
        return runtime, options

    serial_rt, serial = run(1)
    batch_rt, batched = run(BATCH)
    assert len(batched) == len(serial)
    for got, ref in zip(batched, serial):
        assert (got.base, got.pattern) == (ref.base, ref.pattern)
        assert got.values == ref.values  # bitwise: dict equality on floats
        assert got.simulations == ref.simulations
        assert got.cache_key == ref.cache_key
        assert got.breakdown.cost == ref.breakdown.cost
    # Cache traffic replays identically (keys, hit/miss/store sequence).
    assert batch_rt.cache.stats == serial_rt.cache.stats
    assert sorted(batch_rt.cache._entries) == sorted(serial_rt.cache._entries)
    # The fast path actually engaged — this is not serial-vs-serial.
    assert batch_rt.solver_stats.batched_solves > 0
    assert serial_rt.solver_stats.batched_solves == 0


def test_default_optimizer_runs_stacked():
    # The stacked engine is the sweep engine: a default-configured
    # optimizer issues stacked solves.
    report = PrimitiveOptimizer().optimize(_fresh_dp())
    assert report.solver_profile["batched_solves"] > 0


def test_batched_report_identical_to_serial(stack_width):
    stack_width(1)
    serial = _optimizer().optimize(_fresh_dp())
    stack_width(BATCH)
    batched_report = _optimizer().optimize(_fresh_dp())
    assert _fingerprint(batched_report) == _fingerprint(serial)


def test_batched_journal_byte_identical(tmp_path, stack_width):
    stack_width(1)
    _optimizer(run_dir=tmp_path / "serial").optimize(_fresh_dp())
    stack_width(BATCH)
    _optimizer(run_dir=tmp_path / "batched").optimize(_fresh_dp())
    serial = (tmp_path / "serial" / "batch_dp.jsonl").read_bytes()
    batched = (tmp_path / "batched" / "batch_dp.jsonl").read_bytes()
    assert batched == serial


def test_batched_report_identical_under_faults(fault_seed, stack_width):
    # Injection disengages the fast path member-by-member; the output
    # must not move by a byte either way.
    spec = FaultSpec(dc_fail_rate=0.3)
    stack_width(1)
    with inject(spec, seed=fault_seed) as serial_injector:
        serial = _optimizer().optimize(_fresh_dp())
    stack_width(BATCH)
    with inject(spec, seed=fault_seed) as batched_injector:
        batched_report = _optimizer().optimize(_fresh_dp())
    assert _fingerprint(batched_report) == _fingerprint(serial)
    assert batched_injector.counters == serial_injector.counters
    assert batched_injector.fired == serial_injector.fired


# -- call-site exceptions ------------------------------------------------


def _layout_error(*_args):
    raise LayoutError("infeasible pattern")


def _assert_layout_error_propagates(runtime, batch):
    assert batch.consume(0) == 1.0
    with pytest.raises(LayoutError, match="infeasible"):
        batch.consume(1)
    assert batch.consume(2) == 2.0
    # A LayoutError is the call site's business (selection skips the
    # option), not a recorded evaluation failure.
    assert not runtime.failures


def test_layout_error_propagates_at_consume():
    runtime = EvalRuntime()
    tasks = [
        BatchTask(key="ok", thunk=lambda: 1.0),
        BatchTask(key="bad", thunk=_layout_error),
        BatchTask(key="ok2", thunk=lambda: 2.0),
    ]
    batch = runtime.evaluate_batch(tasks, stage="spec")
    assert type(batch) is EvalBatch
    _assert_layout_error_propagates(runtime, batch)


class _StackedStub:
    """Primitive stand-in whose stacked evaluation echoes each circuit."""

    def __init__(self):
        self.stacks = []

    def evaluate_many(self, circuits):
        self.stacks.append(list(circuits))
        return [({"v": circuit}, 1) for circuit in circuits]


def test_stacked_build_layout_error_propagates_at_consume():
    primitive = _StackedStub()

    def task(key, value, build):
        return BatchTask(
            key=key,
            thunk=lambda: value,
            batch_spec=BatchSpec(
                primitive=primitive,
                build=build,
                finish=lambda site, values, sims, key: values["v"],
            ),
        )

    runtime = EvalRuntime()
    tasks = [
        task("ok", 1.0, lambda: (1.0, None)),
        BatchTask(
            key="bad",
            thunk=_layout_error,
            batch_spec=BatchSpec(
                primitive=primitive, build=_layout_error, finish=_layout_error
            ),
        ),
        task("ok2", 2.0, lambda: (2.0, None)),
    ]
    batch = runtime.evaluate_batch(tasks, stage="spec")
    assert isinstance(batch, engine.BatchedEvalBatch)
    # The members whose build succeeded ran as one stack.
    assert primitive.stacks == [[1.0, 2.0]]
    _assert_layout_error_propagates(runtime, batch)
