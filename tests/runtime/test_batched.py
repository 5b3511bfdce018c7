"""Batched (vectorized multi-variant) solves: byte-identical to serial.

The stacked sweep engine (``STACK_WIDTH`` variants per stack) produces
bitwise-identical metrics, journals, cache traffic and reports to the
lazy-serial reference (``STACK_WIDTH = 1``) — for any variant order,
and under the fault-injection seed matrix (where members a fault would
hit are evaluated alone at consumption and the rest still stack).
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from repro import PrimitiveOptimizer, Technology
from repro.cellgen.generator import WireConfig
from repro.devices.mosfet import MosGeometry
from repro.errors import ConvergenceError, LayoutError, MeasureError
from repro.primitives import PrimitiveLibrary
from repro.primitives import testbenches as tbh
from repro.runtime import BatchSpec, BatchTask, EvalBatch, EvalRuntime
from repro.runtime import batched as engine
from repro.runtime import context
from repro.runtime.evalcache import CacheStats
from repro.runtime.faults import FaultSpec, inject
from repro.spice import Circuit, CompiledCircuit, kernel
from repro.spice import measure
from repro.spice import ac as ac_module
from repro.spice import dc as dc_module
from repro.spice import mna as mna_module
from repro.spice.ac import ac_analysis, ac_analysis_many
from repro.spice.dc import dc_operating_point, dc_operating_points

BATCH = engine.STACK_WIDTH


@pytest.fixture
def stack_width(monkeypatch):
    """Setter for the stacked engine's width (1 = lazy-serial reference).

    Each call returns a fresh record of the circuits in every DC Newton
    stack (``"dc"``) and every metric AC sweep stack (``"ac"``) run
    after it.
    """
    newton, sweep = dc_module._newton_solve_batch, tbh.ac_analysis_many
    record: dict = {}

    def newton_spy(group, x0, *args):
        record["dc"].append(len(x0))
        return newton(group, x0, *args)

    def sweep_spy(compileds, *args):
        record["ac"].append(len(compileds))
        return sweep(compileds, *args)

    monkeypatch.setattr(dc_module, "_newton_solve_batch", newton_spy)
    # The metric testbenches hold their own binding of the AC entry.
    monkeypatch.setattr(tbh, "ac_analysis_many", sweep_spy)

    def set_width(width):
        nonlocal record
        monkeypatch.setattr(engine, "STACK_WIDTH", width)
        record = {"dc": [], "ac": []}
        return record

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


def _model_calls(monkeypatch) -> dict:
    """Count device-model calls: serial reads (one device vector) and
    stacked fills (a ``(K, devices)`` stack), by call site."""
    calls = {"serial": 0, "stacked": 0}

    def counting(module, kind):
        real = module.evaluate_mosfets

        def evaluate(*args):
            calls[kind] += 1
            return real(*args)

        monkeypatch.setattr(module, "evaluate_mosfets", evaluate)

    counting(mna_module, "serial")
    counting(dc_module, "stacked")
    return calls


def _assert_mos_eval_equal(got, ref):
    for f in dataclasses.fields(ref):
        assert np.array_equal(getattr(got, f.name), getattr(ref, f.name))


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


def test_dc_operating_points_evaluate_model_on_read(tech, monkeypatch):
    calls = _model_calls(monkeypatch)
    compileds = [
        _compiled(_diode_nmos(tech, 50e-6 * (k + 1), 2), tech) for k in range(4)
    ]
    ops = dc_operating_points(compileds)
    assert calls == {"serial": 0, "stacked": 0}
    evals = [op.mos_eval for op in ops]
    # One evaluation per operating point, on its first read only.
    assert calls == {"serial": len(ops), "stacked": 0}
    assert all(op.mos_eval is ev for op, ev in zip(ops, evals))
    assert calls == {"serial": len(ops), "stacked": 0}
    for op, ev in zip(ops, evals):
        _assert_mos_eval_equal(ev, op.compiled.eval_mosfets(op.x))


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


def test_dc_retry_perturbation_golden(tech):
    # A retry attempt starts Newton from a perturbed guess; the solution
    # is pinned bitwise (captured before the serial DC entry became a
    # one-member stack) and differs from the unperturbed one.
    compiled = _compiled(_diode_nmos(tech, 50e-6, 2), tech)
    plain = dc_operating_point(compiled)
    retry = context.EvalContext(key="golden", attempt=1, perturbation=1e-3)
    with context.evaluation(retry):
        op = dc_operating_point(compiled)
        (stacked,) = dc_operating_points([compiled])
    assert [float(v).hex() for v in plain.x] == ["0x1.972dab57b747cp-2"]
    assert [float(v).hex() for v in op.x] == ["0x1.972dab57b747ep-2"]
    assert op.recovery == ()
    assert np.array_equal(stacked.x, op.x)


def test_dc_fault_hook_trips_once_per_member(tech):
    # The one DC entry holds the fault hook: a one-member call returns
    # the injected failure in its place, and the serial entry raises it.
    compiled = _compiled(_diode_nmos(tech, 50e-6, 2), tech)
    with inject(FaultSpec(dc_fail_rate=1.0)) as injector:
        (point,) = dc_operating_points([compiled])
        assert isinstance(point, ConvergenceError)
        assert str(point).startswith("injected DC non-convergence for 'dio'")
        assert injector.counters == {"CONV-DC": 1}
        with pytest.raises(ConvergenceError, match="injected DC"):
            dc_operating_point(compiled)
        assert injector.counters == {"CONV-DC": 2}


def test_ac_sweep_skipped_when_every_operating_point_fails(tech, monkeypatch):
    # With every member's operating point failed there is nothing to
    # sweep: the AC entry is not called with an empty stack.
    calls = []
    sweep = tbh.ac_analysis_many

    def spy(compileds, *args):
        calls.append(len(compileds))
        return sweep(compileds, *args)

    monkeypatch.setattr(tbh, "ac_analysis_many", spy)
    tbs = [_diode_through_resistor(tech, 0.6), _diode_through_resistor(tech, 0.8)]
    with inject(FaultSpec(dc_fail_rate=1.0)) as injector:
        out = tbh.run_ac_many(tbs, tech)
    assert injector.counters == {"CONV-DC": 2}
    assert all(isinstance(result, ConvergenceError) for result in out)
    assert calls == []


def _diode_through_resistor(tech, volts):
    c = Circuit("rdio")
    c.add_vsource("v1", "in", "0", volts)
    c.add_resistor("r1", "in", "d", 1000.0)
    c.add_mosfet("m1", "d", "d", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    return c


def test_dc_operating_points_ladder_costs_what_serial_costs(tech):
    # The 36 V member fails plain Newton in the stack and goes straight
    # to the gmin/source-stepping ladder: one "dc" analysis and the
    # Newton iterations of one serial solve, not a replay of its failed
    # plain-Newton trajectory on top.
    compileds = [
        _compiled(_diode_through_resistor(tech, volts), tech)
        for volts in (0.8, 36.0, 1.0)
    ]
    serial_stats, stacked_stats = kernel.SolverStats(), kernel.SolverStats()
    with kernel.collect(serial_stats):
        serial = [dc_operating_point(c) for c in compileds]
    with kernel.collect(stacked_stats):
        stacked = dc_operating_points(compileds)
    assert serial[1].recovery == ("gmin-stepping", "source-stepping")
    for got, ref in zip(stacked, serial):
        assert np.array_equal(got.x, ref.x)
        assert got.recovery == ref.recovery
    assert stacked_stats.analyses == serial_stats.analyses == {"dc": 3}
    assert stacked_stats.newton_iterations == serial_stats.newton_iterations


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


def _diode_ac(tech, k):
    # Bias and load vary per member; device count and system size do not.
    c = _diode_nmos(tech, 50e-6 * (k + 1), 2)
    c.add_isource("iac", "0", "d", 0.0, ac_magnitude=1e-6)
    c.add_capacitor("cl", "d", "0", 1e-14 * (k + 1))
    return c


def test_ac_analysis_many_bitwise(tech, backend, monkeypatch):
    member_sets = [
        # Small systems: all four whole sweeps in one stacked solve.
        (_rc, dict(f_start=1e3, f_stop=1e10, points_per_decade=5), 1),
        # One member's stack exceeds the slice cap: frequency slices,
        # 3 per member.
        (_rc_ladder, dict(f_start=1e3, f_stop=1e11, points_per_decade=10), 12),
        # MOSFET members: their device models are evaluated in one
        # stacked call before the sweeps, on either backend.
        (
            lambda k: _diode_ac(tech, k),
            dict(f_start=1e6, f_stop=1e11, points_per_decade=8),
            1,
        ),
    ]
    calls = _model_calls(monkeypatch)
    for build, kw, stacked_calls in member_sets:
        if backend == kernel.SPARSE:
            stacked_calls = 0  # sparse-backend members solve serially
        compileds = [_compiled(build(k), tech) for k in range(4)]
        ops = [dc_operating_point(c) for c in compileds]
        serial_ops = [dc_operating_point(c) for c in compileds]
        serial = [ac_analysis(c, op, **kw) for c, op in zip(compileds, serial_ops)]
        stack_bytes = len(serial[0].freqs) * compileds[0].size ** 2 * 16
        if build is _rc_ladder:
            assert stack_bytes > ac_module.AC_SLICE_BYTES
        stats = kernel.SolverStats()
        calls.update(serial=0, stacked=0)
        with kernel.collect(stats):
            batched = ac_analysis_many(compileds, ops, **kw)
        assert stats.batched_solves == stacked_calls
        assert stats.batch_fallbacks == 0
        stacked_models = 1 if compileds[0].mos_elements else 0
        assert calls == {"serial": 0, "stacked": stacked_models}
        for got, ref in zip(batched, serial):
            assert np.array_equal(got.freqs, ref.freqs)
            assert np.array_equal(got.solutions, ref.solutions)
            assert np.any(got.solutions)
        for op, ref in zip(ops, serial_ops):
            if ref.mos_eval is not None:
                _assert_mos_eval_equal(op.mos_eval, ref.mos_eval)


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
    assert [root.hex() for root in serial] == [
        "0x1.a9fbc00000000p-7",
        "-0x1.99999a0000000p-2",
        "0x1.ffcb940000000p-3",
        "0x0.0p+0",
    ]


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
    assert results[0].hex() == "0x1.9999980000000p-4"
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
    # A K-member stack against K one-member stacks (``prim.evaluate``).
    prim = PrimitiveLibrary().create(name, Technology.default(), base_fins=8)
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


#: ``prim.evaluate`` values (hex floats) and simulation counts per
#: backend, family and DUT (the schematic and the ABAB layout of the
#: first sizing), captured from the serial metric evaluators before the
#: stacked ones became the only ones.
_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_serial_evaluate.json").read_text()
)


@pytest.mark.parametrize("backend", [kernel.DENSE, kernel.SPARSE], indirect=True)
@pytest.mark.parametrize("name", _mos_families())
def test_every_family_evaluates_golden(name, backend):
    prim = PrimitiveLibrary().create(name, Technology.default(), base_fins=8)
    duts = {
        "schematic": prim.schematic_circuit(),
        "ABAB": prim.layout_circuit(prim.variants()[0], "ABAB"),
    }
    for label, dut in duts.items():
        values, sims = prim.evaluate(dut)
        golden = _GOLDEN[backend][name][label]
        assert {k: float(v).hex() for k, v in values.items()} == golden["values"]
        assert sims == golden["simulations"]


# -- property: shuffled selection sweeps, batched vs serial --------------


def _assert_stack_widths(serial: dict, stacked: dict) -> None:
    """Every DC Newton and AC sweep stack at width 1 held one circuit;
    at width 8 the stacks of each held more than one on average (see
    the ``stack_width`` fixture's records)."""
    for kind in ("dc", "ac"):
        assert serial[kind] and set(serial[kind]) == {1}
        assert sum(stacked[kind]) > len(stacked[kind])


@pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
def test_shuffled_selection_batch_matches_serial(shuffle_seed, stack_width):
    prim = _fresh_dp()
    variants = prim.variants()
    random.Random(shuffle_seed).shuffle(variants)

    def run(width):
        from repro.core.selection import evaluate_options

        stacks = stack_width(width)
        runtime = EvalRuntime()
        options = evaluate_options(
            _fresh_dp(), variants=variants, runtime=runtime
        )
        return runtime, options, stacks

    serial_rt, serial, serial_stacks = run(1)
    batch_rt, batched, batch_stacks = run(BATCH)
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
    # The fast path actually engaged — this is not serial-vs-serial:
    # every width-1 stack had one member, and width 8 stacked several.
    _assert_stack_widths(serial_stacks, batch_stacks)


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


def _width_invariant_under(spec, seed, run_dir, stack_width, make, optimize):
    """Run ``optimize(make(), run_dir)`` under ``spec`` at widths 1 and
    8; assert every observable matches and that width 8 really stacked
    (width 1 runs one-member stacks).
    Returns the width-1 injector."""
    runs = []
    for width in (1, BATCH):
        stacks = stack_width(width)
        with inject(spec, seed=seed) as injector:
            primitive = make()
            report = optimize(primitive, run_dir / str(width))
        journal = (run_dir / str(width) / f"{primitive.name}.jsonl").read_bytes()
        runs.append((report, injector, journal, stacks))
    (serial, serial_injector, serial_journal, serial_stacks) = runs[0]
    (stacked, stacked_injector, stacked_journal, stacked_stacks) = runs[1]
    assert _fingerprint(stacked) == _fingerprint(serial)
    assert stacked.failures.to_dict() == serial.failures.to_dict()
    assert stacked_journal == serial_journal
    assert stacked_injector.counters == serial_injector.counters
    assert stacked_injector.fired == serial_injector.fired
    _assert_stack_widths(serial_stacks, stacked_stacks)
    return serial_injector


_FAULT_SPECS = {
    "dc": FaultSpec(dc_fail_rate=0.3),
    "singular": FaultSpec(singular_rate=0.3),
    "bad_metric": FaultSpec(bad_metric_rate=0.3),
    "recovering": FaultSpec(
        dc_fail_rate=0.2, bad_metric_rate=0.2, recover_on_retry=True
    ),
}


@pytest.mark.parametrize("spec", _FAULT_SPECS.values(), ids=_FAULT_SPECS)
def test_batched_report_identical_under_faults(
    spec, fault_seed, stack_width, tmp_path
):
    # Members a fault would hit on their first attempt are screened off
    # to be evaluated alone at consumption; the rest stack.  Nothing
    # observable moves.
    injector = _width_invariant_under(
        spec,
        fault_seed,
        tmp_path,
        stack_width,
        _fresh_dp,
        lambda primitive, run_dir: _optimizer(run_dir=run_dir).optimize(
            primitive
        ),
    )
    assert injector.fired  # the faults really fired


def test_batched_report_identical_under_transient_faults(
    fault_seed, stack_width, tmp_path
):
    # CONV-TRAN trips in the delay metric, which runs serially inside
    # the stacked evaluation — where injection must be suspended.
    _width_invariant_under(
        FaultSpec(tran_fail_rate=0.3),
        fault_seed,
        tmp_path,
        stack_width,
        lambda: PrimitiveLibrary().create(
            "current_starved_inverter", Technology.default(), base_fins=16
        ),
        lambda primitive, run_dir: PrimitiveOptimizer(
            n_bins=1, retries=2, run_dir=run_dir
        ).optimize(primitive, tune=False),
    )


def _port_and_reconcile_sweep(width, spec, seed, run_dir, stack_width):
    """Algorithm 2's re-simulations of two DP ports at ``width``: each
    port's sweep, then one reconcile gap batch (two unexplored counts
    and one the sweep explored, a content-cache hit, per port)."""
    from repro.core.port_constraints import (
        GlobalRouteInfo,
        derive_port_constraint,
        route_point_task,
    )
    from repro.runtime import SweepJournal

    stacks = stack_width(width)
    routes = [
        GlobalRouteInfo(
            net="outp", layer="M3", length_nm=2000.0, symmetric_with=("outn",)
        ),
        GlobalRouteInfo(net="tail", layer="M2", length_nm=800.0),
    ]
    with inject(spec, seed=seed) as injector:
        prim = _fresh_dp()
        dut = prim.layout_circuit(prim.variants()[0], "ABAB")
        journal = SweepJournal(run_dir / str(width) / "ports.jsonl")
        runtime = EvalRuntime(retries=2, journal=journal)
        constraints = [
            derive_port_constraint(prim, dut, route, max_wires=6, runtime=runtime)
            for route in routes
        ]
        batch = runtime.evaluate_batch(
            [
                route_point_task(prim, dut, route, n, key_prefix="recon")
                for route in routes
                for n in (7, 8, 2)
            ],
            stage="reconcile",
        )
        recon = [batch.consume(i) for i in range(len(batch))]
        journal.close()
    return {
        "constraints": [
            (c.w_min, c.w_max, [(p.wires, p.cost, p.values) for p in c.sweep], sims)
            for c, sims in constraints
        ],
        "recon": recon,
        "journal": (run_dir / str(width) / "ports.jsonl").read_bytes(),
        "failures": runtime.failures.to_dict(),
        "cache": runtime.cache.stats,
        "faults": (injector.counters, injector.fired),
        "stacks": stacks,
    }


@pytest.mark.parametrize("spec", _FAULT_SPECS.values(), ids=_FAULT_SPECS)
def test_port_and_reconcile_sweeps_stack_identically(
    spec, fault_seed, stack_width, tmp_path
):
    # The port sweep and the reconcile re-simulations stack like the
    # selection and tuning sweeps, and nothing observable moves.
    serial = _port_and_reconcile_sweep(1, spec, fault_seed, tmp_path, stack_width)
    stacked = _port_and_reconcile_sweep(
        BATCH, spec, fault_seed, tmp_path, stack_width
    )
    assert serial["faults"][1]  # the faults really fired
    stacks = (serial.pop("stacks"), stacked.pop("stacks"))
    assert stacked == serial
    _assert_stack_widths(*stacks)


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


class _EchoCircuit:
    """Netlist stand-in holding one value; content-keyable like a
    :class:`~repro.spice.netlist.Circuit`."""

    ports = ()

    def __init__(self, value):
        self.elements = [value]


class _StackedStub:
    """Primitive stand-in whose stacked evaluation echoes each circuit's
    value.  ``tech`` and ``metrics()`` are what its content key reads."""

    tech = None

    def __init__(self):
        self.stacks = []

    def metrics(self):
        return []

    def evaluate_many(self, circuits):
        values = [circuit.elements[0] for circuit in circuits]
        self.stacks.append(values)
        return [({"v": value}, 1) for value in values]

    def evaluate(self, circuit):
        (outcome,) = self.evaluate_many([circuit])
        return outcome


def _echo_spec(primitive, value):
    return BatchSpec(
        primitive=primitive,
        build=lambda: (_EchoCircuit(value), None),
        finish=lambda site, values, sims, key: values["v"],
    )


def _echo_tasks(primitive):
    """Two echo tasks around one whose build raises a LayoutError."""
    return [
        BatchTask(key="ok", spec=_echo_spec(primitive, 1.0)),
        BatchTask(
            key="bad",
            spec=BatchSpec(
                primitive=primitive, build=_layout_error, finish=_layout_error
            ),
        ),
        BatchTask(key="ok2", spec=_echo_spec(primitive, 2.0)),
    ]


def test_layout_error_propagates_at_consume(monkeypatch):
    # A lazy batch builds every task at consumption, so the LayoutError
    # is raised there, between its siblings' one-member evaluations.
    monkeypatch.setattr(engine, "STACK_WIDTH", 1)
    primitive = _StackedStub()
    runtime = EvalRuntime()
    batch = runtime.evaluate_batch(_echo_tasks(primitive), stage="spec")
    assert type(batch) is EvalBatch
    assert primitive.stacks == []
    _assert_layout_error_propagates(runtime, batch)
    assert primitive.stacks == [[1.0], [2.0]]


def test_stacked_build_layout_error_propagates_at_consume():
    primitive = _StackedStub()
    runtime = EvalRuntime()
    batch = runtime.evaluate_batch(_echo_tasks(primitive), stage="spec")
    assert type(batch) is EvalBatch
    # The members whose build succeeded ran as one stack.
    assert primitive.stacks == [[1.0, 2.0]]
    _assert_layout_error_propagates(runtime, batch)


def test_unmaterialized_hit_looks_up_once_at_any_width(monkeypatch):
    # Two tasks of one content whose metric is NaN: the first result is
    # never stored, so the second task's predicted cache hit does not
    # come true at width 8.  Each consumed attempt still makes one
    # lookup, so nothing of the cache's accounting depends on the width.
    def run(width):
        monkeypatch.setattr(engine, "STACK_WIDTH", width)
        primitive = _StackedStub()
        runtime = EvalRuntime(retries=0)
        tasks = [
            BatchTask(
                key=key,
                spec=_echo_spec(primitive, math.nan),
                validate=lambda v: "non-finite" if math.isnan(v) else None,
            )
            for key in ("a", "b")
        ]
        batch = runtime.evaluate_batch(tasks, stage="spec")
        results = [batch.consume(i) for i in range(len(batch))]
        return results, runtime.failures.to_dict(), runtime.cache.stats

    serial, stacked = run(1), run(BATCH)
    assert stacked == serial
    assert serial[0] == [None, None]
    assert serial[2] == CacheStats(lookups=2, misses=2)
