"""Fault injection: every failure code's degradation path, end to end.

The injector is keyed-deterministic, so each test pins a seed and the
assertions are exact — ``make faults`` re-runs the whole module under the
``REPRO_FAULT_SEEDS`` matrix via the ``fault_seed`` fixture.
"""

from __future__ import annotations

import pytest

from repro import PrimitiveLibrary, PrimitiveOptimizer, Technology
from repro.core.tuning import tune_option
from repro.errors import OptimizationError
from repro.primitives.base import MosPrimitive
from repro.runtime import (
    BAD_METRIC,
    CONV_DC,
    CONV_TRAN,
    SINGULAR_MNA,
    EvalRuntime,
)
from repro.runtime import policy as policy_module
from repro.runtime.faults import FaultSpec, inject


def _optimize(primitive, retries=2, **kwargs):
    optimizer = PrimitiveOptimizer(n_bins=1, max_wires=2, retries=retries)
    return optimizer.optimize(primitive, **kwargs)


def test_no_injector_means_no_failures(small_primitive):
    report = _optimize(small_primitive, tune=False)
    assert report.options
    assert not report.failures


def test_conv_dc_absorbed_with_exact_accounting(small_primitive, fault_seed):
    with inject(FaultSpec(dc_fail_rate=0.4), seed=fault_seed) as injector:
        report = _optimize(small_primitive, tune=False)
    assert report.options
    assert len(report.failures) == sum(injector.counters.values())
    assert report.failures.count(code=CONV_DC) == injector.counters.get(
        CONV_DC, 0
    )
    assert all(f.injected for f in report.failures.failures)


def test_singular_mna_absorbed(small_primitive, fault_seed):
    with inject(FaultSpec(singular_rate=0.4), seed=fault_seed) as injector:
        report = _optimize(small_primitive, tune=False)
    assert report.options
    assert report.failures.count(code=SINGULAR_MNA) == injector.counters.get(
        SINGULAR_MNA, 0
    )


def test_conv_tran_absorbed(fault_seed):
    # The digital delay primitives are the transient users in the library.
    primitive = PrimitiveLibrary().create(
        "current_starved_inverter", Technology.default(), base_fins=8
    )
    with inject(FaultSpec(tran_fail_rate=0.5), seed=fault_seed) as injector:
        report = _optimize(primitive, tune=False)
    assert report.options
    assert report.failures.count(code=CONV_TRAN) == injector.counters.get(
        CONV_TRAN, 0
    )


def test_bad_metric_poisoning_absorbed(small_primitive, fault_seed):
    with inject(FaultSpec(bad_metric_rate=0.4), seed=fault_seed) as injector:
        report = _optimize(small_primitive, tune=False)
    assert report.options
    assert report.failures.count(code=BAD_METRIC) == injector.counters.get(
        BAD_METRIC, 0
    )
    # Poisoned options can never win: every surviving option is finite.
    assert all(o.cost == o.cost for o in report.options)


def test_retry_recovers_every_evaluation(small_primitive):
    # Every evaluation fails on attempt 0 and recovers on the retry: the
    # report is complete and the log shows one failure per evaluation.
    spec = FaultSpec(dc_fail_rate=1.0, recover_on_retry=True)
    with inject(spec, seed=0) as injector:
        report = _optimize(small_primitive, tune=False)
    assert report.options
    assert injector.counters[CONV_DC] == len(report.failures)
    assert all(f.attempt == 0 for f in report.failures.failures)
    assert report.failures.count(code=CONV_DC) > 0


def test_total_failure_raises_with_failure_log(small_primitive):
    # Every DC solve fails on every attempt: the schematic reference
    # cannot be evaluated, and the raise carries the log.
    with inject(FaultSpec(dc_fail_rate=1.0), seed=0):
        with pytest.raises(OptimizationError) as excinfo:
            _optimize(small_primitive, retries=1, tune=False)
    assert excinfo.value.failures is not None
    # The reference gets max(retries, 3) retries: 1 + 3 attempts.
    assert excinfo.value.failures.count(code=CONV_DC) == 4
    assert CONV_DC in str(excinfo.value)


def test_failed_tuning_keeps_untuned_option(small_primitive):
    # Tune with total injection: every tuning point fails, the terminal
    # sweeps degrade, and the selected (untuned) option survives.
    report = _optimize(small_primitive, tune=False)
    option = report.selected[0]
    runtime = EvalRuntime(retries=0)
    with inject(FaultSpec(dc_fail_rate=1.0), seed=0):
        result = tune_option(
            small_primitive, option, max_wires=2, runtime=runtime
        )
    assert result.option is option
    assert all(s.stopped_by == "failed" for s in result.sweeps)
    assert runtime.failures.count(code=CONV_DC) > 0


def test_degraded_stage_is_reported(small_primitive, monkeypatch):
    monkeypatch.setattr(policy_module, "STAGE_FAILURE_CEILING", 0.05)
    with inject(FaultSpec(dc_fail_rate=0.4), seed=1):
        report = _optimize(small_primitive, retries=0, tune=False)
    assert report.options
    assert "selection" in report.failures.degraded_stages
    assert "degraded" in report.failures.summary()


def test_acceptance_whole_library_under_30pct_dc_faults(fault_seed):
    """ISSUE acceptance: 30% DC-fault injection over every library
    primitive yields non-empty reports whose FailureLog accounts for
    exactly the injected failures."""
    tech = Technology.default()
    library = PrimitiveLibrary()
    checked = 0
    for name in library.names():
        try:
            primitive = library.create(name, tech, base_fins=8)
        except TypeError:
            continue  # passives take different constructor args
        if not isinstance(primitive, MosPrimitive):
            continue
        with inject(FaultSpec(dc_fail_rate=0.3), seed=fault_seed) as injector:
            report = _optimize(primitive, tune=False)
        assert report.options, f"{name}: no surviving options"
        assert len(report.failures) == sum(injector.counters.values()), (
            f"{name}: log does not match injector "
            f"({report.failures.summary()} vs {injector.counters})"
        )
        for code, count in injector.counters.items():
            assert report.failures.count(code=code) == count, name
        checked += 1
    assert checked >= 20  # the library's full MOS-primitive set
