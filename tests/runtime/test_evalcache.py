"""Content-addressed evaluation cache.

ISSUE acceptance: evaluating the same circuit content twice hits the
cache (0 simulations), while any sizing (nfin/nf/m), pattern or wire
change produces a different content key and misses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PrimitiveOptimizer, Technology
from repro.cellgen.generator import WireConfig
from repro.devices.mosfet import MosGeometry
from repro.primitives import DifferentialPair, PrimitiveLibrary
from repro.core.selection import evaluate_option
from repro.runtime import EvalCache, analysis_signature
from repro.runtime import evalcache
from repro.runtime.faults import FaultSpec, inject
from repro.spice import Circuit
from repro.spice.waveforms import Pulse, Pwl


@pytest.fixture(scope="module")
def prim():
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=8, name="ec_dp")


def _circuit(prim, geom=MosGeometry(8, 4, 3), pattern="ABAB", wires=None):
    wires = wires or WireConfig()
    layout = prim.generate(geom, pattern, wires, verify=False)
    return prim.extract(layout, geom).build_circuit()


# -- key stability -------------------------------------------------------


def test_same_content_same_key(prim):
    cache = EvalCache()
    # Two independent generate/extract passes over identical inputs.
    a = cache.key_for(prim, _circuit(prim))
    b = cache.key_for(prim, _circuit(prim))
    assert a == b


def test_any_sizing_change_changes_key(prim):
    cache = EvalCache()
    base = cache.key_for(prim, _circuit(prim, MosGeometry(8, 4, 3)))
    variants = [
        _circuit(prim, MosGeometry(4, 4, 3)),  # nfin
        _circuit(prim, MosGeometry(8, 2, 3)),  # nf
        _circuit(prim, MosGeometry(8, 4, 1)),  # m
        _circuit(prim, pattern="AABB"),  # pattern
        _circuit(prim, wires=WireConfig().with_straps("tail", 2)),  # wires
    ]
    keys = [cache.key_for(prim, c) for c in variants]
    assert base not in keys
    assert len(set(keys)) == len(keys)


def test_instance_name_excluded_from_key(prim):
    from repro.primitives import DifferentialPair

    other = DifferentialPair(Technology.default(), base_fins=8, name="ec_dp2")
    assert analysis_signature(prim) == analysis_signature(other)
    cache = EvalCache()
    assert cache.key_for(prim, _circuit(prim)) == cache.key_for(
        other, _circuit(other)
    )


def test_weight_override_changes_key(prim):
    cache = EvalCache()
    circuit = _circuit(prim)
    plain = cache.key_for(prim, circuit)
    weighted = cache.key_for(prim, circuit, weight_override={"gm": 2.0})
    assert plain != weighted


def test_simulator_revision_changes_key(prim, monkeypatch):
    cache = EvalCache()
    circuit = _circuit(prim)
    current = cache.key_for(prim, circuit)
    monkeypatch.setattr(
        evalcache, "SIMULATOR_REVISION", evalcache.SIMULATOR_REVISION + 1
    )
    assert cache.key_for(prim, circuit) != current


# -- hit/miss semantics --------------------------------------------------


# Golden keys: a resumed run primes its cache from journaled content
# keys, so a canonicalization change that moves key bytes would silently
# stop old run dirs from hitting.  Moving them takes a SIMULATOR_REVISION
# bump and new goldens.


def test_golden_key_differential_pair_option():
    dp = DifferentialPair(Technology.default(), base_fins=48, name="pin_dp")
    circuit = dp.layout_circuit(MosGeometry(4, 4, 3), "ABAB")
    assert EvalCache().key_for(dp, circuit) == (
        "df79a7b5d45b73e35c68e2f8f1735d681780b8f1662111ffc521d5a5cd463011"
    )


def test_golden_key_current_mirror_option():
    tech = Technology.default()
    mirror = PrimitiveLibrary().create("current_mirror", tech, base_fins=16)
    circuit = mirror.layout_circuit(MosGeometry(4, 2, 2), "ABBA")
    assert EvalCache().key_for(mirror, circuit) == (
        "ef912f3adaf70259b2f3191ae0a8c668403a348a31238e1af84ecf966b0300d1"
    )


def test_golden_key_float_subclass_and_shared_card():
    # An np.float64 value keeps its own repr; the model card, geometry
    # and LDE context three devices share serialize as often as they
    # appear; waveforms nest dataclass and tuple fields.
    tech = Technology.default()
    c = Circuit("shared")
    c.add_vsource("vdd", "vdd", "0", Pwl(((0.0, 0.0), (1e-9, 0.8))))
    c.add_isource(
        "ib", "vdd", "d1", Pulse(0.0, 1e-5, 0.0, 1e-11, 1e-11, 1e-9, 2e-9)
    )
    c.add_resistor("r1", "d1", "d2", np.float64(1234.5))
    c.add_capacitor("c1", "d2", "0", 1e-15)
    geometry = MosGeometry(4, 2, 1)
    for k in range(3):
        c.add_mosfet(f"m{k}", "d2", "d1", "0", "0", tech.nmos, geometry)
    key = evalcache.content_key(c, {"probe": np.float64(0.5)}, {"gain": 1.0})
    assert key == (
        "99392542c51fa93326b7e51d4282feeb815a4f292944d24d2d4935e74c0050b7"
    )
    netlist = evalcache.canonical_netlist(c)
    assert netlist[1][2][1]["value"] == "f:np.float64(1234.5)"
    cards = [element[1]["card"] for element in netlist[1][4:]]
    assert cards[0] == evalcache._canon(tech.nmos) and len(cards) == 3


def test_repeat_evaluation_hits_and_skips_simulation(prim):
    cache = EvalCache()
    first = evaluate_option(prim, MosGeometry(8, 4, 3), "ABAB", cache=cache)
    assert first.simulations > 0
    again = evaluate_option(prim, MosGeometry(8, 4, 3), "ABAB", cache=cache)
    assert again.simulations == 0
    assert again.cache_key == first.cache_key
    assert again.values == first.values
    assert cache.stats.hits == 1
    assert cache.stats.stored == 1


def test_value_affecting_injector_bypasses_cache(prim):
    cache = EvalCache()
    # A value-affecting injector bypasses: injected faults key on
    # evaluation keys, so content hits would change which faults fire.
    assert FaultSpec(bad_metric_rate=0.1).affects_values
    assert not FaultSpec().affects_values
    with inject(FaultSpec(dc_fail_rate=1e-9)):
        option = evaluate_option(prim, MosGeometry(8, 4, 3), "ABAB", cache=cache)
    assert option.simulations > 0
    assert option.cache_key is None
    assert len(cache) == 0
    assert cache.stats.stored == 0


def test_non_finite_values_never_stored():
    cache = EvalCache()
    cache.put("k", {"gm": float("nan"), "area": 1.0}, 3)
    cache.put("k2", {"gm": float("inf")}, 1)
    assert len(cache) == 0
    assert cache.get("k") is None
    assert cache.stats.stored == 0


def test_lru_eviction(monkeypatch):
    monkeypatch.setattr(evalcache, "MAXSIZE", 2)
    cache = EvalCache()
    cache.put("a", {"x": 1.0}, 1)
    cache.put("b", {"x": 2.0}, 1)
    assert cache.get("a") is not None  # refresh "a": now "b" is LRU
    cache.put("c", {"x": 3.0}, 1)
    assert cache.stats.evicted == 1
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert cache.get("c") is not None
    # Every get is one lookup and exactly one hit or miss; a
    # containment peek is not a lookup.
    assert "a" in cache
    stats = cache.stats
    assert (stats.lookups, stats.hits, stats.misses) == (4, 3, 1)


# -- end-to-end through the optimizer ------------------------------------


def test_shared_cache_collapses_repeat_optimizations(monkeypatch):
    from repro.primitives import DifferentialPair

    def fresh():
        return DifferentialPair(Technology.default(), base_fins=8, name="ec_opt")

    def optimizer(cache=None):
        return PrimitiveOptimizer(n_bins=2, max_wires=3, cache=cache)

    # The uncached reference: a cache that stores nothing never hits.
    with monkeypatch.context() as patch:
        patch.setattr(EvalCache, "put", lambda *args: None)
        baseline = optimizer().optimize(fresh())
    assert baseline.cache_stats["hits"] == 0
    cache = EvalCache()
    first = optimizer(cache).optimize(fresh())
    second = optimizer(cache).optimize(fresh())

    # Caching never changes results, only the simulation bill.
    assert first.best.cost == baseline.best.cost
    assert second.best.cost == baseline.best.cost
    # Within one run the tuning sweep re-builds the untuned selection
    # point, so even the first cached run saves simulations ...
    assert first.total_simulations < baseline.total_simulations
    # ... and a repeat run over a warm cache simulates nothing.
    assert second.total_simulations == 0
    assert second.cache_stats["hits"] > 0


def test_flow_results_identical_with_and_without_cache(monkeypatch):
    # The cache only changes how many evaluations reach the simulator
    # (counted at the primitive's serial and stacked entry points), never
    # what the flow chooses, across selection, tuning, ports and
    # reconciliation.
    from repro.circuits import CommonSourceAmpCircuit
    from repro.flow import HierarchicalFlow
    from repro.primitives import MosPrimitive

    tech = Technology.default()
    simulated = []
    evaluate, evaluate_many = MosPrimitive.evaluate, MosPrimitive.evaluate_many

    def counting(self, dut):
        values, sims = evaluate(self, dut)
        simulated.append(sims)
        return values, sims

    def counting_many(self, duts):
        outcomes = evaluate_many(self, duts)
        simulated.extend(o[1] for o in outcomes if o is not None)
        return outcomes

    monkeypatch.setattr(MosPrimitive, "evaluate", counting)
    monkeypatch.setattr(MosPrimitive, "evaluate_many", counting_many)

    def run():
        simulated.clear()
        flow = HierarchicalFlow(
            tech, n_bins=1, max_wires=3, placer_iterations=100, verify=False
        )
        circuit = CommonSourceAmpCircuit(tech, stage_fins=24, load_fins=24)
        result = flow.run(circuit, measure=False)
        fingerprint = (
            {name: (c.base, c.pattern, c.wires) for name, c in result.choices.items()},
            {name: r.best.cost for name, r in result.reports.items()},
            {net: r.wires for net, r in result.reconciled.items()},
        )
        return fingerprint, sum(simulated), flow.cache.stats

    with monkeypatch.context() as patch:
        patch.setattr(EvalCache, "put", lambda *args: None)
        uncached, uncached_sims, uncached_stats = run()
    cached, cached_sims, stats = run()

    assert uncached_stats.hits == 0
    assert cached == uncached
    assert stats.hits > 0
    assert cached_sims < uncached_sims
