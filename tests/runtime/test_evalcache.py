"""Content-addressed evaluation cache.

ISSUE acceptance: evaluating the same circuit content twice hits the
cache (0 simulations), while any sizing (nfin/nf/m), pattern or wire
change produces a different content key and misses.
"""

from __future__ import annotations

import json

import pytest

from repro import PrimitiveOptimizer, Technology
from repro.cellgen.generator import WireConfig
from repro.devices.mosfet import MosGeometry
from repro.runtime import EvalCache, analysis_signature, evaluate_circuit_cached
from repro.runtime import evalcache
from repro.runtime.faults import FaultSpec, inject


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


def test_repeat_evaluation_hits_and_skips_simulation(prim):
    cache = EvalCache()
    values1, sims1, key1 = evaluate_circuit_cached(prim, _circuit(prim), cache)
    assert sims1 > 0
    values2, sims2, key2 = evaluate_circuit_cached(prim, _circuit(prim), cache)
    assert sims2 == 0
    assert key1 == key2
    assert values2 == values1
    assert cache.stats.hits == 1
    assert cache.stats.stored == 1


def test_value_affecting_injector_bypasses_cache(prim):
    cache = EvalCache()
    # A value-affecting injector bypasses: injected faults key on
    # evaluation keys, so content hits would change which faults fire.
    assert FaultSpec(bad_metric_rate=0.1).affects_values
    assert not FaultSpec().affects_values
    with inject(FaultSpec(dc_fail_rate=1e-9)):
        values, sims, key = evaluate_circuit_cached(prim, _circuit(prim), cache)
    assert sims > 0
    assert key is None
    assert len(cache) == 0
    assert cache.stats.stored == 0


def test_non_finite_values_never_stored():
    cache = EvalCache()
    cache.put("k", {"gm": float("nan"), "area": 1.0}, 3)
    cache.put("k2", {"gm": float("inf")}, 1)
    assert len(cache) == 0
    assert cache.get("k") is None
    assert cache.stats.stored == 0


def test_lru_eviction():
    cache = EvalCache(maxsize=2)
    cache.put("a", {"x": 1.0}, 1)
    cache.put("b", {"x": 2.0}, 1)
    assert cache.get("a") is not None  # refresh "a": now "b" is LRU
    cache.put("c", {"x": 3.0}, 1)
    assert cache.stats.evicted == 1
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert cache.get("c") is not None


# -- disk tier -----------------------------------------------------------


def test_disk_tier_survives_process_boundary(tmp_path):
    first = EvalCache(disk_dir=tmp_path)
    first.put("k", {"gm": 1.5}, 4)
    # A fresh cache (new "process") over the same directory.
    second = EvalCache(disk_dir=tmp_path)
    hit = second.get("k")
    assert hit == {"values": {"gm": 1.5}, "simulations": 4}
    assert second.stats.disk_hits == 1
    # The promotion landed in the memory tier.
    assert len(second) == 1


def test_torn_disk_write_treated_as_miss(tmp_path):
    (tmp_path / "bad.json").write_text("{\"values\": {\"gm\":")
    (tmp_path / "shape.json").write_text(json.dumps({"nope": 1}))
    cache = EvalCache(disk_dir=tmp_path)
    assert cache.get("bad") is None
    assert cache.get("shape") is None
    assert cache.stats.hits == 0


# -- disk-tier durability ------------------------------------------------


def test_disk_dir_created_once_in_init(tmp_path):
    target = tmp_path / "nested" / "evalcache"
    cache = EvalCache(disk_dir=target)
    assert target.is_dir()  # created eagerly, not on every put
    cache.put("k", {"gm": 1.0}, 1)
    assert (target / "k.json").exists()


def test_entries_are_checksummed_and_corruption_quarantined(tmp_path):
    first = EvalCache(disk_dir=tmp_path)
    first.put("k", {"gm": 1.5, "area": 2.0}, 4)
    entry = tmp_path / "k.json"
    raw = bytearray(entry.read_bytes())
    raw[raw.index(b"1.5") + 1] = ord("7")  # bit-flip a metric value
    entry.write_bytes(bytes(raw))

    second = EvalCache(disk_dir=tmp_path)
    # __contains__ must not report what the checksum pass would reject.
    assert "k" not in second
    assert second.get("k") is None
    assert second.stats.corrupt == 1
    assert not entry.exists()  # moved aside, not served and not left
    assert (tmp_path / "quarantine" / "k.json").exists()


def test_non_utf8_corruption_quarantined(tmp_path):
    first = EvalCache(disk_dir=tmp_path)
    first.put("k", {"gm": 1.5}, 4)
    entry = tmp_path / "k.json"
    raw = bytearray(entry.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # no longer valid UTF-8
    entry.write_bytes(bytes(raw))

    second = EvalCache(disk_dir=tmp_path)
    assert second.get("k") is None
    assert second.stats.corrupt == 1
    assert (tmp_path / "quarantine" / "k.json").exists()


def test_stats_lookup_invariant_counts_corrupt_once(tmp_path):
    writer = EvalCache(disk_dir=tmp_path)
    writer.put("good", {"gm": 1.5}, 1)
    writer.put("bad", {"gm": 2.0}, 1)
    entry = tmp_path / "bad.json"
    raw = bytearray(entry.read_bytes())
    raw[raw.index(b"2.0") + 1] = ord("9")  # bit-flip a metric value
    entry.write_bytes(bytes(raw))

    cache = EvalCache(disk_dir=tmp_path)
    assert cache.get("absent") is None  # plain miss
    assert cache.get("good") is not None  # disk hit (promotes)
    assert cache.get("good") is not None  # memory hit
    assert cache.get("bad") is None  # corrupt: quarantined, ONE miss
    stats = cache.stats
    assert stats.lookups == 4
    assert stats.hits == 2
    assert stats.misses == 2
    assert stats.corrupt == 1
    assert stats.hits + stats.misses == stats.lookups
    # A containment peek is not a lookup and takes no statistics.
    assert "good" in cache
    assert stats.lookups == 4
    assert stats.hits + stats.misses == stats.lookups


def test_pre_checksum_entries_are_quarantined(tmp_path):
    # Entries from the pre-checksum format carry no checksum field.
    (tmp_path / "old.json").write_text(
        json.dumps({"values": {"gm": 1.0}, "simulations": 2})
    )
    cache = EvalCache(disk_dir=tmp_path)
    assert cache.get("old") is None
    assert cache.stats.corrupt == 1


def test_concurrent_writers_use_distinct_tmp_names(tmp_path):
    a = EvalCache(disk_dir=tmp_path)
    b = EvalCache(disk_dir=tmp_path)
    a.put("k", {"gm": 1.0}, 1)
    b.put("k", {"gm": 1.0}, 1)
    b.put("j", {"gm": 2.0}, 1)
    assert not list(tmp_path.glob("*.tmp"))  # no leftovers either way
    fresh = EvalCache(disk_dir=tmp_path)
    assert fresh.get("k") is not None
    assert fresh.get("j") is not None
    assert fresh.stats.corrupt == 0


def test_unwritable_disk_dir_downgrades_to_memory_only(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a *file* where the cache dir should go
    cache = EvalCache(disk_dir=blocker / "sub")
    assert cache.disk_dir is None
    assert cache.downgrade_reason is not None
    assert "memory-only" in cache.downgrade_reason
    # The memory tier still works.
    cache.put("k", {"gm": 1.0}, 1)
    assert cache.get("k") is not None


def test_write_failure_downgrades_to_memory_only(tmp_path, monkeypatch):
    import errno
    from pathlib import Path

    cache = EvalCache(disk_dir=tmp_path)
    real = Path.write_text

    def enospc(self, *args, **kwargs):
        if str(self).startswith(str(tmp_path)):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", enospc)
    cache.put("k", {"gm": 1.0}, 1)  # must absorb, not raise
    assert cache.disk_dir is None
    assert "No space left" in cache.downgrade_reason
    assert cache.get("k") is not None  # memory tier unaffected
    cache.put("j", {"gm": 2.0}, 1)  # further puts stay memory-only


def test_disk_size_cap_evicts_stalest_entries(tmp_path):
    import time as _time

    cache = EvalCache(disk_dir=tmp_path, max_disk_bytes=600)
    for i in range(8):
        cache.put(f"k{i}", {"gm": float(i), "pad": 1.0}, 1)
        _time.sleep(0.01)  # distinct mtimes -> deterministic LRU order
    total = sum(p.stat().st_size for p in tmp_path.glob("*.json"))
    assert total <= 600
    assert cache.stats.disk_evicted > 0
    # The newest entries survive; the stalest were deleted.
    assert (tmp_path / "k7.json").exists()
    assert not (tmp_path / "k0.json").exists()


# -- end-to-end through the optimizer ------------------------------------


def test_shared_cache_collapses_repeat_optimizations():
    from repro.primitives import DifferentialPair

    def fresh():
        return DifferentialPair(Technology.default(), base_fins=8, name="ec_opt")

    def optimizer(cache):
        return PrimitiveOptimizer(n_bins=2, max_wires=3, cache=cache)

    baseline = optimizer(cache=False).optimize(fresh())
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
