"""Chaos harness: torn files, full disks and a shared cache directory.

A run whose journal tail is torn and whose cache entry is corrupted
still resumes to a final report byte-identical to the clean run's; a
full disk downgrades the cache to memory-only with identical results;
and two concurrent processes sharing one ``--cache-dir`` finish with
zero torn entries and the size cap enforced.

Every scenario is deterministic; the seed matrix picks which cache
entry the torn-file scenario corrupts, and ``make chaos`` runs
this file under ``REPRO_FAULT_SEEDS=0,1,2,3``.  Set
``REPRO_CHAOS_ARTIFACTS`` to a directory to keep each scenario's run
dir (journals, evalcache) for post-mortem — CI uploads them on failure.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro import PrimitiveOptimizer, Technology
from repro.runtime import EvalCache, RetryPolicy
from repro.runtime.evalcache import payload_checksum


@pytest.fixture
def chaos_dir(tmp_path, request):
    """Scratch dir for a chaos scenario's run state.

    Honors ``REPRO_CHAOS_ARTIFACTS``: when set, run dirs land under it
    (named per test) and survive the run, so CI can upload journals and
    cache state of a failing scenario as artifacts.
    """
    root = os.environ.get("REPRO_CHAOS_ARTIFACTS")
    if not root:
        return tmp_path
    keep = Path(root) / request.node.name.replace("/", "_")
    keep.mkdir(parents=True, exist_ok=True)
    return keep


def _fresh_dp():
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=8, name="ch_dp")


def _optimizer(run_dir=None, resume=False, **cache_kwargs):
    return PrimitiveOptimizer(
        n_bins=2,
        max_wires=3,
        policy=RetryPolicy(max_retries=2),
        run_dir=run_dir,
        resume=resume,
        **cache_kwargs,
    )


def _fingerprint(report) -> tuple:
    """Everything the determinism contract covers (downgrade-ledger
    entries excluded: they record *how* the run survived, not what it
    computed)."""
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


# -- torn journal + corrupt cache entry ----------------------------------


def test_torn_journal_and_corrupt_cache_resume_matches_clean(
    chaos_dir, fault_seed
):
    baseline = _optimizer().optimize(_fresh_dp())

    run_dir = chaos_dir / "run"
    first = _optimizer(run_dir=run_dir).optimize(_fresh_dp())
    assert _fingerprint(first) == _fingerprint(baseline)

    # Crash artifacts: a torn journal tail and a bit-flipped cache entry
    # (the seed picks the entry).
    journal = run_dir / "ch_dp.jsonl"
    with journal.open("ab") as handle:
        handle.write(b'{"key": "in-flight", "sta')
    entries = sorted((run_dir / "evalcache").glob("*.json"))
    victim = entries[fault_seed % len(entries)]
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    victim.write_bytes(bytes(raw))

    resumed = _optimizer(run_dir=run_dir, resume=True).optimize(_fresh_dp())

    assert _fingerprint(resumed) == _fingerprint(baseline)
    # The truncated journal is clean JSONL end-to-end again.
    for line in journal.read_text().splitlines():
        json.loads(line)


# -- full disk -----------------------------------------------------------


def test_enospc_downgrades_cache_to_memory_only(tmp_path, monkeypatch):
    import errno

    baseline = _optimizer().optimize(_fresh_dp())

    cache_dir = tmp_path / "evalcache"
    real = Path.write_text

    def enospc(self, *args, **kwargs):
        if str(self).startswith(str(cache_dir)):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", enospc)
    report = _optimizer(cache_dir=cache_dir).optimize(_fresh_dp())

    # Same results from the memory tier, plus a single downgrade entry.
    assert _fingerprint(report) == _fingerprint(baseline)
    assert len(report.failures.downgrades) == 1
    assert "No space left" in report.failures.downgrades[0]


# -- concurrent processes sharing one --cache-dir ------------------------


def _hammer(shared_dir, cap, proc_seed, queue):
    """One competitor process: mixed put/get traffic on the shared dir."""
    cache = EvalCache(disk_dir=shared_dir, max_disk_bytes=cap)
    puts = gets = 0
    for i in range(40):
        key = f"k{(i + proc_seed * 7) % 25:02d}"
        if i % 3 == proc_seed % 3:
            hit = cache.get(key)
            gets += 1
            assert hit is None or set(hit["values"]) == {"gm", "pad"}
        else:
            cache.put(key, {"gm": float(i), "pad": float(proc_seed)}, 1)
            puts += 1
    queue.put(
        {
            "puts": puts,
            "gets": gets,
            "stats": cache.stats.to_dict(),
            "downgrade": cache.downgrade_reason,
        }
    )


def _check_shared_stats(results):
    """Stats sum correctly: every lookup is a hit or a miss, and stores
    never exceed (repeat-key-deduplicated) puts."""
    for r in results:
        stats = r["stats"]
        assert stats["hits"] + stats["misses"] == r["gets"]
        assert 0 < stats["stored"] <= r["puts"]
        assert stats["corrupt"] == 0


def test_concurrent_processes_share_cache_dir(tmp_path):
    shared = tmp_path / "shared-cache"
    cap = 2048
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_hammer, args=(shared, cap, seed, queue))
        for seed in (1, 2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
    results = [queue.get(timeout=10) for _ in procs]
    assert all(p.exitcode == 0 for p in procs)

    # Neither process was forced off the disk tier.
    assert all(r["downgrade"] is None for r in results)
    _check_shared_stats(results)

    # Zero torn entries: every surviving file parses and passes its
    # checksum; no tmp litter; nothing was quarantined.
    for entry in shared.glob("*.json"):
        data = json.loads(entry.read_text())
        values = {str(k): float(v) for k, v in data["values"].items()}
        assert data["checksum"] == payload_checksum(
            values, int(data["simulations"])
        )
    assert not list(shared.glob("*.tmp"))
    quarantine = shared / "quarantine"
    assert not quarantine.exists() or not list(quarantine.glob("*"))

    # The size cap holds once the last writer's eviction pass settles.
    final = EvalCache(disk_dir=shared, max_disk_bytes=cap)
    final._evict_disk()
    total = sum(p.stat().st_size for p in shared.glob("*.json"))
    assert total <= cap
