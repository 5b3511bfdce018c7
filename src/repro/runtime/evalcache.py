"""Content-addressed evaluation cache.

Post-layout evaluations are pure functions of the flattened netlist and
the analysis that measures it: the simulator is deterministic, so two
evaluations of byte-identical (netlist, analysis, weight) triples return
identical metric values.  The optimization flow *re-builds* identical
netlists all the time — the first point of every tuning sweep regenerates
the untuned layout selection already scored, reconciliation re-simulates
wire counts the port sweeps explored, and repeated runs over ``--run-dir``
rebuild whole sweeps — so keying evaluations by content instead of by
stage collapses that duplicate simulation work.

The cache has two tiers:

* an in-memory LRU (:class:`EvalCache`), bounded by entry count, that
  serves repeats within one process, and
* an optional on-disk tier (one JSON file per key under
  ``<run_dir>/evalcache/`` or a shared ``--cache-dir``) that serves
  repeats across runs — e.g. the same circuit built twice, or a sweep
  re-run after a crash without a journal.

The disk tier is built to be shared by **concurrent processes** and to
survive crashes mid-write:

* writes are atomic ``tmp+rename`` with per-process tmp names, so two
  simultaneous runs racing on one key both land a complete file;
* every entry embeds a SHA-256 payload checksum; a corrupt entry
  (truncation, bit-flip, partial write from a pre-checksum version) is
  *quarantined* — moved to ``<dir>/quarantine/`` and treated as a miss
  — rather than served or crashed on;
* a size-accounted LRU eviction pass (``max_disk_bytes``, the CLI's
  ``--cache-max-mb``) deletes the stalest entries under an advisory
  ``flock`` so concurrent evictors never double-delete;
* any disk failure (``ENOSPC``, permissions, a directory that cannot be
  created) downgrades the cache to memory-only — recorded once on
  :attr:`EvalCache.downgrade_reason`, never raised.

Keys are SHA-256 hashes of a canonical serialization of (flattened
netlist, analysis signature, weight overrides, simulator revision); see
:func:`content_key`.
Instance *names* of circuits are excluded (wrapper circuits embed wire
counts in their names) but element names, nodes, model cards and every
numeric parameter participate, so any sizing (nfin/nf/m), pattern or wire
change produces a different key.

Two deliberate bypasses keep cached runs equivalent to uncached ones:

* **Fault injection** — injected faults are keyed on the *evaluation*
  key, not the content key, so a content hit could swallow a fault that
  the uncached run would see.  When a
  :class:`~repro.runtime.faults.FaultInjector` whose spec
  :attr:`~repro.runtime.faults.FaultSpec.affects_values` is active the
  cache is bypassed entirely; such fault-injected runs behave
  identically with and without a cache.
* **Non-finite results** — a poisoned evaluation (NaN metrics) is never
  stored: retries with perturbed guesses must re-simulate, not replay
  the poison.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

try:  # POSIX-only advisory locking; the cache degrades gracefully without.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro.runtime import faults, shutdown
from repro.spice.netlist import Circuit

#: Default in-memory LRU capacity (entries, not bytes: one entry is a
#: small dict of metric floats).
DEFAULT_MAXSIZE = 4096

#: Revision of the simulator's numerics, hashed into every content key.
#: Bump it whenever a change moves simulated values (stepping, device
#: model, solver), so that a shared disk cache written by an older
#: simulator is never served to a newer one.
SIMULATOR_REVISION = 2


def _canon(value):
    """Canonical JSON-able form of netlist values (order-stable)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__name__,
            {
                f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        ]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        # repr round-trips doubles exactly; formatting would alias
        # nearby values into one key.
        return f"f:{value!r}"
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return f"{type(value).__name__}:{value!r}"


def canonical_netlist(circuit: Circuit) -> list:
    """Order-stable, name-independent serialization of a flat netlist.

    The circuit's own name is excluded (wrapper circuits encode wire
    counts in their names; the wire count already shows up in the R/C
    values).  Element names, nodes and every electrical parameter are
    included in insertion order — netlist construction is deterministic,
    so insertion order is part of the content.
    """
    return [
        [list(circuit.ports)],
        [_canon(element) for element in circuit.elements],
    ]


def analysis_signature(primitive) -> dict:
    """What, besides the netlist, determines an evaluation's values.

    The metric testbenches wrap the DUT with bias sources built from the
    primitive's public scalar state (vcm/vout/i_tail/..., refreshed by
    bias calibration), so that state — plus the metric list and the
    technology's supply — is part of the cache key.  The primitive's
    *instance name* is excluded: two differently-named instances with
    identical state measure identically.
    """
    scalars = {
        k: _canon(v)
        for k, v in sorted(vars(primitive).items())
        if not k.startswith("_")
        and k != "name"
        and isinstance(v, (bool, int, float, str))
    }
    return {
        "class": type(primitive).__qualname__,
        "state": scalars,
        "metrics": [[m.name, _canon(m.weight)] for m in primitive.metrics()],
        "vdd": _canon(float(getattr(primitive.tech, "vdd", 0.0))),
    }


def content_key(
    circuit: Circuit,
    analysis: dict,
    weight_override: dict[str, float] | None = None,
) -> str:
    """SHA-256 content key of one (netlist, analysis, weights) triple
    under the current :data:`SIMULATOR_REVISION`."""
    document = {
        "netlist": canonical_netlist(circuit),
        "analysis": analysis,
        "weights": _canon(weight_override or {}),
        "simulator": SIMULATOR_REVISION,
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`EvalCache`.

    ``hits``/``stored`` are deterministic for a given logical run (they
    track the consumed evaluation sequence, which is identical for any
    stack width); ``misses`` additionally counts lookups whose evaluation
    later failed and is reported for diagnostics only.

    Every :meth:`EvalCache.get` call counts exactly one ``lookups`` and
    exactly one of ``hits``/``misses`` — a quarantined corrupt disk
    entry is one miss (plus one ``corrupt``), never double-counted — so
    ``hits + misses == lookups`` always holds.  Containment peeks
    (``key in cache``) take no statistics and are not lookups.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stored: int = 0
    evicted: int = 0
    #: Disk entries that failed their checksum and were quarantined.
    corrupt: int = 0
    #: Disk entries deleted by the size-cap eviction pass.
    disk_evicted: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class _Entry:
    values: dict[str, float]
    simulations: int


#: Bytes per ``--cache-max-mb`` unit.
MB = 1024 * 1024

#: Quarantine subdirectory for corrupt disk entries (excluded from
#: lookups and from the eviction size accounting).
QUARANTINE_DIR = "quarantine"


def payload_checksum(values: dict[str, float], simulations: int) -> str:
    """SHA-256 checksum of one disk entry's payload.

    Computed over a canonical JSON form (sorted keys, coerced types), so
    a read-back entry verifies iff its values and simulation count
    survived the disk byte-for-byte.
    """
    blob = json.dumps(
        {
            "simulations": int(simulations),
            "values": {str(k): float(v) for k, v in sorted(values.items())},
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class EvalCache:
    """Two-tier (memory LRU + optional disk) evaluation cache.

    The disk tier is crash-safe and shareable between concurrent
    processes (see the module docstring).  Any disk-tier failure — the
    directory cannot be created, a write hits ``ENOSPC`` or a permission
    wall — *downgrades* the cache to memory-only instead of raising:
    :attr:`disk_dir` becomes None and :attr:`downgrade_reason` records
    the first cause for the degradation ladder to surface.

    Args:
        maxsize: In-memory entry bound; least-recently-used entries are
            evicted first.
        disk_dir: Directory for the on-disk tier (created here, once);
            None keeps the cache memory-only.
        max_disk_bytes: Optional size cap for the disk tier; when the
            (estimated) total entry size exceeds it, stalest-first
            entries are deleted under an advisory lock until the tier
            fits.  None leaves the disk tier unbounded.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_MAXSIZE,
        disk_dir: str | os.PathLike | None = None,
        max_disk_bytes: int | None = None,
    ):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.max_disk_bytes = max_disk_bytes
        #: First disk failure that forced a memory-only downgrade, or
        #: None while the disk tier (if any) is healthy.
        self.downgrade_reason: str | None = None
        self.stats = CacheStats()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._disk_bytes = 0
        if self.disk_dir is not None:
            try:
                self.disk_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                self._downgrade(
                    f"evalcache: cannot create {self.disk_dir} ({exc}); "
                    "continuing memory-only"
                )
            else:
                if self.max_disk_bytes is not None:
                    self._disk_bytes = self._scan_disk_bytes()
        shutdown.register_flushable(self)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` would hit — memory, or a disk entry that
        passes its checksum (a corrupt entry is quarantined, not
        reported)."""
        return key in self._entries or self._read_disk(key) is not None

    def flush(self) -> None:
        """Durability hook for graceful shutdown (see
        :func:`repro.runtime.shutdown.graceful_shutdown`).

        The disk tier is write-through with atomic renames, so there is
        no buffered state to push; the hook exists so shutdown code can
        flush every registered durability sink uniformly.
        """

    # -- disk tier -------------------------------------------------------

    def _downgrade(self, reason: str) -> None:
        """Drop the disk tier, recording the first cause."""
        if self.downgrade_reason is None:
            self.downgrade_reason = reason
        self.disk_dir = None

    @contextlib.contextmanager
    def _disk_lock(self):
        """Advisory cross-process lock over the disk directory.

        Only the eviction pass takes it (entry reads/writes are safe
        lock-free via checksums and atomic renames); without ``fcntl``
        the lock is a no-op and eviction merely tolerates races.
        """
        if fcntl is None or self.disk_dir is None:
            yield
            return
        try:
            handle = open(self.disk_dir / ".lock", "a")
        except OSError:
            yield
            return
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        finally:
            handle.close()

    def _scan_disk_bytes(self) -> int:
        """Measured size of the disk tier's entries (quarantine and
        bookkeeping files excluded)."""
        total = 0
        if self.disk_dir is None:
            return total
        try:
            paths = list(self.disk_dir.glob("*.json"))
        except OSError:
            return total
        for path in paths:
            try:
                total += path.stat().st_size
            except OSError:
                continue  # raced with a concurrent evictor
        return total

    def _quarantine(self, path: Path) -> None:
        """Move a checksum-failing entry aside so no process serves it."""
        self.stats.corrupt += 1
        if self.disk_dir is None:
            return
        try:
            qdir = self.disk_dir / QUARANTINE_DIR
            qdir.mkdir(exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # racing processes may both quarantine; one wins

    def _read_disk(self, key: str) -> _Entry | None:
        """Verified disk entry for ``key``, or None.

        Corrupt entries (torn writes, bit-flips, pre-checksum formats)
        are quarantined and reported as misses.  Pure with respect to
        cache statistics and the memory tier; callers account.
        """
        if self.disk_dir is None:
            return None
        path = self.disk_dir / f"{key}.json"
        try:
            # Bytes, not text: a bit-flip that breaks the UTF-8 encoding
            # must reach the quarantine below, not raise.
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._downgrade(
                f"evalcache: disk read failed ({exc}); continuing memory-only"
            )
            return None
        try:
            data = json.loads(raw)
            values = {str(k): float(v) for k, v in data["values"].items()}
            sims = int(data.get("simulations", 0))
            if data["checksum"] != payload_checksum(values, sims):
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError, AttributeError):
            self._quarantine(path)
            return None
        return _Entry(values, sims)

    def _write_disk(self, key: str, values: dict[str, float], sims: int) -> None:
        """Atomically publish one entry (crash- and concurrency-safe).

        The tmp name embeds the pid so concurrent writers never collide;
        ``os.replace`` makes the final entry appear whole or not at all.
        A failed write (``ENOSPC``, permissions) downgrades the cache to
        memory-only rather than failing the evaluation that produced the
        result.
        """
        if self.disk_dir is None:
            return
        path = self.disk_dir / f"{key}.json"
        try:
            if path.exists():
                return
            payload = {
                "values": {str(k): float(v) for k, v in values.items()},
                "simulations": int(sims),
                "checksum": payload_checksum(values, sims),
            }
            blob = json.dumps(payload, sort_keys=True)
            tmp = self.disk_dir / f".{key}.{os.getpid()}.tmp"
            tmp.write_text(blob, encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except (OSError, UnboundLocalError):
                pass
            self._downgrade(
                f"evalcache: disk write failed ({exc}); continuing memory-only"
            )
            return
        if self.max_disk_bytes is not None:
            self._disk_bytes += len(blob)
            if self._disk_bytes > self.max_disk_bytes:
                self._evict_disk()

    def _evict_disk(self) -> None:
        """Stalest-first eviction until the disk tier fits its cap.

        Runs under the advisory directory lock so two concurrent caches
        over one directory don't both scan a stale listing; entry
        deletions tolerate races regardless (a concurrently-removed file
        is simply skipped).
        """
        with self._disk_lock():
            if self.disk_dir is None or self.max_disk_bytes is None:
                return
            entries = []
            try:
                paths = list(self.disk_dir.glob("*.json"))
            except OSError:
                return
            for path in paths:
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
            entries.sort(key=lambda item: (item[0], item[2].name))
            total = sum(size for _, size, _ in entries)
            for _, size, path in entries:
                if total <= self.max_disk_bytes:
                    break
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    continue
                total -= size
                self.stats.disk_evicted += 1
            self._disk_bytes = total

    # -- memory tier -----------------------------------------------------

    def _remember(self, key: str, entry: _Entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evicted += 1

    # -- queries ---------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The cached ``{"values", "simulations"}`` payload, or None.

        A memory hit refreshes the entry's LRU position; a disk hit
        promotes the entry into the memory tier.  A corrupt disk entry
        is quarantined and counts as exactly one miss.
        """
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return {"values": dict(entry.values), "simulations": entry.simulations}
        disk = self._read_disk(key)
        if disk is not None:
            self._remember(key, disk)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return {"values": dict(disk.values), "simulations": disk.simulations}
        self.stats.misses += 1
        return None

    def put(self, key: str, values: dict[str, float], simulations: int) -> None:
        """Store one evaluation result (write-through to the disk tier).

        Non-finite values are refused: a poisoned result must be
        re-simulated by the retry machinery, not replayed from cache.
        """
        if any(not math.isfinite(v) for v in values.values()):
            return
        if key in self._entries:
            return
        self._remember(key, _Entry(dict(values), int(simulations)))
        self.stats.stored += 1
        if self.disk_dir is not None:
            self._write_disk(key, values, int(simulations))

    def key_for(
        self,
        primitive,
        circuit: Circuit,
        weight_override: dict[str, float] | None = None,
    ) -> str:
        """Content key of evaluating ``circuit`` with ``primitive``'s
        metric testbenches."""
        return content_key(
            circuit, analysis_signature(primitive), weight_override
        )


def evaluate_circuit_cached(
    primitive,
    circuit: Circuit,
    cache: EvalCache | None,
    weight_override: dict[str, float] | None = None,
) -> tuple[dict[str, float], int, str | None]:
    """Run ``primitive.evaluate(circuit)`` through the content cache.

    Returns ``(values, simulations, content_key)``; a cache hit costs 0
    simulations.  ``content_key`` is None when the cache is bypassed —
    no cache configured, or a *value-affecting* fault injector is active
    (injected solver/metric faults key on evaluation keys, so serving
    content hits would change which faults fire; see the module
    docstring).
    """
    injector = faults.active()
    if cache is None or (injector is not None and injector.spec.affects_values):
        values, sims = primitive.evaluate(circuit)
        return values, sims, None
    key = cache.key_for(primitive, circuit, weight_override)
    hit = cache.get(key)
    if hit is not None:
        return hit["values"], 0, key
    values, sims = primitive.evaluate(circuit)
    cache.put(key, values, sims)
    return values, sims, key
