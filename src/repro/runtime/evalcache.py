"""Content-addressed evaluation cache.

Post-layout evaluations are pure functions of the flattened netlist and
the analysis that measures it: the simulator is deterministic, so two
evaluations of byte-identical (netlist, analysis, weight) triples return
identical metric values.  The optimization flow *re-builds* identical
netlists all the time — the first point of every tuning sweep regenerates
the untuned layout selection already scored, and reconciliation
re-simulates wire counts the port sweeps explored — so keying
evaluations by content instead of by stage collapses that duplicate
simulation work.

The cache is an in-memory LRU (:class:`EvalCache`), bounded by entry
count, that lives and dies with its process.  Nothing of it reaches the
disk: the sweep journal is the only state that crosses processes, and a
resumed run rebuilds the cache from the journal
(:meth:`~repro.runtime.policy.EvalRuntime._prime_cache`).  A second
durable store could outlive a kill that the journal did not see, and
then a resumed run would count fewer simulations than the uninterrupted
one.

Keys are SHA-256 hashes of a canonical serialization of (flattened
netlist, analysis signature, weight overrides, simulator revision); see
:func:`content_key`.
Instance *names* of circuits are excluded (wrapper circuits embed wire
counts in their names) but element names, nodes, model cards and every
numeric parameter participate, so any sizing (nfin/nf/m), pattern or wire
change produces a different key.

Every lookup computes a key, so the serialization is kept cheap without
changing its bytes: each dataclass type's field names are read once,
exact ``float``/``str``/``int``/``bool`` values are formatted before any
other check, and a sub-object several elements share (a model card,
geometry, LDE context or waveform) is serialized once per key.  A key
change would stop the journals of earlier runs from priming the cache on
resume, so ``tests/runtime/test_evalcache.py`` pins golden keys.

The cache is always on: every
:class:`~repro.runtime.policy.EvalRuntime` holds one.  Two deliberate
bypasses keep cached runs equivalent to uncached ones:

* **Fault injection** — injected faults are keyed on the *evaluation*
  key, not the content key, so a content hit could swallow a fault that
  the uncached run would see.  When a
  :class:`~repro.runtime.faults.FaultInjector` whose spec
  :attr:`~repro.runtime.faults.FaultSpec.affects_values` is active
  (:func:`cache_bypassed`, read by
  :func:`~repro.runtime.batched.evaluate_spec` and the stacked engine's
  precompute) the cache is bypassed entirely; such fault-injected runs
  behave identically with and without a cache.
* **Non-finite results** — a poisoned evaluation (NaN metrics) is never
  stored: retries with perturbed guesses must re-simulate, not replay
  the poison.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass

from repro.runtime import faults
from repro.spice.netlist import Circuit

#: In-memory LRU capacity (entries, not bytes: one entry is a small dict
#: of metric floats), read when a cache is constructed.
MAXSIZE = 4096

#: Revision of the simulator's numerics, hashed into every content key.
#: Bump it whenever a change moves simulated values (stepping, device
#: model, solver), so that cache entries replayed from a journal an
#: older simulator wrote never answer a newer simulator's lookups.
#: Revision 5 orders sparse factorizations by minimum degree on
#: ``A + Aᵀ``: sparse solves move in their last bits, dense results are
#: bitwise unchanged.
SIMULATOR_REVISION = 5


#: Field names of each dataclass type :func:`_canon` has met (None for
#: any other type), built on first sight.
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}


def _field_names(cls: type) -> tuple[str, ...] | None:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls)
            else None
        )
        _FIELD_NAMES[cls] = names
        return names


def _canon(value, memo: dict | None = None):
    """Canonical JSON-able form of netlist values (order-stable).

    ``memo`` maps the ids of dataclass instances already canonicalized
    within one call to their form, so that a sub-object many elements
    share (a model card, geometry, LDE context or waveform) is walked
    once.
    """
    t = type(value)
    if t is float:
        # repr round-trips doubles exactly; formatting would alias
        # nearby values into one key.
        return f"f:{value!r}"
    if t is str or t is int or t is bool or value is None:
        return value
    names = _field_names(t)
    if names is not None:
        if memo is None:
            memo = {}
        out = memo.get(id(value))
        if out is None:
            fields = {}
            for name in names:
                # The scalar cases above, inline: most fields are scalars.
                v = getattr(value, name)
                vt = type(v)
                if vt is float:
                    fields[name] = f"f:{v!r}"
                elif vt is str or vt is int or vt is bool or v is None:
                    fields[name] = v
                else:
                    fields[name] = _canon(v, memo)
            out = memo[id(value)] = [t.__name__, fields]
        return out
    if isinstance(value, dict):
        return {str(k): _canon(v, memo) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v, memo) for v in value]
    if isinstance(value, float):
        # Float subclasses such as np.float64 keep their own repr.
        return f"f:{value!r}"
    if isinstance(value, (bool, int, str)):
        return value
    return f"{t.__name__}:{value!r}"


def canonical_netlist(circuit: Circuit) -> list:
    """Order-stable, name-independent serialization of a flat netlist.

    The circuit's own name is excluded (wrapper circuits encode wire
    counts in their names; the wire count already shows up in the R/C
    values).  Element names, nodes and every electrical parameter are
    included in insertion order — netlist construction is deterministic,
    so insertion order is part of the content.
    """
    memo: dict = {}
    return [
        [list(circuit.ports)],
        [_canon(element, memo) for element in circuit.elements],
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

    Every field is deterministic for a given logical run and identical
    for any stack width: each consumed evaluation attempt makes one
    lookup (none when the cache is bypassed).  ``misses`` includes the
    lookups of attempts that later failed.

    Every :meth:`EvalCache.get` call counts exactly one ``lookups`` and
    exactly one of ``hits``/``misses``, so ``hits + misses == lookups``
    always holds.  Containment peeks (``key in cache``) take no
    statistics and are not lookups.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    stored: int = 0
    evicted: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class _Entry:
    values: dict[str, float]
    simulations: int


class EvalCache:
    """In-memory LRU evaluation cache of :data:`MAXSIZE` entries; the
    least-recently-used entries are evicted first."""

    def __init__(self):
        self.maxsize = MAXSIZE
        self.stats = CacheStats()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` would hit (a peek: no statistics, no LRU
        refresh)."""
        return key in self._entries

    def get(self, key: str) -> dict | None:
        """The cached ``{"values", "simulations"}`` payload, or None.

        A hit refreshes the entry's LRU position.
        """
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return {"values": dict(entry.values), "simulations": entry.simulations}
        self.stats.misses += 1
        return None

    def put(self, key: str, values: dict[str, float], simulations: int) -> None:
        """Store one evaluation result.

        Non-finite values are refused: a poisoned result must be
        re-simulated by the retry machinery, not replayed from cache.
        """
        if any(not math.isfinite(v) for v in values.values()):
            return
        if key in self._entries:
            return
        self._entries[key] = _Entry(dict(values), int(simulations))
        self.stats.stored += 1
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evicted += 1

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


def cache_bypassed(injector: faults.FaultInjector | None) -> bool:
    """Whether evaluations under ``injector`` skip the cache (it is
    value-affecting; see the module docstring)."""
    return injector is not None and injector.spec.affects_values
