"""Vectorized multi-variant evaluation — the sweep engine.

Selection and tuning sweeps evaluate many *same-pattern* variants: the
netlists share one MNA structure and differ only in device values.
Evaluated one at a time, each variant is rebuilt and resolved
independently; this module lets a call site describe each evaluation as
*build circuit → simulate → finish* (a :class:`BatchSpec` on its
:class:`~repro.runtime.policy.BatchTask`) so the simulate step runs
**stacked across variants**: one
:class:`~repro.spice.kernel.BatchedSystemTemplate` Newton solve per
iteration instead of K, one stacked AC sweep instead of K (see
docs/performance.md, "Batched solves").  It is the engine of every
sweep, :data:`STACK_WIDTH` variants per stack.

Determinism contract: everything observable — metric values, journals,
failure logs, evalcache keys and hit/store sequences, reports — is
byte-identical to the lazy-serial path (``STACK_WIDTH = 1``).  The
machinery guarantees this by construction:

* the batched solvers replay the serial floating-point operations
  exactly (stacked LAPACK ``gesv`` is bitwise equal to per-slice solves;
  per-member masking freezes converged members without changing the
  stragglers' arithmetic);
* cache lookups still happen at *consumption* in call-site order — the
  precompute phase only peeks (:meth:`EvalCache.__contains__`, which
  takes no statistics) to decide which members need simulation;
* any member the fast path cannot handle — circuit construction raised,
  a batched evaluation failed, a predicted cache hit did not materialize
  — falls back to the member's original serial thunk, which recomputes
  the identical result (or raises the identical error);
* the path disengages entirely (returning the ordinary lazy-serial
  batch) under fault injection, where batching would change observable
  behavior.

Retry attempts (``attempt > 0``) always run the original serial thunk:
perturbed initial guesses are per-member state the lockstep solver does
not model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.runtime import context, faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.policy import BatchTask, EvalRuntime

#: Same-pattern variants per stacked solve.  Any width gives the same
#: results; 1 turns the engine off (the lazy-serial reference).
STACK_WIDTH = 8


@dataclass
class BatchSpec:
    """How one evaluation decomposes for the vectorized fast path.

    Attributes:
        primitive: The :class:`~repro.primitives.base.MosPrimitive`
            whose metric testbenches measure the circuit (also the cache
            key namespace).
        build: Zero-argument callable returning ``(dut_circuit, site)``
            — the netlist to simulate plus any call-site context the
            ``finish`` step needs (e.g. the generated layout).  May
            raise; a raising member falls back to its serial thunk.
        finish: Callable ``(site, values, simulations, cache_key) ->
            result`` assembling the evaluation result exactly as the
            serial thunk would from the same measured values.
        weight_override: Metric weight overrides (part of the cache key).
    """

    primitive: Any
    build: Callable[[], tuple[Any, Any]]
    finish: Callable[[Any, dict, int, str | None], Any]
    weight_override: dict | None = None


@dataclass
class _Member:
    """Precomputed state of one batch member.

    ``result`` is ``(values, simulations)`` when the stacked simulation
    produced the member's numbers, or None — either a predicted cache
    hit (resolved by a real ``cache.get`` at consumption) or a member
    the fast path gave up on (resolved by the serial thunk).
    """

    site: Any
    key: str
    result: tuple[dict, int] | None = None


def maybe_batched(
    runtime: "EvalRuntime", tasks: "list[BatchTask]", stage: str
):
    """The vectorized batch for ``tasks``, or None when it must not engage.

    Disengagement conditions: a :data:`STACK_WIDTH` of 1, fault
    injection active (faults key on evaluation order/keys, so batching
    would be observable), or fewer than two live batchable tasks.
    """
    if STACK_WIDTH <= 1:
        return None
    if faults.active() is not None:
        return None
    live = 0
    for task in tasks:
        if task.batch_spec is None:
            continue
        if (
            runtime.journal is not None
            and runtime.journal.lookup(task.key) is not None
        ):
            continue
        live += 1
    if live <= 1:
        return None
    return BatchedEvalBatch(runtime, tasks, stage)


def _batch_class():
    # Deferred: policy imports this module lazily, so importing policy at
    # module scope here would still be safe — but keeping it deferred
    # makes the (absence of a) cycle obvious.
    from repro.runtime.policy import EvalBatch

    return EvalBatch


class BatchedEvalBatch:
    """An :class:`~repro.runtime.policy.EvalBatch` whose simulations ran
    stacked at construction time.

    Consumption (`consume`) still drives everything observable through
    :meth:`EvalRuntime.evaluate` in call-site order — journaling, retry
    accounting, failure logs and cache traffic are the serial code
    paths; only the simulation work inside the first attempt's thunk is
    answered from the precomputed stack.
    """

    def __init__(self, runtime: "EvalRuntime", tasks, stage: str):
        from repro.spice import kernel  # deferred: repro.spice import cycle

        self.runtime = runtime
        self.tasks = tasks
        self.stage = stage
        self._members: dict[int, _Member] = {}

        cache = runtime.cache
        sim_indices: list[int] = []
        sim_circuits: list[Any] = []
        known: set[str] = set()
        for i, task in enumerate(tasks):
            spec = task.batch_spec
            if spec is None:
                continue
            if (
                runtime.journal is not None
                and runtime.journal.lookup(task.key) is not None
            ):
                continue
            try:
                circuit, site = spec.build()
            except Exception:
                # The serial thunk rebuilds and raises identically at
                # consumption (e.g. a LayoutError).
                continue
            key = cache.key_for(spec.primitive, circuit, spec.weight_override)
            self._members[i] = _Member(site, key)
            if key in known or key in cache:
                # Predicted hit: resolved by a real get at consumption.
                continue
            known.add(key)
            sim_indices.append(i)
            sim_circuits.append(circuit)

        # Stacked simulation, chunked to STACK_WIDTH and grouped
        # by primitive (one evaluate_many call covers one metric set).
        with kernel.collect(runtime.solver_stats):
            start = 0
            while start < len(sim_indices):
                primitive = tasks[sim_indices[start]].batch_spec.primitive
                end = start + 1
                while (
                    end < len(sim_indices)
                    and end - start < STACK_WIDTH
                    and tasks[sim_indices[end]].batch_spec.primitive
                    is primitive
                ):
                    end += 1
                outcomes = primitive.evaluate_many(sim_circuits[start:end])
                for i, outcome in zip(sim_indices[start:end], outcomes):
                    self._members[i].result = outcome
                start = end

    def __len__(self) -> int:
        return len(self.tasks)

    def consume(self, index: int) -> Any | None:
        """Result of task ``index``, serial-identical in every observable."""
        task = self.tasks[index]
        runtime = self.runtime
        member = self._members.get(index)
        if member is None:
            return _batch_class()(runtime, self.tasks, self.stage).consume(index)

        def fast_thunk():
            ctx = context.current()
            if ctx is not None and ctx.attempt > 0:
                return task.thunk()
            spec = task.batch_spec
            hit = runtime.cache.get(member.key)
            if hit is not None:
                return spec.finish(member.site, hit["values"], 0, member.key)
            if member.result is None:
                return task.thunk()
            values, sims = member.result
            runtime.cache.put(member.key, values, sims)
            return spec.finish(member.site, values, sims, member.key)

        return runtime.evaluate(
            task.key,
            fast_thunk,
            self.stage,
            validate=task.validate,
            to_payload=task.to_payload,
            from_payload=task.from_payload,
            retries=task.retries,
        )
