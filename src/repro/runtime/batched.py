"""Vectorized multi-variant evaluation — the sweep engine.

Selection, tuning, port-constraint and reconcile sweeps evaluate many
*same-pattern* variants: the netlists share one MNA structure and
differ only in device values.
Evaluated one at a time, each variant is rebuilt and resolved
independently; this module lets a call site describe each evaluation as
*build circuit → simulate → finish* (a :class:`BatchSpec` on its
:class:`~repro.runtime.policy.BatchTask`) so the simulate step runs
**stacked across variants**: one
:class:`~repro.spice.kernel.BatchedSystemTemplate` Newton solve per
iteration instead of K, one stacked AC sweep instead of K (see
docs/performance.md, "Batched solves").  It is the engine of every
sweep, :data:`STACK_WIDTH` variants per stack (``DEV-BATCH-TASK`` in
``tools/devlint.py`` flags a task that carries no spec).

The stacked members of a batch run at construction (the *precompute*);
a batch stays lazy — every task evaluated at consumption, one at a
time — when :data:`STACK_WIDTH` is 1 or fewer than two live tasks (not
journaled, not screened out by fault injection) carry a
:class:`BatchSpec`.

Determinism contract: everything observable — metric values, journals,
failure logs, evalcache keys and hit/store sequences, reports, injected
fault counters — is byte-identical to the lazy-serial path
(``STACK_WIDTH = 1``).  The machinery guarantees this by construction:

* the stacked solvers do each member's floating-point operations
  exactly as its own solve would: the lazy-serial path runs the same
  metric evaluators on one-member stacks
  (:meth:`~repro.primitives.base.MosPrimitive.evaluate` is
  ``evaluate_many([dut])``), stacked LAPACK ``gesv`` solves each matrix
  on its own, members that converge leave the live set without
  changing the stragglers' arithmetic, and a member plain Newton
  cannot converge climbs the gmin/source-stepping ladder alone from
  the same guess;
* cache lookups still happen at *consumption* in call-site order — the
  precompute phase only peeks (:meth:`EvalCache.__contains__`, which
  takes no statistics) to decide which members need simulation;
* any member the fast path cannot handle — circuit construction raised,
  a batched evaluation failed, a predicted cache hit did not materialize
  — falls back to the member's original serial thunk, which recomputes
  the identical result (or raises the identical error);
* fault decisions are pure hashes of (kind, evaluation key, attempt),
  so the precompute screens by key: a task that
  :meth:`~repro.runtime.faults.FaultInjector.fires_first` flags keeps
  its serial thunk, which trips its faults at consumption in call-site
  order.  The rest stack with injection suspended (outside any
  evaluation context a hook would trip under ``"<no-context>"``) and
  bypass the cache exactly when
  :func:`~repro.runtime.evalcache.evaluate_circuit_cached` does.

Retry attempts (``attempt > 0``) always run the original serial thunk:
perturbed initial guesses are per-member state the lockstep solver does
not model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.runtime import context, faults
from repro.runtime.evalcache import analysis_signature, cache_bypassed, content_key

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
    """Precomputed state of one stacked batch member.

    ``key`` is its content key (None when the cache is bypassed).
    ``result`` is ``(values, simulations)`` when the stacked simulation
    produced the member's numbers, or None — either a predicted cache
    hit (resolved by a real ``cache.get`` at consumption) or a member
    the fast path gave up on (resolved by the serial thunk).
    """

    site: Any
    key: str | None
    result: tuple[dict, int] | None = None


class EvalBatch:
    """A batch of evaluations, consumed strictly in call-site order.

    Construction stacks the simulations of the live batchable tasks (see
    the module docstring).  :meth:`consume` still drives everything
    observable through :meth:`EvalRuntime.evaluate` in call-site order —
    journaling, retry accounting, failure logs and cache traffic are the
    serial code paths; only the simulation work inside a stacked
    member's first attempt is answered from the stack.  Every other task
    runs its thunk at consumption, so early-stopping call sites (a
    tuning sweep that breaks once the cost curve turns) pay only for
    what they consume of those.

    Tasks never consumed are never accounted: not journaled, not
    recorded as failures, not counted against any stage.
    """

    def __init__(self, runtime: "EvalRuntime", tasks: "list[BatchTask]", stage: str):
        self.runtime = runtime
        self.tasks = tasks
        self.stage = stage
        self._members: dict[int, _Member] = {}
        if STACK_WIDTH > 1:
            self._precompute()

    def __len__(self) -> int:
        return len(self.tasks)

    def _precompute(self) -> None:
        from repro.spice import kernel  # deferred: repro.spice import cycle

        runtime, tasks = self.runtime, self.tasks
        journal = runtime.journal
        # The screen: a task the injector faults on its first attempt
        # keeps its serial thunk.
        injector = faults.active()
        live = [
            i
            for i, task in enumerate(tasks)
            if task.batch_spec is not None
            and (journal is None or journal.lookup(task.key) is None)
            and (injector is None or not injector.fires_first(task.key))
        ]
        if len(live) <= 1:
            return
        bypass = cache_bypassed(injector)
        cache = runtime.cache
        sim_indices: list[int] = []
        sim_circuits: list[Any] = []
        known: set[str] = set()
        # A primitive's analysis signature is fixed across the batch:
        # build it once per primitive, not once per key.
        signatures: dict[int, dict] = {}
        for i in live:
            spec = tasks[i].batch_spec
            try:
                circuit, site = spec.build()
            except Exception:
                # The serial thunk rebuilds and raises identically at
                # consumption (e.g. a LayoutError).
                continue
            key = None
            if not bypass:
                signature = signatures.get(id(spec.primitive))
                if signature is None:
                    signature = analysis_signature(spec.primitive)
                    signatures[id(spec.primitive)] = signature
                key = content_key(circuit, signature, spec.weight_override)
            self._members[i] = _Member(site, key)
            if key is not None:
                if key in known or key in cache:
                    # Predicted hit: resolved by a real get at consumption.
                    continue
                known.add(key)
            sim_indices.append(i)
            sim_circuits.append(circuit)

        # Stacked simulation, chunked to STACK_WIDTH and grouped by
        # primitive (one evaluate_many call covers one metric set).
        with faults.installed(None), kernel.collect(runtime.solver_stats):
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
                    # A failed member's serial thunk raises it again.
                    if not isinstance(outcome, Exception):
                        self._members[i].result = outcome
                start = end

    def consume(self, index: int) -> Any | None:
        """Result of task ``index`` (None when absorbed as a failure),
        serial-identical in every observable."""
        task = self.tasks[index]
        cache = self.runtime.cache
        member = self._members.get(index)

        def fast_thunk():
            ctx = context.current()
            if ctx is not None and ctx.attempt > 0:
                return task.thunk()
            spec = task.batch_spec
            if member.key is not None:
                hit = cache.get(member.key)
                if hit is not None:
                    return spec.finish(member.site, hit["values"], 0, member.key)
            if member.result is None:
                return task.thunk()
            values, sims = member.result
            if member.key is not None:
                cache.put(member.key, values, sims)
            return spec.finish(member.site, values, sims, member.key)

        return self.runtime.evaluate(
            task.key,
            task.thunk if member is None else fast_thunk,
            self.stage,
            validate=task.validate,
            to_payload=task.to_payload,
            from_payload=task.from_payload,
            retries=task.retries,
        )
