"""Vectorized multi-variant evaluation — the sweep engine.

Selection, tuning, port-constraint and reconcile sweeps evaluate many
*same-pattern* variants: the netlists share one MNA structure and
differ only in device values.
A call site describes each evaluation once, as *build circuit →
simulate → finish* (the :class:`BatchSpec` of its
:class:`~repro.runtime.policy.BatchTask`).  :func:`evaluate_spec` runs
one such evaluation through the content cache; an :class:`EvalBatch`
runs the simulate step of its members **stacked across variants**:
one :class:`~repro.spice.kernel.BatchedSystemTemplate` Newton solve per
iteration instead of K, one stacked AC sweep instead of K (see
docs/performance.md, "Batched solves").  It is the engine of every
sweep, :data:`STACK_WIDTH` variants per stack.

The stacked members of a batch are built and simulated at construction
(the *precompute*); every other task is built and simulated when it is
consumed.  A batch precomputes nothing when :data:`STACK_WIDTH` is 1 or
fewer than two of its tasks are live (not journaled, not screened out by
fault injection).

Determinism contract: everything observable — metric values, journals,
failure logs, evalcache keys and hit/miss/store sequences, reports,
injected fault counters — is byte-identical to the lazy-serial path
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
* every consumed attempt runs :func:`evaluate_spec`, so cache lookups
  happen at *consumption* in call-site order, one per attempt — the
  precompute phase only peeks (:meth:`EvalCache.__contains__`, which
  takes no statistics) to decide which members need simulation;
* a member the stack did not answer — a predicted cache hit that did
  not materialize, a failed batched evaluation — is simulated alone at
  consumption from its precomputed circuit, which yields the identical
  result (or raises the identical error); a member whose build raised
  is built again at consumption and raises there;
* fault decisions are pure hashes of (kind, evaluation key, attempt),
  so the precompute screens by key: a task that
  :meth:`~repro.runtime.faults.FaultInjector.fires_first` flags is
  built and simulated at consumption, where its faults trip in
  call-site order.  The rest stack with injection suspended (outside
  any evaluation context a hook would trip under ``"<no-context>"``)
  and bypass the cache exactly when :func:`evaluate_spec` does.

Retry attempts (``attempt > 0``) build and simulate alone: perturbed
initial guesses are per-member state the lockstep solver does not
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.runtime import context, faults
from repro.runtime.evalcache import analysis_signature, cache_bypassed, content_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evalcache import EvalCache
    from repro.runtime.policy import BatchTask, EvalRuntime

#: Same-pattern variants per stacked solve.  Any width gives the same
#: results; 1 turns the engine off (the lazy-serial reference).
STACK_WIDTH = 8


@dataclass
class BatchSpec:
    """One evaluation, as build → simulate → finish.

    Attributes:
        primitive: The :class:`~repro.primitives.base.MosPrimitive`
            whose metric testbenches measure the circuit (also the cache
            key namespace).
        build: Zero-argument callable returning ``(dut_circuit, site)``
            — the netlist to simulate plus any call-site context the
            ``finish`` step needs (e.g. the generated layout).  May
            raise (e.g. a :class:`~repro.errors.LayoutError`).
        finish: Callable ``(site, values, simulations, cache_key) ->
            result`` assembling the evaluation result from the measured
            (or cached) values.
        weight_override: Metric weight overrides (part of the cache key).
    """

    primitive: Any
    build: Callable[[], tuple[Any, Any]]
    finish: Callable[[Any, dict, int, str | None], Any]
    weight_override: dict | None = None


@dataclass
class _Member:
    """One built evaluation.

    ``key`` is its content key (None when the cache is bypassed).
    ``result`` is ``(values, simulations)`` once a stacked simulation
    produced the member's numbers (its ``circuit`` is then dropped);
    otherwise :func:`evaluate_spec` simulates ``circuit`` unless the
    cache answers.
    """

    circuit: Any
    site: Any
    key: str | None
    result: tuple[dict, int] | None = None


def _build(spec: BatchSpec, bypass: bool, signatures: dict[int, dict]) -> _Member:
    """Build ``spec``'s circuit and its content key; ``signatures``
    memoizes each primitive's analysis signature by ``id``."""
    circuit, site = spec.build()
    key = None
    if not bypass:
        signature = signatures.get(id(spec.primitive))
        if signature is None:
            signature = analysis_signature(spec.primitive)
            signatures[id(spec.primitive)] = signature
        key = content_key(circuit, signature, spec.weight_override)
    return _Member(circuit, site, key)


def evaluate_spec(
    spec: BatchSpec,
    cache: "EvalCache",
    member: _Member | None = None,
    signatures: dict[int, dict] | None = None,
) -> Any:
    """Run one evaluation of ``spec`` through ``cache``.

    Build → content key → lookup → ``primitive.evaluate`` → store →
    ``finish``; a cache hit costs 0 simulations.  The content key is
    None, and the cache untouched, when a *value-affecting* fault
    injector is active (injected solver/metric faults key on evaluation
    keys, so serving content hits would change which faults fire).
    ``member`` passes in an :class:`EvalBatch` member's precomputed
    build, key and stacked result instead; ``signatures`` is the
    caller's analysis-signature memo.
    """
    if member is None:
        member = _build(
            spec,
            cache_bypassed(faults.active()),
            {} if signatures is None else signatures,
        )
    if member.key is not None:
        hit = cache.get(member.key)
        if hit is not None:
            return spec.finish(member.site, hit["values"], 0, member.key)
    if member.result is not None:
        values, sims = member.result
    else:
        values, sims = spec.primitive.evaluate(member.circuit)
    if member.key is not None:
        cache.put(member.key, values, sims)
    return spec.finish(member.site, values, sims, member.key)


class EvalBatch:
    """A batch of evaluations, consumed strictly in call-site order.

    Construction stacks the simulations of the live tasks (see the
    module docstring).  :meth:`consume` still drives everything
    observable through :meth:`EvalRuntime.evaluate` in call-site order —
    journaling, retry accounting, failure logs and cache traffic are the
    serial code paths; only the simulation work inside a stacked
    member's first attempt is answered from the stack.  Every other task
    is built and simulated at consumption, so early-stopping call sites
    (a tuning sweep that breaks once the cost curve turns) pay only for
    what they consume of those.

    Tasks never consumed are never accounted: not journaled, not
    recorded as failures, not counted against any stage.
    """

    def __init__(self, runtime: "EvalRuntime", tasks: "list[BatchTask]", stage: str):
        self.runtime = runtime
        self.tasks = tasks
        self.stage = stage
        self._members: dict[int, _Member] = {}
        # A primitive's analysis signature is fixed across the batch:
        # built once per primitive, not once per key.
        self._signatures: dict[int, dict] = {}
        if STACK_WIDTH > 1:
            self._precompute()

    def __len__(self) -> int:
        return len(self.tasks)

    def _precompute(self) -> None:
        from repro.spice import kernel  # deferred: repro.spice import cycle

        runtime, tasks = self.runtime, self.tasks
        journal = runtime.journal
        # The screen: a task the injector faults on its first attempt
        # is evaluated at consumption.
        injector = faults.active()
        live = [
            i
            for i, task in enumerate(tasks)
            if (journal is None or journal.lookup(task.key) is None)
            and (injector is None or not injector.fires_first(task.key))
        ]
        if len(live) <= 1:
            return
        bypass = cache_bypassed(injector)
        cache = runtime.cache
        sim_indices: list[int] = []
        known: set[str] = set()
        for i in live:
            try:
                member = _build(tasks[i].spec, bypass, self._signatures)
            except Exception:
                # Built again at consumption, where it raises identically
                # (e.g. a LayoutError).
                continue
            self._members[i] = member
            if member.key is not None:
                if member.key in known or member.key in cache:
                    # Predicted hit: resolved by a real get at consumption.
                    continue
                known.add(member.key)
            sim_indices.append(i)

        # Stacked simulation, chunked to STACK_WIDTH and grouped by
        # primitive (one evaluate_many call covers one metric set).
        with faults.installed(None), kernel.collect(runtime.solver_stats):
            start = 0
            while start < len(sim_indices):
                primitive = tasks[sim_indices[start]].spec.primitive
                end = start + 1
                while (
                    end < len(sim_indices)
                    and end - start < STACK_WIDTH
                    and tasks[sim_indices[end]].spec.primitive is primitive
                ):
                    end += 1
                chunk = [self._members[i] for i in sim_indices[start:end]]
                outcomes = primitive.evaluate_many([m.circuit for m in chunk])
                for member, outcome in zip(chunk, outcomes):
                    # A failed member is simulated again at consumption,
                    # where it raises identically.
                    if not isinstance(outcome, Exception):
                        member.result, member.circuit = outcome, None
                start = end

    def consume(self, index: int) -> Any | None:
        """Result of task ``index`` (None when absorbed as a failure),
        serial-identical in every observable."""
        task = self.tasks[index]
        cache = self.runtime.cache
        member = self._members.get(index)

        def attempt():
            # A retry builds afresh: its perturbed guess is not the stack's.
            first = member if context.current().attempt == 0 else None
            return evaluate_spec(task.spec, cache, first, self._signatures)

        return self.runtime.evaluate(
            task.key,
            attempt,
            self.stage,
            validate=task.validate,
            to_payload=task.to_payload,
            from_payload=task.from_payload,
        )
