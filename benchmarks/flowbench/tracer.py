"""Outside-in span tracer: times calls into each layer's public functions.

The tracer never edits the program.  :meth:`Tracer.install` replaces each
target function with a timing wrapper *everywhere the original is bound*:
the defining module's global, every other module global that imported it
by name (``from repro.spice.tran import transient`` leaves a separate
binding in each importer), and the class attribute for methods.
:meth:`Tracer.uninstall` puts every original back.  A target that no
longer exists is skipped and listed in :attr:`Tracer.missing`, so a later
change that deletes a function keeps the benchmark running.

Spans are kept in memory as ``[name, start, end, parent, unit]`` rows
(``parent`` is the index of the enclosing span, -1 at the root) and only
while :attr:`Tracer.recording` is set.  :func:`summarize` turns them into
per-span self time (duration minus the time its direct children cover)
and call counts; :func:`chrome_trace` renders them as Chrome trace-event
JSON, viewable in Perfetto.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: Span name -> the public callables it times, as ``module:qualname``.
#: ``Class+.method`` also wraps every subclass that overrides ``method``.
#: Span names are ``<layer>.<span>``; layers are the package's modules.
TARGETS: dict[str, tuple[str, ...]] = {
    "spice.dc": (
        "repro.spice.dc:dc_operating_point",
        "repro.spice.dc:dc_operating_points",
        "repro.spice.dc:newton_operating_points",
        "repro.spice.dc:dc_sweep",
    ),
    "spice.ac": (
        "repro.spice.ac:ac_analysis",
        "repro.spice.ac:ac_analysis_many",
    ),
    "spice.tran": ("repro.spice.tran:transient",),
    "spice.bisect": (
        "repro.spice.measure:find_dc_zero",
        "repro.spice.measure:find_dc_zero_many",
    ),
    "spice.compile": ("repro.spice.mna:CompiledCircuit.__init__",),
    "extraction.extract": ("repro.extraction.netlist_builder:extract_primitive",),
    "extraction.build": (
        "repro.extraction.netlist_builder:ExtractedPrimitive.build_circuit",
    ),
    "cellgen.generate": ("repro.cellgen.generator:generate_layout",),
    "primitives.evaluate": (
        "repro.primitives.base:MosPrimitive+.evaluate",
        "repro.primitives.base:MosPrimitive+.evaluate_many",
    ),
    "runtime.cache": (
        "repro.runtime.evalcache:content_key",
        "repro.runtime.evalcache:EvalCache.get",
        "repro.runtime.evalcache:EvalCache.put",
    ),
    "runtime.journal": tuple(
        f"repro.runtime.checkpoint:SweepJournal.{name}"
        for name in (
            "__init__",
            "lookup",
            "is_pruned",
            "journaled_failures",
            "record_success",
            "record_failure",
            "record_pruned",
            "flush",
            "close",
        )
    ),
    "runtime.dispatch": (
        "repro.runtime.parallel:ParallelEvalRuntime.evaluate_batch",
        "repro.runtime.policy:EvalBatch+.consume",
        "repro.runtime.batched:BatchedEvalBatch.consume",
    ),
    "surrogate.features": ("repro.surrogate.features:option_features",),
    "surrogate.plan": (
        "repro.surrogate.guide:SurrogateGuide.ready",
        "repro.surrogate.guide:SurrogateGuide.prune_selection",
        "repro.surrogate.guide:SurrogateGuide.plan_prefix",
    ),
    "surrogate.record": (
        "repro.surrogate.guide:SurrogateGuide.record",
        "repro.surrogate.guide:SurrogateGuide.flush",
    ),
    "core.select": ("repro.core.selection:evaluate_options",),
    "core.tune": ("repro.core.tuning:tune_option",),
    "core.port": ("repro.core.port_constraints:derive_port_constraint",),
    "core.reconcile": ("repro.core.reconcile:reconcile_net",),
    "core.optimize": ("repro.core.optimizer:PrimitiveOptimizer.optimize",),
    "pnr.place": ("repro.pnr.placer:SaPlacer.place",),
    "pnr.route": ("repro.pnr.global_router:GlobalRouter.route_net",),
    "pnr.realize": ("repro.pnr.detailed:realize_routes",),
    "verify.layout": ("repro.verify:verify_layout",),
    "verify.circuit": ("repro.verify:verify_circuit",),
    "verify.assembly": ("repro.verify:verify_assembly",),
    "verify.routes": (
        "repro.verify.constraints:check_route_parallelism",
        "repro.verify.emag:check_route_currents",
    ),
    "circuits.calibrate": ("repro.circuits.base:CompositeCircuit+.calibrate_biases",),
    "circuits.assemble": ("repro.circuits.base:CompositeCircuit.assembled",),
    "circuits.measure": ("repro.circuits.base:CompositeCircuit+.measure",),
    "flow.run": ("repro.flow.hierarchical:HierarchicalFlow.run",),
}

#: Name of the span the benchmark opens around each timed unit; its self
#: time is the part of the timed wall no layer span covers.
ROOT = "flowbench.unit"

_clock = time.perf_counter


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


class Tracer:
    """Span recorder plus the wrap/unwrap machinery for :data:`TARGETS`."""

    def __init__(self, targets: dict[str, tuple[str, ...]] | None = None):
        self.targets = TARGETS if targets is None else targets
        self.spans: list[list] = []
        self.recording = False
        self.unit = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        # id(original) -> wrapper, and the reverse, while installed.
        self._wrappers: dict[int, object] = {}
        self._originals: dict[int, object] = {}
        # (owner, attribute, original) for every class attribute replaced.
        self._class_patches: list[tuple[type, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent, self.unit])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record an explicit span (the benchmark's per-unit root)."""
        if not self.recording:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        """Timing wrapper around ``fn`` recording spans named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        traced.__flowbench_original__ = fn
        return traced

    # -- install / uninstall ---------------------------------------------

    def _resolve(self, target: str) -> list[tuple[type | None, str, object]]:
        """``(owner class or None, attribute, original)`` per binding site."""
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            return [(None, qualname, getattr(module, qualname))]
        class_name, _, attr = qualname.rpartition(".")
        with_subclasses = class_name.endswith("+")
        cls = getattr(module, class_name.rstrip("+"))
        owners = _subclasses(cls) if with_subclasses else [cls]
        return [
            (owner, attr, owner.__dict__[attr])
            for owner in owners
            if attr in owner.__dict__
        ]

    def install(self) -> None:
        """Wrap every target at every place it is bound."""
        if self._wrappers:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, targets in self.targets.items():
            for target in targets:
                try:
                    sites = self._resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                if not sites:
                    self.missing.append(target)
                for owner, attr, original in sites:
                    if is_wrapper(original):  # already wrapped via another target
                        continue
                    wrapper = self._wrappers.get(id(original))
                    if wrapper is None:
                        wrapper = self.wrap(name, original)
                        self._wrappers[id(original)] = wrapper
                        self._originals[id(wrapper)] = original
                    if owner is not None:
                        self._class_patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
        self._rebind_module_globals(self._wrappers)

    def uninstall(self) -> None:
        """Put every original back, including aliases bound after install."""
        for owner, attr, original in reversed(self._class_patches):
            setattr(owner, attr, original)
        self._rebind_module_globals(self._originals)
        self._class_patches.clear()
        self._wrappers.clear()
        self._originals.clear()

    @staticmethod
    def _rebind_module_globals(replacements: dict[int, object]) -> None:
        """Swap every module global whose value has an entry (by id)."""
        if not replacements:
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                replacement = replacements.get(id(value))
                if replacement is not None:
                    namespace[attr] = replacement


def is_wrapper(obj) -> bool:
    return hasattr(obj, "__flowbench_original__")


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s`` (duration minus direct-child coverage),
    ``total_s`` and ``calls``.

    Spans come from one thread, so a span's children never overlap each
    other and their summed durations are exactly the time they cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _unit in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent, _unit) in enumerate(spans):
        entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child_time[index]
        entry["total_s"] += end - start
        entry["calls"] += 1
    return out


def chrome_trace(spans: list[list], process_name: str) -> dict:
    """Chrome trace-event JSON (complete ``"X"`` events, microseconds)."""
    origin = min((span[1] for span in spans), default=0.0)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    for name, start, end, _parent, unit in spans:
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"unit": unit},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
