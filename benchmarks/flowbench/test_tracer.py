"""Unit tests of the outside-in tracer and of what the worker derives from it.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/flowbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
import textwrap
import types
from types import SimpleNamespace

import pytest

import tracer as tracer_mod
import worker
import workloads
from tracer import TARGETS, Tracer, chrome_trace, is_wrapper, summarize

FAKE_SOURCE = textwrap.dedent(
    """
    def inner(x):
        return x + 1

    def outer(x):
        return inner(x) * 2

    def boom():
        raise ValueError("boom")

    class Thing:
        def work(self):
            return inner(1)
    """
)

FAKE_TARGETS = {
    "fake.outer": ("flowbench_fake:outer",),
    "fake.inner": ("flowbench_fake:inner",),
    "fake.boom": ("flowbench_fake:boom",),
    "fake.work": ("flowbench_fake:Thing.work",),
    "fake.gone": ("flowbench_fake:no_such_function",),
}


@pytest.fixture
def fake_modules():
    """A module of targets plus a second module holding an alias."""
    fake = types.ModuleType("flowbench_fake")
    exec(FAKE_SOURCE, fake.__dict__)
    alias = types.ModuleType("flowbench_alias")
    alias.inner = fake.inner
    sys.modules[fake.__name__] = fake
    sys.modules[alias.__name__] = alias
    yield fake, alias
    del sys.modules[fake.__name__], sys.modules[alias.__name__]


@pytest.fixture
def ticking_clock(monkeypatch):
    """Each clock reading is one second after the previous one."""
    ticks = iter(range(1, 10_000))
    monkeypatch.setattr(tracer_mod, "_clock", lambda: float(next(ticks)))


def test_summarize_nested_self_time():
    spans = [
        ["root", 0.0, 10.0, -1, "u"],
        ["a", 1.0, 6.0, 0, "u"],
        ["b", 2.0, 3.0, 1, "u"],
        ["b", 4.0, 5.5, 1, "u"],
        ["a", 7.0, 9.0, 0, "u"],
    ]
    summary = summarize(spans)
    assert summary["root"] == {"self_s": 3.0, "total_s": 10.0, "calls": 1}
    assert summary["a"] == {"self_s": 4.5, "total_s": 7.0, "calls": 2}
    assert summary["b"] == {"self_s": 2.5, "total_s": 2.5, "calls": 2}
    assert sum(entry["self_s"] for entry in summary.values()) == 10.0


def test_live_nesting_records_parents_and_self_time(fake_modules, ticking_clock):
    fake, _ = fake_modules
    tracer = Tracer(FAKE_TARGETS)
    tracer.install()
    try:
        tracer.recording = True
        with tracer.span("root"):
            assert fake.outer(1) == 4
        tracer.recording = False
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["root", "fake.outer", "fake.inner"]
    assert parents == [-1, 0, 1]
    summary = summarize(tracer.spans)
    # Clock reads 1..6: root [1, 6], outer [2, 5], inner [3, 4].
    assert summary["fake.inner"]["self_s"] == 1.0
    assert summary["fake.outer"]["self_s"] == 2.0
    assert summary["root"]["self_s"] == 2.0


def test_exception_closes_span(fake_modules, ticking_clock):
    fake, _ = fake_modules
    tracer = Tracer(FAKE_TARGETS)
    tracer.install()
    try:
        tracer.recording = True
        with pytest.raises(ValueError):
            fake.boom()
        fake.inner(0)
    finally:
        tracer.uninstall()
    boom, inner = tracer.spans
    assert boom[0] == "fake.boom" and boom[2] > boom[1]
    # The next span is a sibling, not a child of the failed call.
    assert inner[3] == -1
    assert tracer._stack == []


def test_install_rebinds_aliases_and_uninstall_restores(fake_modules):
    fake, alias = fake_modules
    original_inner, original_work = fake.inner, fake.Thing.work
    tracer = Tracer(FAKE_TARGETS)
    tracer.install()
    try:
        assert is_wrapper(fake.inner) and alias.inner is fake.inner
        assert is_wrapper(fake.Thing.__dict__["work"])
        assert tracer.missing == ["flowbench_fake:no_such_function"]
        late = types.ModuleType("flowbench_late")
        late.inner = fake.inner  # imported while the tracer is installed
        sys.modules[late.__name__] = late
    finally:
        tracer.uninstall()
        sys.modules.pop("flowbench_late", None)
    assert fake.inner is original_inner and alias.inner is original_inner
    assert late.inner is original_inner
    assert fake.Thing.__dict__["work"] is original_work


def _module_bindings(obj) -> int:
    return sum(
        1
        for module in list(sys.modules.values())
        for value in list(getattr(module, "__dict__", {}).values())
        if value is obj
    )


def test_every_repro_alias_is_rebound_and_restored():
    for targets in TARGETS.values():
        for target in targets:
            importlib.import_module(target.partition(":")[0])
    tracer = Tracer()
    sites = [
        site for targets in TARGETS.values() for t in targets for site in tracer._resolve(t)
    ]
    originals = [original for _owner, _attr, original in sites]
    transient = importlib.import_module("repro.spice.tran").transient
    transient_bindings = _module_bindings(transient)
    assert transient_bindings >= 5  # tran, spice, testbench, testbenches, circuits

    tracer.install()
    try:
        assert tracer.missing == []
        assert all(_module_bindings(original) == 0 for original in originals)
        wrapped = importlib.import_module("repro.spice.tran").transient
        assert is_wrapper(wrapped)
        assert _module_bindings(wrapped) == transient_bindings
        for owner, attr, _ in sites:
            if owner is not None:
                assert is_wrapper(owner.__dict__[attr]), f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()

    leftovers = [
        f"{module.__name__}.{name}"
        for module in list(sys.modules.values())
        for name, value in list(getattr(module, "__dict__", {}).items())
        if is_wrapper(value)
    ]
    leftovers += [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in sites
        if owner is not None and is_wrapper(owner.__dict__[attr])
    ]
    assert leftovers == []
    assert _module_bindings(transient) == transient_bindings


def test_chrome_trace_parses():
    spans = [["spice.dc", 2.0, 2.5, -1, "diode_load"], ["spice.ac", 2.1, 2.2, 0, "diode_load"]]
    trace = json.loads(json.dumps(chrome_trace(spans, "library")))
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["spice.dc", "spice.ac"]
    assert complete[0]["ts"] == 0.0 and complete[0]["dur"] == 500000.0
    assert complete[1]["cat"] == "spice"


def _spec(large_spans):
    return SimpleNamespace(spec=SimpleNamespace(large_spans=large_spans))


def test_silent_large_span_is_reported():
    tracer = Tracer()
    tracer.spans = [["flowbench.unit", 0.0, 1.0, -1, "u"], ["spice.dc", 0.1, 0.5, 0, "u"]]
    _, silent = worker.per_layer_from_trace(tracer, 1, _spec(("spice.dc", "spice.tran")))
    assert silent == ["spice.tran"]


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    return workloads.build("library", smoke=True, scratch=tmp_path_factory.mktemp("lib"))


def test_layer_self_times_add_up_to_the_timed_wall(library):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        with tracer.span("flowbench.unit"):
            library.run("diode_load", None)
    finally:
        tracer.recording = False
        tracer.uninstall()
    metrics, _ = worker.per_layer_from_trace(tracer, 1, library)
    wall = summarize(tracer.spans)["flowbench.unit"]["total_s"]
    layered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(layered + metrics["trace.unattributed_s"] - wall) < 1e-3
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_pct"))
    assert abs(shares - metrics["trace.coverage_pct"]) < 1e-6
    assert metrics["trace.coverage_pct"] > 95.0


@pytest.mark.parametrize(
    "name, unit", [("library", "diode_load"), ("flows", "csamp")]
)
def test_traced_digest_equals_untraced(name, unit, library, tmp_path):
    workload = library if name == "library" else workloads.build(name, True, tmp_path)
    untraced = workload.run(unit, None).digest
    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        traced = workload.run(unit, None).digest
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert tracer.spans
    assert traced == untraced
