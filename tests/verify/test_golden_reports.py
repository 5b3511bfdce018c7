"""Golden report bytes: verification output is pinned by digest.

The verification engines are rewritten for speed from time to time; a
rewrite must reproduce every report byte for byte (the same violations,
in the same order, with the same messages).  Each case below renders a
report to JSON and compares the SHA-256 prefix with the value recorded
before the rewrite.  The corpus covers:

* the differential-pair fixture layout, clean and with seeded defects
  that hit every geometric rule (several at once, so ties in the
  discovery order are exercised);
* a seeded random wire/via soup over the fixture, which produces
  hundreds of overlapping shorts, spacing pairs and islands;
* two-instance assemblies (abutting, overlapping, mirrored);
* the flattened assemblies of the benchmark flows: csamp, OTA and
  StrongARM at ``flows`` settings and the 4-stage ring-oscillator VCO at
  ``vco_flow`` settings, plus each flow's whole verification report.

A digest that changes on purpose (a new rule, a new message) is updated
together with the change that moves it, and the change says why.
"""

from __future__ import annotations

import copy
import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.geometry import Instance, Layout, Point, Rect, Via, Wire
from repro.verify import AuditTech, Report, load_waivers, verify_assembly, verify_layout
from repro.verify.antenna import run_antenna

#: SHA-256 prefixes of ``Report.render_json()`` per corpus case.
GOLDEN = {
    "clean": "1e47803246ce125e",
    "clean_records": "1e47803246ce125e",
    "clean_no_spec": "c21e30379ae57128",
    "seeded": "b1e9df71534c0277",
    "seeded_no_spec": "54d09af94f4d6020",
    "seeded_currents": "19f072344589547a",
    "tight_density": "8637304538c39822",
    "soup_1": "840d7778301bc6b6",
    "soup_2": "a0a677449511cfab",
    "assembly_pair": "98de0de0685cdc33",
    "assembly_clash": "7eb085a0ff919dc7",
}

#: Whole-flow goldens: ``(assembly report, FlowResult.verification)``.
FLOW_GOLDEN = {
    "csamp": ("3e47c6c1c57dcfdf", "58a08bcd305fbf38"),
    "ota": ("32e819afaa6b1123", "ca5c9df3872f1d7f"),
    "strongarm": ("47253bff9e653280", "eaafc3749e014119"),
    "vco": ("ee4996b88fd0a486", "cdb32541357638fe"),
}


def digest(report: Report) -> str:
    return hashlib.sha256(report.render_json().encode()).hexdigest()[:16]


def _materialized(layout: Layout) -> Layout:
    """A deep copy whose wires and vias are shape records."""
    out = copy.deepcopy(layout)
    out.wires  # noqa: B018 - reading the list builds the records
    return out


def _seeded(layout: Layout, spec) -> Layout:
    """The fixture with one defect of every geometric kind, some twice."""
    out = _materialized(layout)
    wires, vias = out.wires, out.vias
    strap = next(w for w in wires if w.role == "strap")
    rail = next(w for w in wires if w.role == "rail")
    net = wires[0].net
    gate = next(w for w in wires if w.owner.endswith(".g"))
    wires += [
        Wire("intruder", strap.layer, strap.rect),
        Wire("intruder2", rail.layer, rail.rect.translated(0, 500)),
        Wire(net, "M2", Rect(50000, 50000, 50500, 50032)),
        Wire("x", "M2", Rect(0, 5000, 500, 5010)),
        Wire("x", "M99", Rect(0, 5000, 500, 5032)),
        Wire("a", "M2", Rect(0, 9000, 500, 9032)),
        Wire("b", "M2", Rect(0, 9033, 500, 9065)),
        Wire("c", "M2", Rect(0, 9066, 500, 9098)),
        Wire("a", "M2", Rect(200, 9099, 700, 9131)),
        Wire("plate", "M3", Rect(60000, 60000, 66000, 66000)),
        Wire(strap.net, "M2", Rect(70000, 0, 80000, 20000)),
        Wire(gate.net, "M2", Rect(0, -90000, 40000, -60000)),
        Wire("vdd!", "M3", Rect(-9000, 0, -8900, 30000), "rail"),
        Wire("vdd!", "M2", Rect(-9000, 0, -5000, 50), "strap"),
        Wire("vdd!", "M1", Rect(-6000, 0, -5960, 900), "finger_stub", "MZ.s"),
    ]
    vias += [
        Via("x", "M1", "M3", Point(100, 100)),
        Via("x", "M1", "M2", Point(99999, 99999)),
        Via("nowhere", "M1", "M2", Point(77777, 77777)),
        Via("x", "M7", "M9", Point(5, 5)),
        Via("vdd!", "M2", "M3", Point(-8950, 20), 2),
    ]
    object.__setattr__(vias[1], "cuts", 0)
    dev = out.devices[0]
    out.devices += [
        replace(dev, unit_index=99, rect=dev.rect.translated(1, 1)),
        replace(dev, unit_index=98, rect=dev.rect.translated(3, 0)),
    ]
    out.devices[1] = replace(
        out.devices[1], rect=out.devices[1].rect.translated(7, 0)
    )
    owner = f"{spec.devices[0].name}.d"
    stubs = [
        i for i, w in enumerate(wires)
        if w.role == "finger_stub" and w.owner == owner
    ]
    wires[stubs[0]] = replace(wires[stubs[0]], net="hijacked")
    far = wires[stubs[-1]]
    wires[stubs[-1]] = replace(far, rect=far.rect.translated(30000, 30000))
    port = out.ports[0]
    out.ports[0] = replace(port, rect=port.rect.translated(40000, 40000))
    out.ports.append(replace(out.ports[1], layer="poly"))
    out.ports.append(replace(out.ports[1], rect=out.ports[1].rect.translated(-50000, 0)))
    return out


def _soup(layout: Layout, seed: int) -> Layout:
    """The fixture plus 300 random wires and 200 random vias."""
    rng = random.Random(seed)
    out = _materialized(layout)
    box = out.bbox()
    nets = sorted({w.net for w in out.wires})[:4] + ["n0", "n1"]
    layers = ["M1", "M2", "M3"]
    roles = ["route", "finger_stub", "strap", "rail"]
    owners = ["", "MA.g", "MB.g", "MA.d"]
    for _ in range(300):
        x0 = rng.randrange(box.x0, box.x1)
        y0 = rng.randrange(box.y0, box.y1)
        if rng.random() < 0.5:
            rect = Rect(x0, y0, x0 + rng.randrange(0, 4000), y0 + rng.randrange(10, 80))
        else:
            rect = Rect(x0, y0, x0 + rng.randrange(10, 80), y0 + rng.randrange(0, 4000))
        out.wires.append(Wire(
            rng.choice(nets), rng.choice(layers), rect,
            rng.choice(roles), rng.choice(owners),
        ))
    for _ in range(200):
        lower = rng.randrange(1, 3)
        out.vias.append(Via(
            rng.choice(nets), f"M{lower}", f"M{lower + 1}",
            Point(rng.randrange(box.x0, box.x1), rng.randrange(box.y0, box.y1)),
            rng.randrange(1, 4),
        ))
    return out


def _corpus(layout: Layout, spec, tech) -> dict[str, Report]:
    audit = AuditTech.for_technology(tech)
    seeded = _seeded(layout, spec)
    heavy = {net: 5e-3 for net in sorted(layout.nets()) + ["vdd!"]}
    width = layout.bbox().width
    pair = [
        Instance("a", layout, Point(0, 0)),
        Instance("b", layout, Point(width, 0), flipped_x=True),
    ]
    clash = [
        Instance("a", layout, Point(0, 0)),
        Instance("b", layout, Point(width // 2, 100)),
        Instance("c", layout, Point(width // 3, -100), flipped_x=True),
    ]
    shared = {"a": {net: net for net in layout.nets()}}
    return {
        "clean": verify_layout(layout, tech, spec=spec),
        "clean_records": verify_layout(_materialized(layout), tech, spec=spec),
        "clean_no_spec": verify_layout(layout, tech),
        "seeded": verify_layout(seeded, tech, spec=spec),
        "seeded_no_spec": verify_layout(seeded, tech, absolute_grid=False),
        "seeded_currents": verify_layout(seeded, tech, currents=heavy),
        "tight_density": run_antenna(
            layout, tech, AuditTech.for_technology(tech, density_window_nm=700)
        ),
        "soup_1": verify_layout(_soup(layout, 1), tech, spec=spec),
        "soup_2": verify_layout(_soup(layout, 2), tech, audit=audit),
        "assembly_pair": verify_assembly("pair", pair, tech),
        "assembly_clash": verify_assembly("clash", clash, tech, net_map=shared),
    }


@pytest.fixture(scope="module")
def corpus(_dp_layout, dp_spec, tech):
    return {name: digest(r) for name, r in _corpus(_dp_layout, dp_spec, tech).items()}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fixture_report_bytes(corpus, case):
    assert corpus[case] == GOLDEN[case]


def test_corpus_is_pinned(corpus):
    assert sorted(corpus) == sorted(GOLDEN)


#: Flowbench settings: placer seed and problem sizes per circuit.
_FLOWS = {
    "csamp": {"n_bins": 2, "max_wires": 5},
    "ota": {"n_bins": 2, "max_wires": 5},
    "strongarm": {"n_bins": 2, "max_wires": 5},
    "vco": {"n_bins": 1, "max_wires": 1},
}


def _circuit(name: str, tech):
    from repro.circuits import (
        CommonSourceAmpCircuit,
        FiveTransistorOta,
        RingOscillatorVco,
        StrongArmComparator,
    )

    return {
        "csamp": lambda: CommonSourceAmpCircuit(tech),
        "ota": lambda: FiveTransistorOta(tech),
        "strongarm": lambda: StrongArmComparator(tech),
        "vco": lambda: RingOscillatorVco(tech, stages=4),
    }[name]()


def flow_digests(name: str, tech) -> tuple[str, str]:
    """Digests of one flow's assembly report and whole verification."""
    import repro.flow.hierarchical as hierarchical
    from repro.flow import HierarchicalFlow

    assemblies: list[Report] = []

    def spy(*args, **kwargs):
        report = verify_assembly(*args, **kwargs)
        assemblies.append(report)
        return report

    waivers = load_waivers(Path(__file__).resolve().parents[2] / ".reprolint.toml")
    flow = HierarchicalFlow(tech, seed=1, waivers=waivers, **_FLOWS[name])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hierarchical, "verify_assembly", spy)
        result = flow.run(_circuit(name, tech), flavor="this_work")
    (assembly,) = assemblies
    return digest(assembly), digest(result.verification)


@pytest.mark.parametrize("name", sorted(_FLOWS))
def test_flow_report_bytes(name, tech):
    assert flow_digests(name, tech) == FLOW_GOLDEN[name]
