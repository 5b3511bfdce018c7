"""Seeded-violation tests for the static EM / IR-drop audit (EM-*, IR-*)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.devices.mosfet import MosGeometry
from repro.errors import VerificationError
from repro.geometry.layout import Wire
from repro.geometry.shapes import Rect
from repro.pnr.detailed import DetailedRoute
from repro.spice import Circuit, CompiledCircuit
from repro.spice.dc import dc_operating_point
from repro.verify.emag import (
    budget_net_currents,
    check_route_currents,
    run_emag,
)
from repro.verify.tech import AuditTech, LayerAudit


@pytest.fixture
def audit(tech):
    return AuditTech.for_technology(tech)


def test_clean_layout_passes_at_budget_currents(dp_layout, tech):
    report = run_emag(dp_layout, tech)
    assert report.ok
    assert not report.violations


def test_budget_currents_follow_device_fins(dp_layout, audit):
    currents = budget_net_currents(dp_layout, audit)
    # Both branch drains carry one branch's budget; the shared source
    # net carries both.
    assert currents["outp"] == currents["outn"] > 0.0
    assert currents["tail"] == pytest.approx(
        currents["outp"] + currents["outn"]
    )
    # 2 devices x 6 units x (4 fins x 4 fingers) at the declared budget.
    assert currents["tail"] == pytest.approx(
        2 * 6 * 4 * 4 * audit.current_per_fin_a
    )
    # Gate nets carry no DC current, so they never enter the budget.
    assert "inp" not in currents
    assert "inn" not in currents


def test_em_wire_density_on_overdriven_net(dp_layout, tech):
    # 50 mA through the outp mesh swamps the thin-metal limits.
    report = run_emag(dp_layout, tech, currents={"outp": 0.05})
    assert report.count("EM-WIRE-DENSITY") >= 1
    assert all(
        v.subject == "outp"
        for v in report.violations
        if v.rule == "EM-WIRE-DENSITY"
    )
    assert not report.ok


def test_em_via_density_on_overdriven_ladder(dp_layout, tech):
    report = run_emag(dp_layout, tech, currents={"outp": 0.05})
    assert report.count("EM-VIA-DENSITY") >= 1
    messages = [
        v.message for v in report.violations if v.rule == "EM-VIA-DENSITY"
    ]
    assert any("per cut" in m for m in messages)


def test_ir_drop_on_supply_mesh(dp_layout, tech):
    # Recast the tail net as a supply: the same mesh now owes the IR
    # budget, and 50 mA through it drops far more than 5% of vdd.
    dp_layout.wires = [
        replace(w, net="vss!") if w.net == "tail" else w
        for w in dp_layout.wires
    ]
    dp_layout.vias = [
        replace(v, net="vss!") if v.net == "tail" else v
        for v in dp_layout.vias
    ]
    report = run_emag(dp_layout, tech, currents={"vss!": 0.05})
    assert report.count("IR-DROP") == 1
    (finding,) = [v for v in report.violations if v.rule == "IR-DROP"]
    assert finding.subject == "vss!"
    assert "rail" in finding.message  # the path breakdown is reported


def test_ir_drop_silent_on_signal_nets(dp_layout, tech):
    # The same overload on a non-supply net is EM territory, not IR.
    report = run_emag(dp_layout, tech, currents={"tail": 0.05})
    assert report.count("IR-DROP") == 0


def test_operating_point_currents_override_budget(dp_layout, tech):
    class _Op:
        def net_currents(self):
            return {"outp": 0.05}

    report = run_emag(dp_layout, tech, op=_Op())
    assert report.count("EM-WIRE-DENSITY") >= 1


def test_operating_point_net_currents(dp_layout, tech):
    # A biased, slightly unbalanced pair on the layout's net names: each
    # drain net carries its device's current, the shared source both.
    c = Circuit("dp_bias")
    c.add_vsource("vdd", "vdd", "0", tech.vdd)
    c.add_vsource("vinp", "inp", "0", 0.62)
    c.add_vsource("vinn", "inn", "0", 0.60)
    c.add_resistor("rp", "vdd", "outp", 2000.0)
    c.add_resistor("rn", "vdd", "outn", 2000.0)
    c.add_isource("itail", "tail", "0", 100e-6)
    for name, d, g in (("MA", "outp", "inp"), ("MB", "outn", "inn")):
        c.add_mosfet(name, d, g, "tail", "0", tech.nmos, MosGeometry(4, 4, 1))
    op = dc_operating_point(CompiledCircuit(c, tech.rules))
    id_a, id_b = op.mos("MA")["id"], op.mos("MB")["id"]
    assert id_a > id_b > 0.0
    currents = op.net_currents()
    assert list(currents) == ["outn", "outp", "tail"]
    assert currents == {"outn": id_b, "outp": id_a, "tail": id_a + id_b}
    assert run_emag(dp_layout, tech, op=op).ok


def test_explicit_currents_override_op(dp_layout, tech):
    class _Op:
        def net_currents(self):  # pragma: no cover - must not be used
            raise AssertionError("explicit currents must win")

    report = run_emag(dp_layout, tech, op=_Op(), currents={})
    assert report.ok


def test_route_capacity_is_min_over_bundle():
    route = DetailedRoute(
        net="out",
        wires=[
            Wire("out", "M2", Rect(0, 0, 10000, 32)),
            Wire("out", "M3", Rect(0, 0, 10000, 40)),
        ],
        n_parallel=2,
    )
    # M2: 2 x 32 nm x 1.2 mA/um; the wider M3 wire is not the bottleneck.
    assert route.current_capacity_ma({"M2": 1.2, "M3": 1.5}) == pytest.approx(
        2 * 32 * 1e-3 * 1.2
    )
    # Layers absent from the table are skipped entirely.
    assert route.current_capacity_ma({}) == float("inf")


def test_em_route_density_on_undersized_route(tech):
    route = DetailedRoute(
        net="out", wires=[Wire("out", "M2", Rect(0, 0, 10000, 32))]
    )
    report = check_route_currents({"out": route}, {"out": 0.001}, tech)
    assert report.count("EM-ROUTE-DENSITY") == 1
    (finding,) = report.violations
    assert "needs >=" in finding.message


def test_em_route_density_silent_within_capacity(tech):
    route = DetailedRoute(
        net="out", wires=[Wire("out", "M2", Rect(0, 0, 10000, 32))]
    )
    # 0.0384 mA capacity at the 1.2 mA/um M2 limit.
    report = check_route_currents({"out": route}, {"out": 3e-5}, tech)
    assert report.ok


def test_audit_tech_rejects_bad_tables(tech):
    with pytest.raises(VerificationError):
        LayerAudit(em_limit_ma_um=0.0)
    with pytest.raises(VerificationError):
        LayerAudit(em_limit_ma_um=1.0, max_density=0.2, min_density=0.5)
    with pytest.raises(VerificationError):
        AuditTech.for_technology(tech, ir_drop_frac=2.0)


def test_audit_tech_defaults_scale_with_stack(tech, audit):
    # Thin lower metal sustains ~1 mA/um; thick top metal far more.
    m2 = audit.layer("M2")
    top = audit.layer(tech.stack.metals[-1].name)
    assert m2 is not None and top is not None
    assert m2.em_limit_ma_um < top.em_limit_ma_um
    assert audit.via_limit("V1") is not None
    assert audit.layer("M99") is None and audit.via_limit("V99") is None
