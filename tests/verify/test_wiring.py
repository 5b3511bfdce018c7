"""Verification wired into the generator, the flow and the CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import VerificationError
from repro.flow import HierarchicalFlow
from repro.geometry import Instance, Point
from repro.verify import Report, verify_assembly, verify_layout


def test_generator_attaches_report_by_default(dp_primitive, dp_base):
    layout = dp_primitive.generate(dp_base, "ABAB")
    report = layout.metadata["verification"]
    assert isinstance(report, Report)
    assert report.ok


def test_generator_verify_false_skips(dp_primitive, dp_base):
    layout = dp_primitive.generate(dp_base, "ABAB", verify=False)
    assert "verification" not in layout.metadata


def test_generator_strict_passes_on_clean(dp_primitive, dp_base):
    layout = dp_primitive.generate(dp_base, "ABAB", strict=True)
    assert layout.metadata["verification"].ok


def test_verify_layout_strict_raises_on_seeded_error(dp_layout, tech):
    from dataclasses import replace

    dev = dp_layout.devices[0]
    dp_layout.devices[0] = replace(dev, rect=dev.rect.translated(7, 0))
    with pytest.raises(VerificationError) as excinfo:
        verify_layout(dp_layout, tech, strict=True)
    assert "DRC-POLY-PITCH" in str(excinfo.value)
    assert excinfo.value.report is not None


def test_verify_assembly_clean_when_disjoint(dp_layout, tech):
    instances = [
        Instance("a", dp_layout, Point(0, 0)),
        Instance("b", dp_layout, Point(dp_layout.width + 1000, 0)),
    ]
    report = verify_assembly("pair", instances, tech)
    assert report.ok


def test_verification_builds_no_shape_records(dp_primitive, dp_base, tech, monkeypatch):
    # Verifying a generated cell, and a flattening of it, reads the shape
    # columns only: no Wire or Via record is built.
    from repro.geometry import Layout
    from repro.verify import budget_net_currents
    from repro.verify.tech import AuditTech

    built = []
    materialize = Layout._materialize

    def spy(layout):
        if layout._columns is not None:
            built.append(layout.name)
        materialize(layout)

    monkeypatch.setattr(Layout, "_materialize", spy)
    layout = dp_primitive.generate(dp_base, "ABAB")
    instances = [
        Instance("a", layout, Point(0, 0)),
        Instance("b", layout, Point(layout.width + 1000, 0), flipped_x=True),
    ]
    report = verify_assembly("pair", instances, tech)
    budget_net_currents(layout, AuditTech.for_technology(tech))
    assert layout.metadata["verification"].checked_shapes > 0
    assert report.checked_shapes > 0
    assert built == []


def test_verify_assembly_flags_overlap(dp_layout, tech):
    instances = [
        Instance("a", dp_layout, Point(0, 0)),
        Instance("b", dp_layout, Point(40, 40)),
    ]
    report = verify_assembly("pair", instances, tech)
    assert report.count("DRC-PLACE-OVERLAP") == 1
    assert not report.ok


@pytest.fixture(scope="module")
def csamp_result(tech):
    from pathlib import Path

    from repro.circuits.csamp import CommonSourceAmpCircuit
    from repro.verify import WaiverSet

    # The repository baseline, like the CLI loads by default: the audit
    # flags the reconciled load sizing's min-width jumpers (a known
    # generator limitation with a committed waiver).
    waivers = WaiverSet.load(Path(__file__).parents[2] / ".reprolint.toml")
    flow = HierarchicalFlow(
        tech, placer_iterations=150, strict=True, waivers=waivers
    )
    return flow.run(
        CommonSourceAmpCircuit(tech), flavor="conventional", measure=False
    )


def test_flow_populates_verification(csamp_result):
    report = csamp_result.verification
    assert isinstance(report, Report)
    assert report.ok  # strict=True above: errors would have raised
    assert report.checked_shapes > 0


def test_flow_verify_disabled(tech):
    from repro.circuits.csamp import CommonSourceAmpCircuit

    flow = HierarchicalFlow(tech, placer_iterations=150, verify=False)
    result = flow.run(
        CommonSourceAmpCircuit(tech), flavor="conventional", measure=False
    )
    assert result.verification is None


def test_cli_verify_primitive_exits_zero(capsys):
    assert main(["verify", "diode_load", "--fins", "48",
                 "--variants", "1"]) == 0
    out = capsys.readouterr().out
    assert "diode_load" in out
    assert "error(s)" in out or "CLEAN" in out


def test_cli_verify_circuit_exits_zero(capsys):
    assert main(["verify", "csamp"]) == 0
    assert "cs_amplifier" in capsys.readouterr().out


def test_cli_verify_unknown_target_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["verify", "no_such_thing"])


def test_cli_verify_passive_target_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "capacitor"])


def test_cli_verify_includes_schematic_erc(capsys):
    assert main(["verify", "diode_load", "--fins", "48",
                 "--variants", "1"]) == 0
    assert "schematic ERC" in capsys.readouterr().out


def test_cli_verify_no_erc_flag(capsys):
    assert main(["verify", "diode_load", "--fins", "48",
                 "--variants", "1", "--no-erc"]) == 0
    assert "schematic ERC" not in capsys.readouterr().out


def test_cli_verify_format_json(capsys):
    assert main(["verify", "diode_load", "--fins", "48",
                 "--variants", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data and all(d["ok"] for d in data)
    assert all("counts" in d for d in data)
    assert any("waived" in d for d in data)


def test_cli_verify_severity_warning_fails(capsys):
    # Every generated cell carries via-enclosure warnings by design, so
    # the warning threshold flips the exit code and prints the report.
    assert main(["verify", "diode_load", "--fins", "48",
                 "--variants", "1", "--severity", "warning"]) == 1
    assert "DRC-VIA-ENCLOSURE" in capsys.readouterr().out


def test_cli_verify_waivers_flag(tmp_path, capsys):
    baseline = tmp_path / "w.toml"
    baseline.write_text(
        "[[waive]]\n"
        'rule = "DRC-VIA-ENCLOSURE"\n'
        'reason = "generator stacks redundant cuts"\n'
    )
    assert main(["verify", "diode_load", "--fins", "48", "--variants", "1",
                 "--severity", "warning", "--waivers", str(baseline)]) == 0
    assert "waived" in capsys.readouterr().out


def test_cli_verify_missing_waiver_file_raises():
    from repro.errors import VerificationError

    with pytest.raises(VerificationError):
        main(["verify", "diode_load", "--fins", "48", "--variants", "1",
              "--waivers", "no/such/file.toml"])
