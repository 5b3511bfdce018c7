"""The ``repro ingest`` and ``repro flow --netlist`` CLI surfaces."""

import json

import pytest

from repro.cli import build_parser, main

OTA = "examples/netlists/ota.sp"
DIFF_AMP = "examples/netlists/diff_amp.sp"


def test_ingest_text_output(capsys):
    assert main(["ingest", OTA]) == 0
    out = capsys.readouterr().out
    assert "u1_differential_pair" in out
    assert "differential_pair(base_fins=32)" in out
    assert "coverage 100.0%" in out


def test_ingest_json_output(capsys):
    assert main(["ingest", DIFF_AMP, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["circuit"] == "diff_amp"
    assert data["coverage"] == 1.0
    assert data["uncovered"] == []
    mirror = data["primitives"][0]
    assert mirror["binding"]["ratio"] == 4


def test_ingest_json_is_byte_deterministic(capsys):
    assert main(["ingest", OTA, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["ingest", OTA, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_ingest_exit_code_on_errors(tmp_path, capsys):
    bad = tmp_path / "asym.sp"
    bad.write_text(
        "* asym\n"
        "MA outp inp tail 0 nfet nfin=8 nf=2\n"
        "MB outn inn tail 0 nfet nfin=10 nf=2\n"
        "MT tail vb 0 0 nfet nfin=8 nf=2\n"
        "Rp vdd! outp 10k\n"
        "Rn vdd! outn 10k\n"
        ".end\n"
    )
    assert main(["ingest", str(bad), "--no-validate"]) == 1
    out = capsys.readouterr().out
    assert "TOPO-ASYM-SIZE" in out


def test_ingest_severity_threshold(tmp_path, capsys):
    lonely = tmp_path / "lonely.sp"
    lonely.write_text(
        "* lonely\n"
        "M1 out vb ns 0 nfet nfin=8 nf=2\n"
        "Rs ns 0 1k\n"
        "Rl vdd! out 10k\n"
        "Vbias vb 0 0.4\n"
        "Vsup vdd! 0 0.8\n"
        ".end\n"
    )
    args = ["ingest", str(lonely), "--no-validate"]
    assert main(args) == 0  # TOPO-UNCOVERED is only a warning
    capsys.readouterr()
    assert main(args + ["--severity", "warning"]) == 1
    assert "TOPO-UNCOVERED" in capsys.readouterr().out


def test_flow_netlist_conventional(capsys):
    assert main(["flow", "--netlist", DIFF_AMP,
                 "--flavor", "conventional"]) == 0
    out = capsys.readouterr().out
    assert DIFF_AMP in out


def test_flow_rejects_circuit_and_netlist_together():
    with pytest.raises(SystemExit):
        main(["flow", "ota", "--netlist", OTA])


def test_flow_rejects_neither():
    with pytest.raises(SystemExit):
        main(["flow"])


def test_ingest_parser_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["ingest", "x.sp", "--format", "json", "--no-validate",
         "--severity", "warning", "--max-per-rule", "9"]
    )
    assert args.netlist == "x.sp"
    assert args.validate is False
