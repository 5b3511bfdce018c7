"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.runtime.policy import DEFAULT_RETRIES


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "differential_pair" in out
    assert "ota" in out


def test_optimize_command(capsys):
    assert main(["optimize", "current_source", "--fins", "48",
                 "--bins", "2", "--max-wires", "3"]) == 0
    out = capsys.readouterr().out
    assert "simulations" in out
    assert "cost" in out


def test_flow_command(capsys):
    assert main(["flow", "csamp", "--flavor", "conventional"]) == 0
    out = capsys.readouterr().out
    assert "gain_db" in out


def test_render_command(tmp_path, capsys):
    assert main(
        ["render", "diode_load", "--fins", "48", "--outdir", str(tmp_path)]
    ) == 0
    svgs = list(tmp_path.glob("*.svg"))
    sps = list(tmp_path.glob("*.sp"))
    assert len(svgs) == 1
    assert len(sps) == 1
    assert svgs[0].read_text().startswith("<svg")


def test_unknown_circuit_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["flow", "nonexistent"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


#: The former on/off switch of the evaluation cache, on both commands.
_CACHE_SWITCHES = [
    pytest.param(
        [command, target, f"--{prefix}cache"], id=f"{command}-{prefix}cache"
    )
    for command, target in (("optimize", "differential_pair"), ("flow", "csamp"))
    for prefix in ("", "no-")
]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["optimize", "differential_pair", "--cache-dir", "d"],
            id="optimize-cache-dir",
        ),
        pytest.param(["flow", "csamp", "--cache-max-mb", "8"], id="flow-cache-max-mb"),
        pytest.param(["cache", "stats", "--cache-dir", "d"], id="cache-stats"),
        *_CACHE_SWITCHES,
    ],
)
def test_disk_cache_options_are_gone(argv, capsys):
    # The cache is memory-only and always on; the journal under
    # --run-dir is the only state a run keeps on disk.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "differential_pair", "--deadline", "1"],
        ["flow", "csamp", "--deadline", "0.5"],
        ["verify", "diode_load", "--strict"],
        ["verify", "diode_load", "--json"],
    ],
    ids=["optimize-deadline", "flow-deadline", "verify-strict", "verify-json"],
)
def test_deadline_and_verify_aliases_are_gone(argv, capsys):
    # Retries are the runtime's only policy; verify takes --severity and
    # --format only.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "no_such_primitive", "--resume"],
        ["flow", "csamp", "--resume"],
    ],
    ids=["optimize", "flow"],
)
def test_resume_without_run_dir_is_a_usage_error(argv, capsys):
    # Rejected while parsing, before any primitive is built (the
    # primitive name above would fail later) or any netlist ingested.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--resume requires --run-dir" in err


def test_solver_backend_follows_system_size_only(monkeypatch, capsys):
    from repro.spice import Circuit, CompiledCircuit, dc_operating_point, kernel
    from repro.tech import Technology

    # The environment no longer overrides the size rule: a 2-unknown
    # system (one node plus the source branch) solves dense.
    monkeypatch.setenv("REPRO_SOLVER", "sparse")
    c = Circuit("tiny")
    c.add_vsource("vin", "a", "0", 1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    compiled = CompiledCircuit(c, Technology.default().rules)
    assert compiled.size == 2
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        dc_operating_point(compiled)
    assert stats.backends == {kernel.DENSE: stats.solves}
    # Nor is there a flag for it.
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "differential_pair", "--solver", "dense"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --solver" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--retries", "-3"),
        ("--retries", "two"),
    ],
)
@pytest.mark.parametrize("command", ["optimize", "flow"])
def test_out_of_range_runtime_flags_rejected(command, flag, value, capsys):
    target = "differential_pair" if command == "optimize" else "csamp"
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, target, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "current_mirror", "--bins", "0"],
        ["optimize", "current_mirror", "--fins", "0"],
        ["flow", "csamp", "--bins", "0"],
        ["profile", "current_mirror", "--bins", "-1"],
        ["profile", "current_mirror", "--fins", "0"],
        ["verify", "current_mirror", "--fins", "-4"],
        ["render", "current_mirror", "--fins", "0"],
        ["optimize", "current_mirror", "--max-wires", "0"],
        ["optimize", "current_mirror", "--max-wires", "-2"],
        ["flow", "csamp", "--max-wires", "0"],
        ["verify", "current_mirror", "--max-wires", "0"],
        ["profile", "current_mirror", "--max-wires", "0"],
        ["verify", "current_mirror", "--variants", "0"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[2:]),
)
def test_bins_and_fins_below_one_rejected(argv, capsys):
    # Rejected while parsing, before any simulation is spent.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"argument {argv[2]}: must be >= 1" in capsys.readouterr().err


def test_in_range_runtime_flags_accepted():
    args = build_parser().parse_args(
        ["optimize", "differential_pair", "--retries", "0", "--bins", "1",
         "--fins", "1", "--max-wires", "1"]
    )
    assert (args.retries, args.bins, args.fins, args.max_wires) == (0, 1, 1, 1)
    default = build_parser().parse_args(["flow", "csamp"])
    assert default.retries == DEFAULT_RETRIES == 1
