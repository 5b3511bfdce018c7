"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


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


def test_cache_stats_counts_only_evalcache_entries(tmp_path, capsys):
    import json

    from repro.runtime import EvalCache

    entry = {"gm": 1.0e-3, "gain_db": 20.0}
    cache = EvalCache(disk_dir=tmp_path)
    cache.put("a" * 16, entry, 1)
    size = (tmp_path / f"{'a' * 16}.json").stat().st_size
    # A leftover corpus file larger than the whole size cap: the disk
    # tier globs *.json, so it is neither counted nor evicted.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"family": "x", "cost": 1.0}\n' * 64)
    capped = EvalCache(disk_dir=tmp_path, max_disk_bytes=size + size // 2)
    capped.put("b" * 16, entry, 1)
    assert capped.stats.disk_evicted == 1
    assert corpus.is_file()

    argv = ["cache", "stats", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first) == {
        "entries": 1,
        "bytes": size,
        "dir": str(tmp_path),
    }


def test_cache_stats_requires_cache_dir():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cache", "stats"])
