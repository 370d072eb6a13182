"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_ISSUES, EXIT_OK, EXIT_USAGE, main, make_parser


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("cg", "zeusmp", "lammps", "vite"):
        assert name in out
    assert "paradigms:" in out


def test_run_summary(capsys):
    assert main(["run", "cg", "--np", "4", "--class", "S"]) == 0
    out = capsys.readouterr().out
    assert "4 ranks" in out
    assert "|V|=321" in out
    assert "overhead" in out


def test_run_with_report_and_dot(tmp_path, capsys):
    dot = tmp_path / "pag.dot"
    assert main(["run", "ep", "--np", "2", "--class", "S", "--report", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "PerFlow report" in out
    assert dot.exists()
    assert dot.read_text().startswith("digraph")


def test_run_prints_the_deadlock_and_its_blocked_units(monkeypatch, capsys):
    from repro.ir.model import CommCall, CommOp, Function, Program

    ring = Program(name="ring")
    ring.add_function(Function("main", [
        CommCall(CommOp.SEND, peer=lambda c: (c.rank + 1) % c.nprocs, nbytes=1 << 20),
        CommCall(CommOp.RECV, peer=lambda c: (c.rank - 1) % c.nprocs, nbytes=1 << 20),
    ]))
    monkeypatch.setattr("repro.cli.registry", lambda *a: {"ring": lambda: ring})
    assert main(["run", "ring", "--np", "3", "--no-ledger"]) == EXIT_ISSUES
    assert capsys.readouterr().out == (
        "ring: deadlock — 3 unit(s) blocked forever: rank 0 thread 0 on MPI_Send to 1, "
        "rank 1 thread 0 on MPI_Send to 2, rank 2 thread 0 on MPI_Send to 0\n"
    )


def test_pag_stats(capsys):
    assert main(["pag", "stats", "cg", "--np", "4", "--class", "S"]) == 0
    out = capsys.readouterr().out
    assert "top-down view" in out
    assert "string table" in out
    assert "time_per_rank" in out


def test_pag_stats_json_with_parallel(capsys):
    assert main(
        ["pag", "stats", "cg", "--np", "4", "--class", "S", "--parallel", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"top-down", "parallel"}
    td = payload["top-down"]
    assert td["total"] > 0
    assert td["vertex_column_kinds"]["time"] == "f"
    assert payload["parallel"]["num_vertices"] > td["num_vertices"]


def test_unknown_program_exits_with_usage_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "nonexistent"])
    assert exc.value.code == EXIT_USAGE
    assert "unknown program" in capsys.readouterr().err


def test_paradigm_mpi_profiler(capsys):
    assert main(["paradigm", "mpi-profiler", "cg", "--np", "4", "--class", "S"]) == 0
    out = capsys.readouterr().out
    assert "app%" in out
    assert "MPI_" in out


def test_paradigm_communication(capsys):
    assert main(["paradigm", "communication", "zeusmp", "--np", "8"]) == 0
    out = capsys.readouterr().out
    assert "communication analysis" in out


def test_paradigm_scalability_requires_np_large(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paradigm", "scalability", "cg", "--np", "4", "--class", "S"])
    assert exc.value.code == EXIT_USAGE
    assert "np-large" in capsys.readouterr().err


def test_paradigm_scalability(capsys):
    assert main(
        ["paradigm", "scalability", "zeusmp", "--np", "4", "--np-large", "16"]
    ) == 0
    out = capsys.readouterr().out
    assert "scaling-loss hotspots" in out
    assert "root-cause candidates" in out


def test_paradigm_critical_path(capsys):
    assert main(["paradigm", "critical-path", "ep", "--np", "2", "--class", "S"]) == 0
    out = capsys.readouterr().out
    assert "critical path weight" in out


def test_paradigm_contention(capsys):
    assert main(["paradigm", "contention", "vite", "--np", "2", "--threads", "8"]) == 0
    out = capsys.readouterr().out
    assert "differential suspects" in out
    assert "contention" in out


def test_table1_command(capsys):
    assert main(["table1", "--ranks", "8", "--class", "S"]) == 0
    out = capsys.readouterr().out
    assert "dynamic%" in out
    assert "zeusmp" in out


def test_table2_command(capsys):
    assert main(["table2", "--ranks", "8", "--class", "S"]) == 0
    out = capsys.readouterr().out
    assert "|V|td" in out
    assert "85230" in out  # lammps row


@pytest.mark.parametrize(
    "argv, analysed, compared",
    [
        (["contention", "vite", "--np", "2", "--threads", "8"], (2, 8), (2, 2)),
        (["scalability", "zeusmp", "--np", "4", "--np-large", "16"], (4, 1), (16, 1)),
        (["mpi-profiler", "cg", "--np", "4"], (4, 1), None),
    ],
    ids=["contention", "scalability", "mpi-profiler"],
)
def test_paradigm_save_pag_writes_the_analysed_run(argv, analysed, compared, tmp_path, capsys):
    from repro.apps import registry
    from repro.dataflow.api import PerFlow
    from repro.pag.formats import save_pag
    from repro.pag.formats.format3 import pag_file_fingerprint

    saved = tmp_path / "saved.pag3"
    argv = ["paradigm", *argv, "--class", "S", "--save-pag", str(saved)]
    assert main(argv) == EXIT_OK
    assert f"wrote PAG: {saved}" in capsys.readouterr().out

    def fingerprint(nprocs, nthreads):
        pag = PerFlow().run(bin=registry("S")[argv[2]](), nprocs=nprocs, nthreads=nthreads)
        path = tmp_path / f"fresh-{nprocs}x{nthreads}.pag3"
        save_pag(pag, path)
        return pag_file_fingerprint(path)

    assert pag_file_fingerprint(saved) == fingerprint(*analysed)
    if compared:
        assert pag_file_fingerprint(saved) != fingerprint(*compared)


@pytest.mark.parametrize(
    "name, fn, argv",
    [
        ("mpi-profiler", "mpi_profiler_paradigm", ["cg", "--np", "4"]),
        ("communication", "communication_analysis_paradigm", ["zeusmp", "--np", "4"]),
        ("scalability", "scalability_analysis_paradigm", ["zeusmp", "--np", "4", "--np-large", "8"]),
        ("critical-path", "critical_path_paradigm", ["ep", "--np", "2"]),
        ("contention", "branching_diagnosis_paradigm", ["vite", "--np", "2", "--threads", "4"]),
    ],
)
def test_paradigm_runs_the_module_attribute_once(name, fn, argv, monkeypatch, capsys):
    """`repro paradigm NAME` calls ``repro.paradigms.<fn>`` as the module
    holds it at call time, once: a wrapper patched there (as
    bench/cli_workloads.py does for its ``paradigms.body`` span) sees it."""
    import repro.paradigms

    real, calls = getattr(repro.paradigms, fn), []

    def recording(*args, **kwargs):
        calls.append(fn)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.paradigms, fn, recording)
    assert main(["paradigm", name, *argv, "--class", "S"]) == EXIT_OK
    assert calls == [fn]
    capsys.readouterr()


def test_parser_rejects_bad_paradigm():
    parser = make_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["paradigm", "nope", "cg"])


# ----------------------------------------------------------------------
# pass-result cache flags and subcommand
# ----------------------------------------------------------------------
def test_paradigm_with_cache_dir_populates_disk(tmp_path, capsys):
    cache_dir = tmp_path / "pf-cache"
    argv = [
        "paradigm", "mpi-profiler", "cg",
        "--np", "4", "--class", "S", "--cache-dir", str(cache_dir),
    ]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == EXIT_OK
    stats = capsys.readouterr().out
    assert "entries: 3" in stats
    # warm rerun reproduces the same output from cache
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == EXIT_OK
    assert "removed 3" in capsys.readouterr().out


def test_cache_stats_empty_dir(tmp_path, capsys):
    assert main(["cache", "stats", "--cache-dir", str(tmp_path / "none")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "entries: 0" in out


def test_cache_and_no_cache_flags_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "cg", "--cache", "--no-cache"])
    assert exc.value.code == EXIT_USAGE


def test_no_cache_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("PERFLOW_CACHE", "1")
    assert main(["run", "cg", "--np", "2", "--class", "S", "--no-cache"]) == EXIT_OK
    assert "ranks" in capsys.readouterr().out


def test_bad_cache_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("PERFLOW_CACHE", "banana")
    with pytest.raises(SystemExit) as exc:
        main(["run", "cg", "--np", "2", "--class", "S"])
    assert exc.value.code == EXIT_USAGE
    assert "PERFLOW_CACHE" in capsys.readouterr().err


@pytest.mark.parametrize("var", ["PERFLOW_JOBS", "PERFLOW_BACKEND"])
def test_bad_executor_env_is_usage_error(var, monkeypatch, capsys):
    # every PERFLOW_* default behind an executor flag is resolved up front
    monkeypatch.setenv(var, "banana")
    with pytest.raises(SystemExit) as exc:
        main(["run", "cg", "--np", "2", "--class", "S"])
    assert exc.value.code == EXIT_USAGE
    assert var in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["run", "cg"], ["paradigm", "mpi-profiler", "cg"], ["pag", "stats", "cg"], ["serve"]],
    ids=" ".join,
)
def test_executor_flags_are_shared_by_every_command_that_runs_graphs(command):
    def flags(args):
        return (args.jobs, args.backend, args.cache, args.cache_dir)

    parser = make_parser()
    assert flags(parser.parse_args(command)) == (None, None, None, None)
    given = ["--jobs", "3", "--backend", "process", "--no-cache", "--cache-dir", "D"]
    assert flags(parser.parse_args(command + given)) == (3, "process", False, "D")


# ----------------------------------------------------------------------
# pag stats --load and clean error mapping
# ----------------------------------------------------------------------
def _saved_pag(tmp_path):
    from repro.apps import npb
    from repro.dataflow.api import PerFlow
    from repro.pag.formats import save_pag

    pflow = PerFlow()
    pag = pflow.run(bin=npb.build_cg("S", iterations=2), nprocs=4)
    path = tmp_path / "cg.json"
    save_pag(pag, path)
    return path


def test_pag_stats_load_file(tmp_path, capsys):
    path = _saved_pag(tmp_path)
    assert main(["pag", "stats", "--load", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "top-down view" in out
    assert "|V|=321" in out


def test_pag_stats_load_rejects_parallel(tmp_path, capsys):
    path = _saved_pag(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["pag", "stats", "--load", str(path), "--parallel"])
    assert exc.value.code == EXIT_USAGE


def test_pag_stats_corrupt_file_is_clean_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 2, "name": "x", trunc', "utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["pag", "stats", "--load", str(bad)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "repro: error:" in err and str(bad) in err


def test_pag_stats_non_utf8_file_is_clean_usage_error(tmp_path, capsys):
    bad = tmp_path / "bytes.bin"
    bad.write_bytes(bytes(range(256)))
    with pytest.raises(SystemExit) as exc:
        main(["pag", "stats", "--load", str(bad)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "repro: error:" in err and str(bad) in err
    assert "Traceback" not in err


def test_pag_stats_truncated_format2_is_clean_usage_error(tmp_path, capsys):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"format": 2, "name": "x"}', "utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["pag", "stats", "--load", str(bad)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "format-2 files are no longer read" in err


def test_pag_stats_oserror_is_clean_usage_error(tmp_path, capsys):
    # a directory path raises EISDIR on read; missing files ENOENT —
    # both used to escape as tracebacks
    adir = tmp_path / "adir"
    adir.mkdir()
    for target in (adir, tmp_path / "missing.json"):
        with pytest.raises(SystemExit) as exc:
            main(["pag", "stats", "--load", str(target)])
        assert exc.value.code == EXIT_USAGE
        assert "repro: error:" in capsys.readouterr().err


def test_run_dot_oserror_is_clean_usage_error(tmp_path, capsys):
    dot_dir = tmp_path / "out.dot"
    dot_dir.mkdir()  # writing to a directory path fails with EISDIR
    with pytest.raises(SystemExit) as exc:
        main(["run", "cg", "--np", "2", "--class", "S", "--dot", str(dot_dir)])
    assert exc.value.code == EXIT_USAGE
    assert "repro: error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# pag convert, --mmap, and --save-pag (out-of-core storage plumbing)
# ----------------------------------------------------------------------
def _document_file(tmp_path):
    """A format-1 JSON document (the HTTP upload form) written to a file."""
    from repro.pag.formats import load_pag, pag_to_dict

    path = tmp_path / "cg-doc.json"
    path.write_text(json.dumps(pag_to_dict(load_pag(_saved_pag(tmp_path)))))
    return path


def test_pag_convert_roundtrip_preserves_fingerprint(tmp_path, capsys):
    from repro.pag.formats import detect_format, load_pag

    src = _document_file(tmp_path)
    binpath = tmp_path / "cg.pag3"
    assert main(["pag", "convert", str(src), str(binpath)]) == EXIT_OK
    assert "(format 1) ->" in capsys.readouterr().out
    assert detect_format(binpath) == 3
    fp = load_pag(src).fingerprint()
    assert load_pag(binpath, mmap=True).fingerprint() == fp
    with pytest.raises(SystemExit) as exc:
        main(["pag", "convert", str(binpath), str(src), "--format", "2"])
    assert exc.value.code == EXIT_USAGE


def test_pag_convert_corrupt_input_is_clean_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.pag3"
    bad.write_bytes(b"PAG3" + b"\xff" * 200)
    with pytest.raises(SystemExit) as exc:
        main(["pag", "convert", str(bad), str(tmp_path / "out.json")])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "repro: error:" in err and str(bad) in err


def test_pag_stats_load_mmap_shows_segments(tmp_path, capsys):
    src = _saved_pag(tmp_path)
    binpath = tmp_path / "cg.pag3"
    assert main(["pag", "convert", str(src), str(binpath)]) == EXIT_OK
    capsys.readouterr()
    assert main(
        ["pag", "stats", "--load", str(binpath), "--mmap", "--json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    disk = payload["on_disk"]
    assert disk["format"] == 3 and disk["mmap"] is True
    assert disk["lazy_columns"] > 0
    assert disk["header_bytes"] < disk["bytes"]
    assert "v_name" in disk["segments"]


def test_pag_stats_mmap_requires_format3(tmp_path, capsys):
    path = _document_file(tmp_path)  # JSON, not mmap-able
    with pytest.raises(SystemExit) as exc:
        main(["pag", "stats", "--load", str(path), "--mmap"])
    assert exc.value.code == EXIT_USAGE
    assert "format 3" in capsys.readouterr().err


def test_run_save_pag_writes_format3(tmp_path, capsys):
    from repro.pag.formats import detect_format, load_pag

    out = tmp_path / "run.pag3"
    assert main(
        ["run", "cg", "--np", "4", "--class", "S", "--save-pag", str(out)]
    ) == EXIT_OK
    assert out.exists() and detect_format(out) == 3
    assert load_pag(out, mmap=True).num_vertices == 321
    assert "pag_format" not in vars(make_parser().parse_args(["run", "cg"]))


def test_import_loads_no_pool_cache_store_or_codecs():
    """`import repro.cli` (every command's startup) leaves the process
    pool, the cache store, the format-3 codec and serve unloaded."""
    src = Path(__file__).resolve().parent.parent / "src"
    unwanted = [
        "multiprocessing",
        "concurrent.futures.process",
        "repro.dataflow.procpool",
        "repro.cache.store",
        "repro.pag.formats.format3",
        "repro.serve",
    ]
    code = f"import sys, repro.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
