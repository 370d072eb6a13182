"""Tests for repro.obs.ledger: run records, diff/regressions."""

import json
import os
import time

import pytest

from repro.cli import EXIT_ISSUES, EXIT_OK, EXIT_USAGE, main
from repro.dataflow.graph import PerFlowGraph
from repro.obs import ledger as obs_ledger
from repro.obs import trace as obs_trace
from repro.obs.ledger import (
    Ledger,
    build_run_record,
    diff_records,
    find_regressions,
    resolve_ledger,
)


# ----------------------------------------------------------------------
# configuration resolution
# ----------------------------------------------------------------------
def test_resolve_ledger_flag_wins(monkeypatch, tmp_path):
    monkeypatch.setenv(obs_ledger.ENV_LEDGER, "0")
    assert resolve_ledger(True, str(tmp_path)) == str(tmp_path)
    monkeypatch.setenv(obs_ledger.ENV_LEDGER, "1")
    assert resolve_ledger(False) is None


def test_resolve_ledger_env_and_defaults(monkeypatch, tmp_path):
    monkeypatch.delenv(obs_ledger.ENV_LEDGER, raising=False)
    monkeypatch.setenv(obs_ledger.ENV_LEDGER_DIR, str(tmp_path / "led"))
    assert resolve_ledger() == str(tmp_path / "led")  # on by default
    monkeypatch.delenv(obs_ledger.ENV_LEDGER_DIR)
    assert resolve_ledger() == obs_ledger.DEFAULT_DIR
    for off in ("0", "false", "no", "off"):
        monkeypatch.setenv(obs_ledger.ENV_LEDGER, off)
        assert resolve_ledger() is None
    monkeypatch.setenv(obs_ledger.ENV_LEDGER, "maybe")
    with pytest.raises(ValueError):
        resolve_ledger()


# ----------------------------------------------------------------------
# record construction
# ----------------------------------------------------------------------
RECORD_KEYS = {
    "schema",
    "run_id",
    "time",
    "command",
    "argv",
    "program",
    "paradigm",
    "params",
    "identity",
    "pag_fingerprints",
    "wall_s",
    "cpu_s",
    "exit_code",
    "nodes",
    "spans",
    "metrics",
    "python",
    "platform",
    "pid",
}


def test_build_run_record_shape():
    rec = build_run_record(
        "run",
        ["run", "cg", "--np", "4"],
        program="cg",
        params={"np": 4, "threads": 1},
        wall_s=1.234567891,
        exit_code=0,
        pag_fingerprints=["bbb", "aaa"],
    )
    assert set(rec) == RECORD_KEYS
    assert rec["schema"] == obs_ledger.SCHEMA
    assert rec["identity"] == "run|-|cg|np=4|threads=1"
    assert rec["pag_fingerprints"] == ["aaa", "bbb"]  # sorted
    assert rec["wall_s"] == 1.234568  # rounded
    assert rec["nodes"] == {} and rec["spans"] == {}
    json.dumps(rec)


def test_rollup_separates_nodes_and_tracks_cache():
    # `spans` is the recorder's span summary, node spans included;
    # `nodes` holds only what the node spans' args add to it.
    rec = obs_trace.enable()
    with obs_trace.span("pipeline:p", category="dataflow"):
        with obs_trace.span("node:hot", category="dataflow") as sp:
            sp.set(in_size=100, out_size=10, cache_hit=False)
        with obs_trace.span("node:hot", category="dataflow") as sp:
            sp.set(in_size=100, out_size=10, cache_hit=True)
        with obs_trace.span("pipeline.check", category="dataflow"):
            pass
    obs_trace.disable()
    record = build_run_record("run", ["run"], recorder=rec)
    assert record["spans"] == obs_trace.summarize(rec)
    assert set(record["spans"]) == {"pipeline:p", "node:hot", "pipeline.check"}
    hot = record["spans"]["node:hot"]
    assert hot["count"] == 2
    assert hot["sum"] >= hot["max"] >= hot["p50"] >= hot["min"] >= 0
    assert record["nodes"] == {
        "hot": {"in_size": 100, "out_size": 10, "cache_hits": 1, "cache_misses": 1}
    }


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
# A fixed, non-zero epoch base: record times must be truthy (0.0 would
# fall back to "now" in the daily-file key) and land on one day.
T0 = 1700000000.0


def _record(identity="run|-|cg|np=4", node_s=0.1, run_id=None, t=None, fps=("f1",),
            spans=None):
    """A record whose recorder held ``spans`` (name -> durations); by
    default node "hot" once for ``node_s`` and node "cold" twice."""
    if spans is None:
        spans = {"node:hot": [node_s], "node:cold": [0.01, 0.01]}
    rec = obs_trace.SpanRecorder()
    for name, durations in spans.items():
        for dur in durations:
            rec.record_completed(name, "dataflow", t_start=0.0, t_end=dur)
    rec = build_run_record(
        "run", ["run", "cg"], program="cg", recorder=rec, pag_fingerprints=list(fps)
    )
    rec["identity"] = identity
    if run_id:
        rec["run_id"] = run_id
    if t is not None:
        rec["time"] = t
    return rec


def test_ledger_append_read_and_prefix_get(tmp_path):
    led = Ledger(str(tmp_path / "led"))
    a = _record(run_id="20260808T010101-1-aaaa1111")
    b = _record(run_id="20260808T020202-1-bbbb2222")
    led.append(a)
    led.append(b)
    recs = led.records()
    assert [r["run_id"] for r in recs] == [a["run_id"], b["run_id"]]
    assert [r["run_id"] for r in led.history(limit=1)] == [b["run_id"]]
    assert led.get("20260808T0101")["run_id"] == a["run_id"]
    with pytest.raises(KeyError):
        led.get("nope")
    with pytest.raises(KeyError):
        led.get("20260808T0")  # ambiguous prefix


def test_ledger_skips_corrupt_lines(tmp_path):
    led = Ledger(str(tmp_path / "led"))
    led.append(_record(run_id="20260808T010101-1-aaaa1111"))
    path = led._files()[0]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{torn line\n")
        fh.write("42\n")  # valid JSON but not a record
        fh.write("\n")
    led.append(_record(run_id="20260808T020202-1-bbbb2222"))
    assert len(led.records()) == 2


def test_ledger_skips_records_of_another_schema(tmp_path):
    led = Ledger(str(tmp_path / "led"))
    old = _record(run_id="20260808T010101-1-aaaa1111")
    old["schema"] = obs_ledger.SCHEMA - 1
    led.append(old)
    new = _record(run_id="20260808T020202-1-bbbb2222")
    led.append(new)
    assert [r["run_id"] for r in led.records()] == [new["run_id"]]
    # ...so an old record never joins a new one's baseline.
    assert led.baseline_for(new) == []


def test_ledger_eviction_drops_oldest_never_newest(tmp_path):
    root = str(tmp_path / "led")
    led = Ledger(root, max_bytes=1)  # force eviction on every append
    os.makedirs(root)
    old = os.path.join(root, "runs-20250101.jsonl")
    with open(old, "w", encoding="utf-8") as fh:
        fh.write("x" * 4096 + "\n")
    past = time.time() - 86400
    os.utime(old, (past, past))
    led.append(_record())
    names = sorted(os.listdir(root))
    assert "runs-20250101.jsonl" not in names
    assert len(names) == 1 and names[0].startswith("runs-")


def test_baseline_matches_identity_and_fingerprints(tmp_path):
    led = Ledger(str(tmp_path / "led"))
    target = _record(t=T0 + 100.0, run_id="20260808T010105-1-eeee0005")
    matching = [
        _record(t=T0 + i, run_id=f"20260808T01010{i}-1-aaaa000{i}")
        for i in range(3)
    ]
    other_identity = _record(identity="run|-|ep|np=4", t=T0 + 50.0,
                             run_id="20260808T010103-1-cccc0003")
    other_fp = _record(t=T0 + 60.0, fps=("different",),
                       run_id="20260808T010104-1-dddd0004")
    for rec in matching + [other_identity, other_fp, target]:
        led.append(rec)
    base = led.baseline_for(target)
    assert [r["run_id"] for r in base] == [r["run_id"] for r in matching]
    assert led.baseline_for(target, last=2) == base[-2:]


# ----------------------------------------------------------------------
# diff + regressions
# ----------------------------------------------------------------------
def test_diff_records_reports_per_node_deltas():
    a = _record(node_s=0.1)
    b = _record(spans={"node:hot": [0.3], "node:cold": [0.01, 0.01], "node:new": [0.05],
                       "pipeline:p": [9.0]})
    rows = diff_records(a, b)
    assert [r["name"] for r in rows] == ["hot", "new", "cold"]  # by |delta|
    hot = rows[0]
    assert hot["a_s"] == 0.1 and hot["b_s"] == 0.3
    assert hot["delta_s"] == pytest.approx(0.2)
    assert hot["pct"] == pytest.approx(200.0)
    new = rows[1]
    assert new["a_s"] is None and new["pct"] is None
    assert rows[2]["delta_s"] == 0.0
    assert len(rows) == 3  # non-node spans are not nodes


def test_find_regressions_needs_min_baseline():
    target = _record(node_s=10.0)
    base = [_record(node_s=0.1), _record(node_s=0.1)]
    assert find_regressions(target, base) == []


def test_find_regressions_three_gates():
    base = [_record(node_s=s) for s in (0.100, 0.101, 0.099, 0.100)]
    # Clearly slower: breaches the relative, MAD, and absolute gates.
    findings = find_regressions(_record(node_s=0.300), base)
    assert [f["name"] for f in findings] == ["hot"]
    f = findings[0]
    assert f["current_s"] == 0.3
    assert f["median_s"] == pytest.approx(0.1, abs=0.001)
    assert f["pct"] == pytest.approx(200.0, abs=3.0)
    assert f["samples"] == 4
    # Inside the 25% band: clean.
    assert find_regressions(_record(node_s=0.110), base) == []
    # Above 25% relative but under the absolute floor: clean.  "hot" at
    # 0.4ms over a 0.1s median cannot happen, so shrink the scale.
    tiny_base = [_record(node_s=s * 1e-4) for s in (1.0, 1.0, 1.0)]
    assert find_regressions(_record(node_s=2e-4), tiny_base) == []


def test_find_regressions_five_clean_reruns_no_false_positive():
    # Acceptance: realistic jitter around a stable median never flags.
    jitter = (0.100, 0.103, 0.097, 0.101, 0.099, 0.102, 0.098, 0.100)
    records = [_record(node_s=s) for s in jitter]
    for i in range(3, 8):  # 5 consecutive judgeable runs
        target, base = records[i], records[:i]
        assert find_regressions(target, base) == [], f"false positive at run {i}"


# ----------------------------------------------------------------------
# CLI: ledger writes on run/paradigm
# ----------------------------------------------------------------------
def _ledger_from_env():
    return Ledger(os.environ["PERFLOW_LEDGER_DIR"])  # pinned by conftest


def test_cli_run_appends_a_ledger_record(capsys):
    assert main(["run", "cg", "--np", "2", "--class", "S"]) == EXIT_OK
    recs = _ledger_from_env().records()
    assert len(recs) == 1
    rec = recs[0]
    assert rec["command"] == "run" and rec["program"] == "cg"
    assert rec["params"]["np"] == 2
    assert rec["exit_code"] == 0
    assert rec["wall_s"] > 0
    # Its PAG is simulated from the inputs in `identity`: nothing to key on.
    assert rec["pag_fingerprints"] == []
    # A plain `run` has no PerFlowGraph pipeline (no node:* spans), but
    # the runtime/pag phase spans are still summarized.
    assert "run.engine" in rec["spans"]
    assert rec["nodes"] == {}
    assert not obs_trace.enabled()  # internal recorder uninstalled


def test_cli_no_ledger_flag_skips_record(capsys):
    assert main(["run", "cg", "--np", "2", "--class", "S", "--no-ledger"]) == EXIT_OK
    assert _ledger_from_env().records() == []


def test_cli_env_disables_ledger(monkeypatch, capsys):
    monkeypatch.setenv(obs_ledger.ENV_LEDGER, "0")
    assert main(["run", "cg", "--np", "2", "--class", "S"]) == EXIT_OK
    assert _ledger_from_env().records() == []


def test_cli_garbage_ledger_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv(obs_ledger.ENV_LEDGER, "bananas")
    with pytest.raises(SystemExit) as exc:
        main(["run", "cg", "--np", "2", "--class", "S"])
    assert exc.value.code == EXIT_USAGE


def test_cli_obs_history_show_diff(capsys):
    # Paradigm runs execute a PerFlowGraph, so the records carry
    # node:* span summaries for show/diff to report.
    for _ in range(2):
        args = ["paradigm", "mpi_profiler", "--app", "cg", "--np", "4", "--class", "S"]
        assert main(args) == EXIT_OK
    capsys.readouterr()
    recs = _ledger_from_env().records()
    assert len(recs) == 2
    id_a, id_b = recs[0]["run_id"], recs[1]["run_id"]

    assert main(["obs", "history"]) == EXIT_OK
    out = capsys.readouterr().out
    assert id_a in out and id_b in out

    assert main(["obs", "history", "--json", "--limit", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [r["run_id"] for r in doc] == [id_b]  # newest first

    assert main(["obs", "show", id_a[:-1]]) == EXIT_OK  # prefix lookup
    out = capsys.readouterr().out
    assert id_a in out and "identity:" in out and "nodes (" in out
    assert "p50(s)" in out and "max(s)" in out
    node_names = set(recs[0]["nodes"])
    assert node_names
    for name in node_names:
        summ = recs[0]["spans"]["node:" + name]
        line = next(ln for ln in out.splitlines() if ln.split()[:1] == [name])
        assert line.split()[1:5] == [
            str(summ["count"]), f"{summ['sum']:.4f}", f"{summ['p50']:.4f}",
            f"{summ['max']:.4f}",
        ]

    assert main(["obs", "diff", id_a, id_b]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta(s)" in out
    assert any(name in out for name in node_names)

    assert main(["obs", "diff", id_a, id_b, "--json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in rows} == node_names
    # Each delta is the difference of the two records' node:* sums.
    for row in rows:
        a_sum = recs[0]["spans"]["node:" + row["name"]]["sum"]
        b_sum = recs[1]["spans"]["node:" + row["name"]]["sum"]
        assert row["a_s"] == a_sum and row["b_s"] == b_sum
        assert row["delta_s"] == pytest.approx(b_sum - a_sum, abs=1e-9)


def test_cli_record_spans_are_the_commands_span_summary(monkeypatch, capsys):
    from repro.obs import flight as obs_flight

    recorders = []
    enable = obs_flight.enable

    def capture(capacity):
        recorders.append(enable(capacity))
        return recorders[-1]

    monkeypatch.setattr(obs_flight, "enable", capture)
    args = ["paradigm", "mpi-profiler", "cg", "--np", "4", "--class", "S"]
    assert main(args) == EXIT_OK
    (record,) = _ledger_from_env().records()
    (recorder,) = recorders
    assert recorder.capacity is None  # a ledgered command keeps every span
    assert record["spans"] == obs_trace.summarize(recorder)
    assert any(name.startswith("node:") for name in record["spans"])


def test_cli_obs_show_unknown_run_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obs", "show", "zzzz"])
    assert exc.value.code == EXIT_USAGE


def test_cli_obs_regressions_end_to_end(tmp_path, capsys):
    """Acceptance: a slowed node is flagged; clean reruns never are."""
    led = Ledger(str(tmp_path / "led"))
    jitter = (0.100, 0.103, 0.097, 0.101, 0.099)
    clean = [
        _record(node_s=s, t=T0 + i, run_id=f"20260808T0101{i:02d}-1-cafe{i:04d}")
        for i, s in enumerate(jitter)
    ]
    for rec in clean:
        led.append(rec)

    # 5 consecutive clean runs: judge each against its predecessors.
    for rec in clean[3:]:
        rc = main(["obs", "regressions", "--ledger-dir", led.root,
                   "--run", rec["run_id"]])
        assert rc == EXIT_OK
        assert "no regressions" in capsys.readouterr().out

    # Sleep-injected slowdown: 3x the median must be flagged.
    slow = _record(node_s=0.300, t=T0 + 99.0, run_id="20260808T010199-1-dead9999")
    led.append(slow)
    rc = main(["obs", "regressions", "--ledger-dir", led.root, "--threshold", "25%"])
    assert rc == EXIT_ISSUES
    out = capsys.readouterr().out
    assert "hot" in out and "+" in out

    rc = main(["obs", "regressions", "--ledger-dir", led.root, "--json"])
    assert rc == EXIT_ISSUES
    doc = json.loads(capsys.readouterr().out)
    assert doc["run_id"] == slow["run_id"]
    assert doc["baseline_runs"] == 5
    assert [f["name"] for f in doc["regressions"]] == ["hot"]


def test_cli_obs_regressions_without_node_spans_judges_nothing(tmp_path, capsys):
    # A `run` / `serve` record or a paradigm without a pipeline has no
    # node:* spans: there is nothing to call clean.
    led = Ledger(str(tmp_path / "led"))
    for i in range(4):
        led.append(_record(spans={"run.engine": [0.1 * (i + 1)]}, t=T0 + i,
                           run_id=f"20260808T0101{i:02d}-1-beef{i:04d}"))
    rc = main(["obs", "regressions", "--ledger-dir", led.root])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "nothing to judge: 20260808T010103-1-beef0003 has no pipeline node spans" in out
    assert "no regressions" not in out


def test_cli_obs_regressions_not_enough_history(tmp_path, capsys):
    led = Ledger(str(tmp_path / "led"))
    led.append(_record(run_id="20260808T010101-1-feed0001"))
    rc = main(["obs", "regressions", "--ledger-dir", led.root])
    assert rc == EXIT_OK
    assert "not enough history" in capsys.readouterr().out


def test_cli_obs_regressions_empty_ledger_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obs", "regressions", "--ledger-dir", str(tmp_path / "empty")])
    assert exc.value.code == EXIT_USAGE


def test_cli_obs_regressions_bad_threshold(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obs", "regressions", "--ledger-dir", str(tmp_path),
              "--threshold", "fast"])
    assert exc.value.code == EXIT_USAGE


def test_real_pipeline_regression_detected(capsys):
    """Slowed real pass through graph.run → ledger → regressions."""
    import time as time_mod

    led = _ledger_from_env()

    def one_run(delay):
        g = PerFlowGraph("sleepy")
        src = g.input("src")

        def napper(x):
            time_mod.sleep(delay)
            return x

        g.add_pass(napper, src, name="napper", cacheable=False)
        rec = obs_trace.enable()
        g.run(src=1)
        obs_trace.disable()
        record = build_run_record(
            "run", ["run", "sleepy"], program="sleepy", recorder=rec
        )
        led.append(record)
        return record

    for _ in range(4):
        one_run(0.005)
    slow = one_run(0.08)
    rc = main(["obs", "regressions", "--run", slow["run_id"]])
    assert rc == EXIT_ISSUES
    assert "napper" in capsys.readouterr().out


# ----------------------------------------------------------------------
# test-isolation regression: a leaked PERFLOW_LEDGER must not cross tests
# ----------------------------------------------------------------------
# These two tests are order-dependent by design (pytest runs them in
# definition order within the file): the first leaks ledger state the
# way a buggy test would — mutating ``os.environ`` directly, bypassing
# monkeypatch — and the second asserts the autouse ``_isolate_obs_state``
# fixture scrubbed every trace of it.


def test_isolation_leak_ledger_env_raw():
    os.environ["PERFLOW_LEDGER"] = "definitely-not-a-boolean"
    # inside the test the leak is visible to the process...
    assert os.environ["PERFLOW_LEDGER"] == "definitely-not-a-boolean"


def test_isolation_ledger_env_scrubbed_between_tests():
    # ...but the next test starts clean: the garbage value would make
    # resolve_ledger() raise.
    assert "PERFLOW_LEDGER" not in os.environ
    assert obs_ledger.resolve_ledger() is not None  # on by default again
