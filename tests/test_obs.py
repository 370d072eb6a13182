"""Tests for repro.obs: span tracing, metrics, self-analysis, CLI flags."""

import json
import threading

import pytest

from repro.cli import EXIT_OK, EXIT_USAGE, main
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.selfpag import analyze_trace, trace_to_pag
from repro.obs.trace import (
    NULL_SPAN,
    SpanRecorder,
    enabled,
    scoped_recorder,
    span,
    timed_span,
)


@pytest.fixture(autouse=True)
def _restore_global_recorder():
    """Tests must never leak an installed recorder into the suite."""
    prev = obs_trace.get_recorder()
    yield
    obs_trace.set_recorder(prev if isinstance(prev, SpanRecorder) else None)


# ----------------------------------------------------------------------
# span recording
# ----------------------------------------------------------------------
def test_spans_nest_per_thread():
    rec = SpanRecorder()
    with rec.span("outer", category="t"):
        with rec.span("inner") as sp:
            sp.set(k=1)
    assert [s.name for s in rec.spans] == ["outer", "inner"]
    assert [s.name for s in rec.roots] == ["outer"]
    assert [c.name for c in rec.roots[0].children] == ["inner"]
    assert rec.find("inner")[0].args == {"k": 1}
    assert rec.roots[0].duration >= rec.roots[0].children[0].duration


def test_current_span_tracks_innermost():
    rec = obs_trace.enable()
    assert obs_trace.current_span() is None
    with span("a"):
        with span("b"):
            assert obs_trace.current_span().name == "b"
        assert obs_trace.current_span().name == "a"
    assert rec.current() is None


def test_threads_record_into_own_stacks():
    rec = obs_trace.enable()
    with span("main-root"):

        def work():
            with span("worker-root"):
                with span("worker-child"):
                    pass

        t = threading.Thread(target=work)
        t.start()
        t.join()
    roots = {s.name for s in rec.roots}
    # The worker's spans must not nest under the main thread's open span.
    assert roots == {"main-root", "worker-root"}
    worker = rec.find("worker-root")[0]
    assert [c.name for c in worker.children] == ["worker-child"]
    assert worker.tid != rec.find("main-root")[0].tid


def test_disabled_mode_returns_shared_null_span():
    assert not enabled()
    sp = span("anything", category="x", big=123)
    assert sp is NULL_SPAN
    assert not sp  # falsy => `if sp:` guards skip annotation work
    assert sp.set(a=1) is sp
    sp["k"] = 2
    assert sp.duration == 0.0
    with sp:
        pass


def test_timed_span_measures_even_when_disabled():
    assert not enabled()
    with timed_span("measured") as sp:
        sum(range(1000))
    assert sp.duration > 0.0
    # ...but records nowhere: no recorder was installed to receive it.
    assert not enabled()


def test_enable_disable_roundtrip():
    rec = obs_trace.enable()
    assert enabled()
    with span("s"):
        pass
    prev = obs_trace.disable()
    assert prev is rec
    assert not enabled()
    assert len(rec.spans) == 1


def test_scoped_recorder_restores_previous():
    outer = obs_trace.enable()
    with scoped_recorder() as rec:
        with span("inside"):
            pass
    assert obs_trace.get_recorder() is outer
    assert [s.name for s in rec.spans] == ["inside"]
    assert len(outer.spans) == 0


# ----------------------------------------------------------------------
# chrome export
# ----------------------------------------------------------------------
def test_chrome_trace_document(tmp_path):
    rec = obs_trace.enable()
    with span("root", category="demo", sizes=(1, 2)):
        with span("child", n=3):
            pass
    obs_trace.disable()
    doc = rec.to_chrome_trace(process_name="test-proc")
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    assert [e["name"] for e in complete] == ["root", "child"]
    root, child = complete
    assert root["ts"] == 0.0  # relative to the first span
    assert child["ts"] >= root["ts"]
    assert root["dur"] >= child["dur"]
    assert root["cat"] == "demo" and child["cat"] == "repro"
    assert child["args"] == {"n": 3}
    assert root["args"]["sizes"] == "(1, 2)"  # exotic values repr()ed

    path = tmp_path / "trace.json"
    nbytes = rec.save(path)
    assert nbytes == len(path.read_text("utf-8"))
    # save() writes the default process name; the events are identical.
    assert json.loads(path.read_text("utf-8")) == rec.to_chrome_trace()


def test_to_tree_filters_by_min_ms():
    rec = obs_trace.enable()
    with span("visible"):
        with span("fast-child"):
            pass
    obs_trace.disable()
    rec.find("visible")[0].t_end = rec.find("visible")[0].t_start + 0.5
    tree = rec.to_tree()
    assert "visible" in tree and "fast-child" in tree
    assert "fast-child" not in rec.to_tree(min_ms=100.0)
    assert "visible" in rec.to_tree(min_ms=100.0)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_metrics_registry_kinds():
    reg = MetricsRegistry()
    reg.counter("a.count").inc()
    reg.counter("a.count").inc(4)
    reg.gauge("a.gauge").set(2.5)
    data = reg.to_dict()
    assert data == {"counters": {"a.count": 5}, "gauges": {"a.gauge": 2.5}}
    assert "a.count" in reg and len(reg) == 2


def test_metrics_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError, match="is a Counter, not a Gauge"):
        reg.gauge("x")


def test_metrics_save_and_text(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c").inc(7)
    reg.gauge("g").set(3)
    path = tmp_path / "metrics.json"
    reg.save(str(path))
    loaded = json.loads(path.read_text("utf-8"))
    assert loaded == {"counters": {"c": 7}, "gauges": {"g": 3}}
    text = reg.to_text()
    assert "c" in text and "counter" in text and "gauge" in text
    reg.reset()
    assert len(reg) == 0


def test_global_registry_helpers():
    before = obs_metrics.counter("test.obs.global").value
    obs_metrics.counter("test.obs.global").inc()
    assert obs_metrics.counter("test.obs.global").value == before + 1
    assert obs_metrics.registry.get("test.obs.global") is not None


# ----------------------------------------------------------------------
# logging
# ----------------------------------------------------------------------
def test_logger_hierarchy_and_levels(capsys):
    import logging

    log = get_logger("dataflow.graph")
    assert log.name == "repro.dataflow.graph"
    assert get_logger("repro.pag").name == "repro.pag"
    root = logging.getLogger("repro")
    try:
        configure_logging(verbosity=0)
        assert root.level == logging.WARNING
        configure_logging(verbosity=1)
        assert root.level == logging.INFO
        configure_logging(verbosity=2)
        assert root.level == logging.DEBUG
        configure_logging(quiet=True)
        assert root.level == logging.ERROR
        # Idempotent: reconfiguring must not stack handlers.
        configure_logging(verbosity=1)
        configure_logging(verbosity=1)
        assert len(root.handlers) == 1
    finally:
        configure_logging(verbosity=0)


# ----------------------------------------------------------------------
# self-analysis (trace -> PAG)
# ----------------------------------------------------------------------
def _sample_recorder() -> SpanRecorder:
    rec = obs_trace.enable()
    with span("pipeline:demo", category="dataflow"):
        with span("node:filter", category="dataflow.pass", in_size=10, out_size=4):
            sum(range(20000))
        with span("node:hotspot", category="dataflow.pass", in_size=4, out_size=2):
            sum(range(1000))
    obs_trace.disable()
    return rec


def test_trace_to_pag_from_recorder():
    rec = _sample_recorder()
    pag = trace_to_pag(rec)
    names = {v.name for v in pag.vs}
    assert {"trace", "pipeline:demo", "node:filter", "node:hotspot"} <= names
    assert pag.num_edges == 3  # root->pipeline, pipeline->each node
    pipe = next(v for v in pag.vs if v.name == "pipeline:demo")
    child = next(v for v in pag.vs if v.name == "node:filter")
    # Exclusive time strips children; inclusive keeps them.
    assert pipe["total_time"] >= pipe["time"]
    assert child["in_size"] == 10 and child["out_size"] == 4
    assert child["debug-info"] == "dataflow.pass"


def test_trace_to_pag_from_chrome_doc_and_path(tmp_path):
    rec = _sample_recorder()
    doc = rec.to_chrome_trace()
    pag_doc = trace_to_pag(doc)
    path = tmp_path / "t.json"
    rec.save(path)
    pag_path = trace_to_pag(path)
    for pag in (pag_doc, pag_path):
        names = {v.name for v in pag.vs}
        assert {"pipeline:demo", "node:filter", "node:hotspot"} <= names
        assert pag.num_edges == 3
        pipe = next(v for v in pag.vs if v.name == "pipeline:demo")
        kids = sum(1 for e in pag.edges() if e.src_id == pipe.id)
        assert kids == 2


def test_trace_to_pag_rejects_garbage(tmp_path):
    with pytest.raises((ValueError, KeyError)):
        trace_to_pag({"not": "a trace"})


def test_analyze_trace_end_to_end(tmp_path):
    rec = _sample_recorder()
    reg = MetricsRegistry()
    reg.counter("demo.count").inc(3)
    mpath = tmp_path / "m.json"
    reg.save(str(mpath))
    res = analyze_trace(rec, top=5, metrics_path=mpath)
    assert len(res.hotspots) >= 1
    hot_names = {v.name for v in res.hotspots}
    assert "trace" not in hot_names  # synthetic root excluded
    text = res.to_text(top=5)
    assert "self-analysis" in text
    assert "node:filter" in text
    assert "demo.count" in text


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_cli_trace_and_metrics_flags(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    mpath = tmp_path / "m.json"
    rc = main(
        [
            "paradigm", "mpi_profiler", "--app", "cg",
            "--np", "4", "--class", "S",
            "--trace", str(tpath), "--metrics", str(mpath),
        ]
    )
    assert rc == EXIT_OK
    assert not enabled()  # recorder uninstalled after the command
    captured = capsys.readouterr()
    assert "MPI_" in captured.out
    doc = json.loads(tpath.read_text("utf-8"))
    node_events = [
        e
        for e in doc["traceEvents"]
        if e.get("ph") == "X" and e["name"].startswith("node:")
    ]
    names = {e["name"] for e in node_events}
    assert {"node:comm_filter", "node:hotspot", "node:profile_rows"} <= names
    for e in node_events:
        assert "in_size" in e["args"] and "out_size" in e["args"]
    metrics = json.loads(mpath.read_text("utf-8"))
    assert metrics["counters"]["runtime.runs"] >= 1

    # Round-trip: self-analysis over the trace we just wrote.
    rc = main(["obs", "analyze", str(tpath), "--metrics", str(mpath)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "self-analysis" in out
    assert "node:" in out


def test_cli_app_conflicts_with_positional(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "cg", "--app", "ep"])
    assert exc.value.code == EXIT_USAGE
    assert "given twice" in capsys.readouterr().err


def test_cli_requires_some_program(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paradigm", "communication"])
    assert exc.value.code == EXIT_USAGE
    assert "needs a program" in capsys.readouterr().err


def test_cli_obs_analyze_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obs", "analyze", "/no/such/trace.json"])
    assert exc.value.code == EXIT_USAGE


def test_cli_verbose_quiet_flags(capsys):
    import logging

    try:
        assert main(["list", "-v"]) == EXIT_OK
        assert logging.getLogger("repro").level == logging.INFO
        assert main(["list", "-q"]) == EXIT_OK
        assert logging.getLogger("repro").level == logging.ERROR
    finally:
        configure_logging(verbosity=0)


# ----------------------------------------------------------------------
# span summary (the timing half of every metrics export)
# ----------------------------------------------------------------------
def _recorder_of(durations, name="s"):
    rec = SpanRecorder()
    for d in durations:
        rec.record_completed(name, t_start=10.0, t_end=10.0 + d)
    return rec


def test_summarize_exact_quantiles_small_samples():
    assert obs_trace.summarize(SpanRecorder()) == {}
    assert obs_trace.summarize(obs_trace.NullRecorder()) == {}
    one = obs_trace.summarize(_recorder_of([0.25]))["s"]
    assert one["count"] == 1 and one["sum"] == one["mean"] == pytest.approx(0.25)
    assert one["min"] == one["max"] == one["p50"] == one["p95"] == one["p99"] == pytest.approx(0.25)
    few = obs_trace.summarize(_recorder_of([5.0, 1.0, 3.0]))["s"]
    assert (few["min"], few["max"]) == pytest.approx((1.0, 5.0))
    assert few["p50"] == pytest.approx(3.0)
    assert few["p95"] == pytest.approx(4.8)  # interpolated between 3 and 5
    assert few["p99"] == pytest.approx(4.96)
    ties = obs_trace.summarize(_recorder_of([2.0, 2.0, 2.0, 7.0]))["s"]
    assert ties["p50"] == pytest.approx(2.0)
    assert ties["p95"] == pytest.approx(2.0 + 0.85 * 5.0)
    assert ties["mean"] == pytest.approx(13.0 / 4)


def test_summarize_matches_statistics_inclusive_quantiles():
    import random
    import statistics

    rng = random.Random(42)
    values = [rng.random() for _ in range(100)]
    rec = _recorder_of(values, name="lat")
    rec.record_completed("other", t_start=0.0, t_end=1.0)
    summary = obs_trace.summarize(rec)
    assert set(summary) == {"lat", "other"}
    summ = summary["lat"]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert summ["count"] == 100
    assert summ["sum"] == pytest.approx(sum(values))
    assert (summ["min"], summ["max"]) == pytest.approx((min(values), max(values)))
    for key, cut in (("p50", cuts[49]), ("p95", cuts[94]), ("p99", cuts[98])):
        assert summ[key] == pytest.approx(cut, abs=1e-12)
    assert summ["p50"] <= summ["p95"] <= summ["p99"] <= summ["max"]


def test_span_summary_reaches_metrics_file_and_self_analysis(tmp_path, capsys):
    import re

    tpath, mpath = tmp_path / "t.json", tmp_path / "m.json"
    argv = ["paradigm", "mpi_profiler", "--app", "cg", "--np", "4", "--class", "S"]
    assert main(argv + ["--trace", str(tpath), "--metrics", str(mpath)]) == EXIT_OK
    doc = json.loads(mpath.read_text("utf-8"))
    assert set(doc) == {"counters", "gauges", "histograms"}
    hot = doc["histograms"]["node:hotspot"]
    trace = json.loads(tpath.read_text("utf-8"))
    durs = [e["dur"] for e in trace["traceEvents"] if e.get("name") == "node:hotspot"]
    assert hot["count"] == len(durs) >= 1
    assert hot["sum"] == pytest.approx(sum(durs) / 1e6, abs=1e-5)  # seconds
    assert {"p50", "p95", "p99"} <= set(hot)
    # The per-run trace embeds counters and gauges only.
    (meta,) = [e for e in trace["traceEvents"] if e["name"] == "perflow_metrics"]
    assert set(meta["args"]["metrics"]) == {"counters", "gauges"}

    # Without --trace the flight recorder's window is summarized.
    assert main(argv + ["--metrics", str(mpath)]) == EXIT_OK
    assert json.loads(mpath.read_text("utf-8"))["histograms"]["node:hotspot"]["count"] >= 1

    capsys.readouterr()
    assert main(["obs", "analyze", str(tpath), "--metrics", str(mpath)]) == EXIT_OK
    out = capsys.readouterr().out
    assert re.search(r"node:hotspot\s+n=\d+ sum=", out)


# ----------------------------------------------------------------------
# chrome trace: metrics metadata + reconstruction
# ----------------------------------------------------------------------
def test_chrome_trace_embeds_metrics_snapshot():
    obs_metrics.registry.counter("test.embedded").inc(7)
    rec = obs_trace.enable()
    with span("root"):
        pass
    obs_trace.disable()
    doc = rec.to_chrome_trace()
    meta = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "M"}
    assert "perflow_metrics" in meta
    snapshot = meta["perflow_metrics"]["args"]["metrics"]
    assert snapshot["counters"]["test.embedded"] == 7
    # Byte-stable: exporting the same recorder twice is identical.
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        rec.to_chrome_trace(), sort_keys=True
    )
    # An explicit snapshot overrides the live registry.
    frozen = rec.to_chrome_trace(metrics={"counters": {"x": 1}})
    meta2 = {e["name"]: e for e in frozen["traceEvents"] if e["ph"] == "M"}
    assert meta2["perflow_metrics"]["args"]["metrics"] == {"counters": {"x": 1}}


def test_from_chrome_trace_rebuilds_nesting(tmp_path):
    rec = obs_trace.enable()
    with span("outer", category="demo"):
        with span("mid", k=1):
            with span("leaf"):
                pass
        with span("mid2"):
            pass
    obs_trace.disable()
    doc = rec.to_chrome_trace()
    rebuilt = obs_trace.SpanRecorder.from_chrome_trace(doc)
    assert [s.name for s in rebuilt.roots] == ["outer"]
    outer = rebuilt.roots[0]
    assert [c.name for c in outer.children] == ["mid", "mid2"]
    assert [c.name for c in outer.children[0].children] == ["leaf"]
    assert rebuilt.find("outer")[0].category == "demo"
    assert rebuilt.find("mid")[0].args == {"k": 1}
    assert all(s.t_end >= s.t_start for s in rebuilt.spans)


def test_cli_obs_analyze_tree(tmp_path, capsys):
    rec = obs_trace.enable()
    with span("tree-root"):
        with span("tree-child"):
            pass
    obs_trace.disable()
    path = tmp_path / "t.json"
    rec.save(path)

    assert main(["obs", "analyze", str(path), "--tree"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "tree-root" in out and "tree-child" in out

    # --min-ms prunes short spans from the rendering.
    assert main(["obs", "analyze", str(path), "--tree", "--min-ms", "60000"]) == EXIT_OK
    assert "tree-child" not in capsys.readouterr().out


def test_cli_obs_analyze_tree_empty_trace_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"traceEvents": []}), "utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["obs", "analyze", str(path), "--tree"])
    assert exc.value.code == EXIT_USAGE
