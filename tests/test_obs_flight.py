"""Tests for repro.obs.flight: the bounded span recorder and its dumps."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.cli import EXIT_OK, main
from repro.obs import flight as obs_flight
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger
from repro.obs.trace import SpanRecorder, span


def _enter(rec, name, **args):
    sp = rec.span(name, **args)
    sp.__enter__()
    return sp


# ----------------------------------------------------------------------
# the ring itself
# ----------------------------------------------------------------------
def test_ring_wraps_around_keeping_newest():
    rec = SpanRecorder(capacity=8)
    for i in range(20):
        with rec.span(f"s{i}"):
            pass
    assert len(rec) == 8
    assert rec.total == 20
    assert [s.name for s in rec.spans] == [f"s{i}" for i in range(12, 20)]


def test_ring_before_wrap_returns_all():
    rec = SpanRecorder(capacity=16)
    with rec.span("a"):
        pass
    rec.log("repro.test", "hello")
    assert len(rec) == 2 and rec.total == 2
    a, line = rec.spans
    assert a.name == "a" and a.category is None
    assert line.name == "repro.test" and line.category == "log"
    assert line.args["message"] == "hello"
    assert line.duration == 0.0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        SpanRecorder(capacity=0)
    assert SpanRecorder(capacity=1).capacity == 1
    assert SpanRecorder().capacity is None  # unbounded: the --trace recorder


def test_bounded_recorder_under_long_open_root_pins_nothing():
    rec = SpanRecorder(capacity=64)
    with rec.span("root") as root:
        for i in range(10_000):
            with rec.span("child", i=i):
                pass
        assert len(rec) == 64 and rec.total == 10_000
        # The open root holds no child list; parent links point up only.
        assert not hasattr(root, "__dict__")
        assert "children" not in type(root).__slots__
        assert all(sp._parent is root for sp in rec.spans)
        assert [s.args["i"] for s in rec.spans] == list(range(9_936, 10_000))
    # Once closed, the root is retained, and the tree is derived on read.
    roots, children = rec.tree()
    assert [s.name for s in roots] == ["root"]
    assert len(children[roots[0]]) == 63


def test_active_span_stacks_follow_begin_end():
    rec = SpanRecorder(capacity=32)
    outer = _enter(rec, "outer")
    inner = _enter(rec, "inner")
    started, release = threading.Event(), threading.Event()

    def elsewhere():
        with rec.span("elsewhere"):
            started.set()
            release.wait(5.0)

    t = threading.Thread(target=elsewhere)
    t.start()
    started.wait(5.0)
    me = threading.get_ident()
    names = {tid: [s.name for s in st] for tid, st in rec.open_spans().items()}
    assert names == {me: ["outer", "inner"], t.ident: ["elsewhere"]}
    inner.__exit__(None, None, None)
    release.set()
    t.join()
    assert {tid: [s.name for s in st] for tid, st in rec.open_spans().items()} == {
        me: ["outer"]
    }
    outer.__exit__(None, None, None)
    assert rec.open_spans() == {}
    # Unbalanced exit: ending a non-top span drops the match, not the top.
    a = _enter(rec, "a")
    b = _enter(rec, "b")
    a.__exit__(None, None, None)
    assert [s.name for s in rec.open_spans()[me]] == ["b"]
    b.__exit__(None, None, None)


def test_concurrent_writers_never_lose_or_tear_events():
    rec = SpanRecorder(capacity=4096)
    n_threads, n_spans = 8, 250

    def worker(k: int) -> None:
        for j in range(n_spans):
            with rec.span(f"t{k}.{j}", k=k, j=j):
                pass

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # A lost update to the shared count would show here.
    assert rec.total == n_threads * n_spans
    spans = rec.spans
    assert len(spans) == n_threads * n_spans
    # Every span is there exactly once, whole: its args match its name.
    assert sorted(s.name for s in spans) == sorted(
        f"t{k}.{j}" for k in range(n_threads) for j in range(n_spans)
    )
    assert all(s.name == f"t{s.args['k']}.{s.args['j']}" for s in spans)
    assert rec.open_spans() == {}


def test_durations_stay_nonnegative_under_backwards_clock_jump(monkeypatch):
    """An NTP step moving wall-clock backwards must not yield negative
    span durations: durations come from the monotonic clock, and are
    clamped at zero as a backstop."""
    walls = iter([1000.0, 400.0, 100.0, 50.0])  # wall clock stepping back
    monkeypatch.setattr(time, "time", lambda: next(walls, 10.0))
    rec = SpanRecorder(capacity=32)
    with rec.span("ntp-span") as sp:
        time.sleep(0.01)
    first = obs_flight.crash_report(rec, "test")
    second = obs_flight.crash_report(rec, "test")
    # Wall time did go backwards — the scenario is real in this test.
    assert second["anchor"]["wall"] < first["anchor"]["wall"]
    assert second["anchor"]["mono"] >= first["anchor"]["mono"]
    (doc,) = second["spans"]
    assert doc["dur"] >= 0.0
    # Both are rounded to 6 decimals, each off by up to 0.5e-6.
    assert doc["dur"] == pytest.approx(sp.t_end - sp.t_start, abs=1e-6)
    assert doc["start"] <= second["anchor"]["mono"]


def test_duration_matches_innermost_begin():
    rec = SpanRecorder(capacity=32)
    with rec.span("outer"):
        with rec.span("outer"):  # recursive same-name span
            pass
    docs = obs_flight.crash_report(rec, "test")["spans"]
    # Finish order: the inner span closes first and is the shorter one.
    assert [d["name"] for d in docs] == ["outer", "outer"]
    assert docs[0]["dur"] <= docs[1]["dur"]
    assert all(d["dur"] >= 0.0 for d in docs)


# ----------------------------------------------------------------------
# integration with the span API
# ----------------------------------------------------------------------
def test_flight_only_span_path_taps_ring():
    rec = obs_flight.enable(capacity=64)
    assert obs_trace.get_recorder() is rec and rec.capacity == 64
    with span("work", category="t") as sp:
        assert sp  # a real span, args and all
        sp.set(k=1)
        sp["k"] = 2
        assert [s.name for s in rec.open_spans()[threading.get_ident()]] == ["work"]
    assert [(s.name, s.category, s.args) for s in rec.spans] == [("work", "t", {"k": 2})]
    assert rec.open_spans() == {}


def test_flight_taps_alongside_full_recorder_without_duplication():
    # The unbounded recorder a --trace run installs is the same class
    # with the same dumps: one recorder, each span recorded once.
    rec = obs_flight.enable(capacity=None)
    with span("both") as sp:
        assert sp
    assert [s.name for s in rec.spans] == ["both"]
    events = [e for e in rec.to_chrome_trace()["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["both"]
    assert [d["name"] for d in obs_flight.crash_report(rec, "test")["spans"]] == ["both"]


def test_enable_disable_lifecycle():
    assert not obs_trace.enabled()
    rec = obs_flight.enable(capacity=8)
    assert obs_trace.enabled() and obs_trace.get_recorder() is rec
    returned = obs_flight.disable()
    assert returned is rec
    assert not obs_trace.enabled()
    with span("after-disable") as sp:
        assert sp is obs_trace.NULL_SPAN
    get_logger("flighty").warning("after disable")
    assert rec.total == 0


def test_warning_logs_mirrored_into_ring():
    rec = obs_flight.enable(capacity=32)
    log = get_logger("flighty")
    log.info("below the default level")
    with span("outer"):
        log.warning("boom %d", 7)
    logs = [s for s in rec.spans if s.category == "log"]
    assert len(logs) == 1
    assert logs[0].name == "repro.flighty"
    assert logs[0].args == {"level": "WARNING", "message": "boom 7"}
    assert logs[0]._parent is rec.find("outer")[0]


def test_cli_warning_lands_in_trace_file(tmp_path, monkeypatch, capsys):
    from repro.dataflow import api

    real_run_program = api.run_program

    def warn_then_run(*args, **kwargs):
        get_logger("forced").warning("forced warning")
        return real_run_program(*args, **kwargs)

    monkeypatch.setattr(api, "run_program", warn_then_run)
    tpath = tmp_path / "t.json"
    assert main(["run", "cg", "--np", "4", "--class", "S", "--trace", str(tpath)]) == EXIT_OK
    events = json.loads(tpath.read_text("utf-8"))["traceEvents"]
    logs = [e for e in events if e.get("cat") == "log"]
    assert [(e["name"], e["dur"], e["args"]["message"]) for e in logs] == [
        ("repro.forced", 0.0, "forced warning")
    ]


# ----------------------------------------------------------------------
# crash reports
# ----------------------------------------------------------------------
CRASH_REPORT_KEYS = {
    "schema",
    "reason",
    "anchor",
    "pid",
    "argv",
    "python",
    "platform",
    "exception",
    "capacity",
    "spans_total",
    "spans",
    "open_spans",
    "metrics",
}


def test_crash_report_shape_and_exception_capture():
    rec = SpanRecorder(capacity=16)
    with rec.span("done", category="t", n=3):
        pass
    doomed = _enter(rec, "doomed")
    try:
        raise RuntimeError("kaboom")
    except RuntimeError as err:
        report = obs_flight.crash_report(rec, "crash", exc=err)
    doomed.__exit__(None, None, None)
    assert set(report) == CRASH_REPORT_KEYS
    assert report["schema"] == 2
    assert report["reason"] == "crash"
    assert report["pid"] == os.getpid()
    assert report["capacity"] == 16 and report["spans_total"] == 1
    assert report["exception"]["type"] == "RuntimeError"
    assert report["exception"]["message"] == "kaboom"
    assert "kaboom" in report["exception"]["traceback"]
    (done,) = report["spans"]
    assert set(done) == {"name", "cat", "tid", "start", "dur", "args"}
    assert (done["name"], done["cat"], done["args"]) == ("done", "t", {"n": 3})
    assert [d["name"] for d in report["open_spans"][str(threading.get_ident())]] == ["doomed"]
    json.dumps(report)  # must be JSON-serializable as-is


def test_crash_report_without_exception():
    report = obs_flight.crash_report(SpanRecorder(capacity=4), "sigusr2")
    assert report["exception"] is None
    assert report["reason"] == "sigusr2"
    assert report["spans"] == [] and report["open_spans"] == {}


def test_crash_report_lists_last_default_capacity_spans():
    rec = SpanRecorder()  # unbounded, as under --trace or the ledger
    for i in range(obs_flight.DEFAULT_CAPACITY + 5):
        with rec.span(f"s{i}"):
            pass
    docs = obs_flight.crash_report(rec, "test")["spans"]
    assert len(docs) == obs_flight.DEFAULT_CAPACITY
    assert docs[-1]["name"] == f"s{obs_flight.DEFAULT_CAPACITY + 4}"


def test_dump_crash_report_writes_loadable_file(tmp_path):
    rec = SpanRecorder(capacity=8)
    with rec.span("x"):
        pass
    path = obs_flight.dump_crash_report(rec, tmp_path, reason="test")
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.basename(path).startswith("crash-test-")
    loaded = json.loads(open(path, encoding="utf-8").read())
    assert set(loaded) == CRASH_REPORT_KEYS
    assert [d["name"] for d in loaded["spans"]] == ["x"]
    # The atomic tmp file never survives.
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


def test_crash_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(obs_flight.ENV_CRASH_DIR, str(tmp_path / "dumps"))
    assert obs_flight.crash_dir() == str(tmp_path / "dumps")
    monkeypatch.delenv(obs_flight.ENV_CRASH_DIR)
    assert obs_flight.crash_dir() == ".perflow"


def _wait_for_dump(directory, prefix="crash-sigusr2-"):
    # The handler runs at the next bytecode boundary; give the
    # interpreter a moment on slow machines.
    deadline = time.time() + 5.0
    while time.time() < deadline:
        dumps = [n for n in os.listdir(directory) if n.startswith(prefix)]
        if dumps:
            return dumps
        time.sleep(0.01)
    return []


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR2"), reason="platform lacks SIGUSR2"
)
def test_sigusr2_dumps_live_report(tmp_path):
    obs_flight.enable(capacity=32)
    assert obs_flight.install_signal_dump(tmp_path)
    try:
        with span("finished"):
            pass
        with span("hanging"):
            os.kill(os.getpid(), signal.SIGUSR2)
            dumps = _wait_for_dump(tmp_path)
    finally:
        obs_flight.uninstall_signal_dump()
    assert dumps, "SIGUSR2 produced no crash report"
    report = json.loads((tmp_path / dumps[0]).read_text("utf-8"))
    assert report["reason"] == "sigusr2"
    assert [d["name"] for d in report["spans"]] == ["finished"]
    # The span was still open when the signal hit: it shows as open.
    assert any(
        "hanging" in [d["name"] for d in stack] for stack in report["open_spans"].values()
    )


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR2"), reason="platform lacks SIGUSR2"
)
def test_sigusr2_dump_while_writer_holds_lock(tmp_path):
    """The handler interrupts the main thread wherever it is — also
    inside a recorder write, with the recorder's lock held.  The dump
    must not wait for that lock: the thread holding it is the one
    running the handler."""
    script = textwrap.dedent(
        """
        import os, signal, sys, time
        from repro.obs import flight
        from repro.obs.trace import span

        rec = flight.enable(capacity=64)
        flight.install_signal_dump(sys.argv[1])
        with span("held"):
            with rec._lock:
                os.kill(os.getpid(), signal.SIGUSR2)
                deadline = time.time() + 5.0
                while not os.listdir(sys.argv[1]) and time.time() < deadline:
                    time.sleep(0.01)
        print(len(os.listdir(sys.argv[1])))
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    try:
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=20,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("SIGUSR2 dump deadlocked on the recorder's lock")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"
    (name,) = os.listdir(tmp_path)
    report = json.loads((tmp_path / name).read_text("utf-8"))
    assert any("held" in [d["name"] for d in s] for s in report["open_spans"].values())


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR2"), reason="platform lacks SIGUSR2"
)
def test_sigusr2_dump_while_threads_record(tmp_path):
    """A live dump taken while two threads record spans parses, and its
    metrics are counters and gauges only: the spans are already in it."""
    obs_flight.enable(capacity=256)
    assert obs_flight.install_signal_dump(tmp_path)
    stop = threading.Event()

    def worker(k: int) -> None:
        while not stop.is_set():
            with span(f"w{k}"):
                pass

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    try:
        for t in threads:
            t.start()
        os.kill(os.getpid(), signal.SIGUSR2)
        dumps = _wait_for_dump(tmp_path)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        obs_flight.uninstall_signal_dump()
    assert dumps, "SIGUSR2 produced no crash report"
    report = json.loads((tmp_path / dumps[0]).read_text("utf-8"))
    assert set(report["metrics"]) == {"counters", "gauges"}


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_crash_writes_report(monkeypatch, capsys):
    def exploding(_args):
        with span("about-to-die"):
            pass
        raise RuntimeError("forced crash")

    monkeypatch.setattr("repro.cli.cmd_list", exploding)
    with pytest.raises(RuntimeError, match="forced crash"):
        main(["list"])
    err = capsys.readouterr().err
    assert "wrote crash report:" in err
    crash_dir = os.environ["PERFLOW_CRASH_DIR"]  # pinned by conftest
    dumps = [n for n in os.listdir(crash_dir) if n.startswith("crash-crash-")]
    assert len(dumps) == 1
    report = json.loads(open(os.path.join(crash_dir, dumps[0]), encoding="utf-8").read())
    assert report["exception"]["type"] == "RuntimeError"
    assert report["exception"]["message"] == "forced crash"
    assert report["capacity"] == obs_flight.DEFAULT_CAPACITY  # `list`: bounded
    assert [d["name"] for d in report["spans"]] == ["about-to-die"]
    # The recorder is torn down even after a crash.
    assert not obs_trace.enabled()


def test_cli_usage_error_is_not_a_crash(capsys):
    with pytest.raises(SystemExit):
        main(["run", "definitely-not-a-program"])
    crash_root = os.environ["PERFLOW_CRASH_DIR"]
    assert not os.path.isdir(crash_root) or not os.listdir(crash_root)


def test_cli_success_leaves_no_crash_report(capsys):
    assert main(["list"]) == EXIT_OK
    crash_root = os.environ["PERFLOW_CRASH_DIR"]
    assert not os.path.isdir(crash_root) or not os.listdir(crash_root)
    assert not obs_trace.enabled()
