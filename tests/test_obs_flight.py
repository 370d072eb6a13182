"""Tests for repro.obs.flight: the always-on bounded flight recorder."""

import json
import os
import signal
import threading
import time

import pytest

from repro.cli import EXIT_OK, main
from repro.obs import flight as obs_flight
from repro.obs import trace as obs_trace
from repro.obs.flight import KIND_BEGIN, KIND_END, KIND_LOG, FlightRecorder
from repro.obs.log import get_logger
from repro.obs.trace import span


# ----------------------------------------------------------------------
# the ring itself
# ----------------------------------------------------------------------
def test_ring_wraps_around_keeping_newest():
    fl = FlightRecorder(capacity=8)
    for i in range(20):
        fl.begin(f"s{i}", tid=1)
    assert len(fl) == 8
    assert fl.total == 20
    assert fl.dropped == 12
    events = fl.events()
    # Oldest retained first, contiguous sequence numbers 12..19.
    assert [e["seq"] for e in events] == list(range(12, 20))
    assert [e["name"] for e in events] == [f"s{i}" for i in range(12, 20)]
    assert all(e["kind"] == KIND_BEGIN for e in events)


def test_ring_before_wrap_returns_all():
    fl = FlightRecorder(capacity=16)
    fl.begin("a", tid=7)
    fl.end("a", tid=7)
    fl.log("repro.test", "hello", tid=7)
    assert len(fl) == 3 and fl.dropped == 0
    kinds = [e["kind"] for e in fl.events()]
    assert kinds == [KIND_BEGIN, KIND_END, KIND_LOG]
    assert fl.events()[2]["detail"] == "hello"


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_active_span_stacks_follow_begin_end():
    fl = FlightRecorder(capacity=32)
    fl.begin("outer", tid=1)
    fl.begin("inner", tid=1)
    fl.begin("elsewhere", tid=2)
    assert fl.active_spans() == {"1": ["outer", "inner"], "2": ["elsewhere"]}
    fl.end("inner", tid=1)
    fl.end("elsewhere", tid=2)
    assert fl.active_spans() == {"1": ["outer"]}
    # Unbalanced exit: ending a non-top name drops the match, not the top.
    fl.begin("a", tid=3)
    fl.begin("b", tid=3)
    fl.end("a", tid=3)
    assert fl.active_spans()["3"] == ["b"]


def test_concurrent_writers_never_lose_or_tear_events():
    fl = FlightRecorder(capacity=4096)
    n_threads, n_spans = 4, 50

    def worker(k: int) -> None:
        for j in range(n_spans):
            fl.begin(f"t{k}.{j}", tid=k)
            fl.end(f"t{k}.{j}", tid=k)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert fl.total == n_threads * n_spans * 2
    events = fl.events()
    assert len(events) == n_threads * n_spans * 2
    # Sequence numbers are unique and strictly increasing: no slot was
    # torn or double-written under contention.
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert fl.active_spans() == {}


def test_durations_stay_nonnegative_under_backwards_clock_jump(monkeypatch):
    """An NTP step moving wall-clock backwards must not yield negative
    span durations: durations come from the monotonic stamp, and are
    clamped at zero as a backstop."""
    walls = iter([1000.0, 400.0, 100.0, 50.0])  # wall clock stepping back

    monkeypatch.setattr(obs_flight.time, "time", lambda: next(walls, 10.0))
    fl = FlightRecorder(capacity=32)
    fl.begin("ntp-span", tid=1)
    time.sleep(0.01)
    fl.end("ntp-span", tid=1)
    events = fl.events()
    assert [e["kind"] for e in events] == [KIND_BEGIN, KIND_END]
    begin, end = events
    # Wall time did go backwards — the scenario is real in this test.
    assert end["t"] < begin["t"]
    # Monotonic stamps are present and ordered regardless.
    assert end["mono"] >= begin["mono"]
    assert end["dur"] >= 0.0
    # The recorder rounds both stamps and the duration to 6 decimals,
    # each off by up to 0.5e-6, so the three can disagree by 1.5e-6.
    assert end["dur"] == pytest.approx(end["mono"] - begin["mono"], abs=2e-6)


def test_duration_matches_innermost_begin():
    fl = FlightRecorder(capacity=32)
    fl.begin("outer", tid=1)
    fl.begin("outer", tid=1)  # recursive same-name span
    fl.end("outer", tid=1)
    fl.end("outer", tid=1)
    ends = [e for e in fl.events() if e["kind"] == KIND_END]
    assert len(ends) == 2
    # Inner END pairs with inner BEGIN: its duration is the shorter one.
    assert ends[0]["dur"] <= ends[1]["dur"]
    assert all(e["dur"] >= 0.0 for e in ends)


# ----------------------------------------------------------------------
# integration with the span API
# ----------------------------------------------------------------------
def test_flight_only_span_path_taps_ring():
    fl = obs_flight.enable(capacity=64)
    assert not obs_trace.enabled()  # no full recorder installed
    with span("work", category="t") as sp:
        assert not sp  # falsy lightweight span
        sp.set(k=1)  # args are dropped, not recorded
        sp["k"] = 2
        assert fl.active_spans() != {}
    assert [(e["kind"], e["name"]) for e in fl.events()] == [
        ("B", "work"),
        ("E", "work"),
    ]
    assert fl.active_spans() == {}


def test_flight_taps_alongside_full_recorder_without_duplication():
    fl = obs_flight.enable(capacity=64)
    rec = obs_trace.enable()
    with span("both") as sp:
        assert sp  # the real Span, not the flight-only stand-in
    obs_trace.disable()
    assert [s.name for s in rec.spans] == ["both"]
    assert [(e["kind"], e["name"]) for e in fl.events()] == [
        ("B", "both"),
        ("E", "both"),
    ]


def test_enable_disable_lifecycle():
    assert not obs_flight.enabled()
    fl = obs_flight.enable(capacity=8)
    assert obs_flight.enabled() and obs_flight.get() is fl
    returned = obs_flight.disable()
    assert returned is fl
    assert not obs_flight.enabled() and obs_flight.get() is None
    with span("after-disable") as sp:
        assert sp is obs_trace.NULL_SPAN
    assert fl.total == 0


def test_warning_logs_mirrored_into_ring():
    fl = obs_flight.enable(capacity=32)
    log = get_logger("flighty")
    log.info("below the default level")
    log.warning("boom %d", 7)
    logs = [e for e in fl.events() if e["kind"] == KIND_LOG]
    assert len(logs) == 1
    assert logs[0]["name"] == "repro.flighty"
    assert logs[0]["detail"] == "boom 7"


# ----------------------------------------------------------------------
# crash reports
# ----------------------------------------------------------------------
CRASH_REPORT_KEYS = {
    "schema",
    "reason",
    "time",
    "pid",
    "argv",
    "python",
    "platform",
    "exception",
    "capacity",
    "events_total",
    "events_dropped",
    "events",
    "active_spans",
    "metrics",
}


def test_crash_report_shape_and_exception_capture():
    fl = FlightRecorder(capacity=16)
    fl.begin("doomed", tid=1)
    try:
        raise RuntimeError("kaboom")
    except RuntimeError as err:
        report = fl.crash_report("crash", exc=err)
    assert set(report) == CRASH_REPORT_KEYS
    assert report["schema"] == 1
    assert report["reason"] == "crash"
    assert report["pid"] == os.getpid()
    assert report["exception"]["type"] == "RuntimeError"
    assert report["exception"]["message"] == "kaboom"
    assert "kaboom" in report["exception"]["traceback"]
    assert report["active_spans"] == {"1": ["doomed"]}
    assert report["events"][0]["name"] == "doomed"
    json.dumps(report)  # must be JSON-serializable as-is


def test_crash_report_without_exception():
    fl = FlightRecorder(capacity=4)
    report = fl.crash_report("sigusr2")
    assert report["exception"] is None
    assert report["reason"] == "sigusr2"


def test_dump_crash_report_writes_loadable_file(tmp_path):
    fl = FlightRecorder(capacity=8)
    fl.begin("x", tid=1)
    path = fl.dump_crash_report(tmp_path, reason="test")
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.basename(path).startswith("crash-test-")
    loaded = json.loads(open(path, encoding="utf-8").read())
    assert set(loaded) == CRASH_REPORT_KEYS
    # The atomic tmp file never survives.
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


def test_crash_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(obs_flight.ENV_CRASH_DIR, str(tmp_path / "dumps"))
    assert obs_flight.crash_dir() == str(tmp_path / "dumps")
    monkeypatch.delenv(obs_flight.ENV_CRASH_DIR)
    assert obs_flight.crash_dir() == ".perflow"


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR2"), reason="platform lacks SIGUSR2"
)
def test_sigusr2_dumps_live_report(tmp_path):
    obs_flight.enable(capacity=32)
    assert obs_flight.install_signal_dump(tmp_path)
    try:
        with span("hanging"):
            os.kill(os.getpid(), signal.SIGUSR2)
            # The handler runs at the next bytecode boundary; give the
            # interpreter a moment on slow machines.
            deadline = time.time() + 5.0
            while time.time() < deadline:
                dumps = [n for n in os.listdir(tmp_path) if n.startswith("crash-sigusr2-")]
                if dumps:
                    break
                time.sleep(0.01)
    finally:
        obs_flight.uninstall_signal_dump()
    assert dumps, "SIGUSR2 produced no crash report"
    report = json.loads((tmp_path / dumps[0]).read_text("utf-8"))
    assert report["reason"] == "sigusr2"
    # The span was still open when the signal hit: it shows as active.
    assert any("hanging" in names for names in report["active_spans"].values())


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_crash_writes_report(monkeypatch, capsys):
    def exploding(_args):
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
    # The flight recorder is torn down even after a crash.
    assert not obs_flight.enabled()


def test_cli_usage_error_is_not_a_crash(capsys):
    with pytest.raises(SystemExit):
        main(["run", "definitely-not-a-program"])
    crash_root = os.environ["PERFLOW_CRASH_DIR"]
    assert not os.path.isdir(crash_root) or not os.listdir(crash_root)


def test_cli_success_leaves_no_crash_report(capsys):
    assert main(["list"]) == EXIT_OK
    crash_root = os.environ["PERFLOW_CRASH_DIR"]
    assert not os.path.isdir(crash_root) or not os.listdir(crash_root)
