"""repro.serve: protocol, end-to-end serving, admission, single-flight."""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from tests.conftest import make_ring_program
from repro.dataflow.api import PerFlow
from repro.dataflow.graph import PerFlowGraph
from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics
from repro.pag.formats import pag_to_dict, save_pag
from repro.pag.sets import EdgeSet, VertexSet
from repro.passes.hotspot import hotspot_detection
from repro.serve import PIPELINES, ProtocolError, ServerConfig, parse_analyze_request
from repro.serve.client import ServerThread, analyze, http_request
from repro.serve.pipelines import build_graph

# ----------------------------------------------------------------------
# test pipelines (module level: stable pass identities)
# ----------------------------------------------------------------------
BLOCK_EVENT = threading.Event()
BLOCK_EXECUTIONS: list = []


def _blocking_rows(V: VertexSet) -> list:
    BLOCK_EXECUTIONS.append(1)
    BLOCK_EVENT.wait(timeout=30)
    return [{"vertices": len(V)}]


def _build_block(params):
    salt = int(params["salt"])
    g = PerFlowGraph("serve-block")
    V = g.input("V", VertexSet)
    g.add_pass(
        lambda s: _blocking_rows(s) + [{"salt": salt}],
        V,
        name="result",
        signature=((VertexSet,), ("any",)),
    )
    return g


FAIL_EVENT = threading.Event()
FAIL_EXECUTIONS: list = []
FAIL_REMAINING = {"n": 0}


def _fail_once_rows(V: VertexSet) -> list:
    FAIL_EXECUTIONS.append(1)
    FAIL_EVENT.wait(timeout=30)
    if FAIL_REMAINING["n"] > 0:
        FAIL_REMAINING["n"] -= 1
        raise RuntimeError("injected leader failure")
    return [{"ok": True}]


def _build_failonce(params):
    g = PerFlowGraph("serve-failonce")
    V = g.input("V", VertexSet)
    # cacheable=False: followers that retry after a failed leader must
    # genuinely re-execute, not pick the answer out of the cache.
    g.add_pass(
        _fail_once_rows,
        V,
        name="result",
        signature=((VertexSet,), ("any",)),
        cacheable=False,
    )
    return g


def _build_badwire(params):
    g = PerFlowGraph("serve-badwire")
    E = g.input("V", EdgeSet)
    g.add_pass(
        hotspot_detection,
        E,
        name="result",
        signature=((VertexSet,), (VertexSet,)),
    )
    return g


@pytest.fixture()
def test_pipelines(monkeypatch):
    BLOCK_EVENT.clear()
    FAIL_EVENT.clear()
    del BLOCK_EXECUTIONS[:]
    del FAIL_EXECUTIONS[:]
    FAIL_REMAINING["n"] = 0
    monkeypatch.setitem(PIPELINES, "block", (_build_block, {"salt": 0}))
    monkeypatch.setitem(PIPELINES, "failonce", (_build_failonce, {}))
    monkeypatch.setitem(PIPELINES, "badwire", (_build_badwire, {}))
    yield
    BLOCK_EVENT.set()
    FAIL_EVENT.set()


@pytest.fixture(scope="module")
def ring_pag_doc():
    pag = PerFlow().run(bin=make_ring_program(), nprocs=4)
    return pag_to_dict(pag, include_per_rank=True)


# ----------------------------------------------------------------------
# protocol parsing
# ----------------------------------------------------------------------
def test_parse_minimal_request():
    req = parse_analyze_request(b'{"pipeline": "hotspot", "pag_path": "x.pag3"}')
    assert req.pipeline == "hotspot"
    assert req.pag_path == "x.pag3"
    assert req.params == {} and req.pag_doc is None


@pytest.mark.parametrize(
    "body",
    [
        b"not json",
        b"[1, 2]",
        b'{"pag_path": "x"}',  # no pipeline
        b'{"pipeline": "", "pag_path": "x"}',
        b'{"pipeline": "h"}',  # neither pag nor pag_path
        b'{"pipeline": "h", "pag": {}, "pag_path": "x"}',  # both
        b'{"pipeline": "h", "pag_path": "x", "params": [1]}',
        b'{"pipeline": "h", "pag_path": "x", "params": {"a": [1]}}',
        b'{"pipeline": "h", "pag_path": "x", "bogus": 1}',
        b'{"pipeline": "h", "pag_path": "x", "request_id": 7}',
    ],
)
def test_parse_rejects_malformed(body):
    with pytest.raises(ProtocolError) as exc:
        parse_analyze_request(body)
    assert exc.value.status == 400


def test_build_graph_rejects_unknown_params():
    with pytest.raises(ValueError, match="bogus"):
        build_graph("hotspot", {"bogus": 1})
    with pytest.raises(KeyError):
        build_graph("no-such-pipeline", {})


# ----------------------------------------------------------------------
# end-to-end over a real socket
# ----------------------------------------------------------------------
def test_serve_end_to_end_inline_and_path(tmp_path, ring_pag_doc):
    pag = PerFlow().run(bin=make_ring_program(), nprocs=4)
    pag_file = tmp_path / "ring.pag3"
    save_pag(pag, pag_file, format=3)
    # `repro serve` runs under the flight recorder; /metrics summarizes it.
    obs_flight.enable()
    try:
        with ServerThread(ServerConfig(port=0, cache=True)) as st:
            status, _, body = http_request(st.host, st.port, "GET", "/healthz")
            assert status == 200 and b'"ok"' in body

            status, events = analyze(
                st.host,
                st.port,
                {"pipeline": "hotspot", "pag": ring_pag_doc, "request_id": "r1"},
            )
            assert status == 200
            assert [e["event"] for e in events] == ["accepted", "started", "result"]
            assert events[0]["request_id"] == "r1"
            rows = events[-1]["result"]
            assert rows and all("time" in r for r in rows)

            # Same analysis through an on-disk format-3 reference.
            status, events = analyze(
                st.host,
                st.port,
                {"pipeline": "hotspot", "pag_path": str(pag_file)},
            )
            assert status == 200 and events[-1]["event"] == "result"
            assert events[-1]["result"] == rows

            status, _, body = http_request(st.host, st.port, "GET", "/metrics")
            assert status == 200
            analyzed = json.loads(body)["histograms"]["serve.analyze"]
            assert analyzed["count"] == 2  # one span per request answered

            status, _, _ = http_request(st.host, st.port, "GET", "/nope")
            assert status == 404
    finally:
        obs_flight.disable()


def test_serve_bad_requests(ring_pag_doc, test_pipelines, tmp_path):
    with ServerThread(ServerConfig(port=0)) as st:
        status, docs = analyze(st.host, st.port, {"pipeline": "hotspot"})
        assert status == 400 and docs[0]["error"]["code"] == "bad-request"

        status, docs = analyze(
            st.host, st.port, {"pipeline": "nope", "pag": ring_pag_doc}
        )
        assert status == 400 and docs[0]["error"]["code"] == "unknown-pipeline"

        status, docs = analyze(
            st.host,
            st.port,
            {"pipeline": "hotspot", "pag": ring_pag_doc, "params": {"bogus": 1}},
        )
        assert status == 400 and docs[0]["error"]["code"] == "bad-params"

        status, docs = analyze(
            st.host, st.port, {"pipeline": "hotspot", "pag_path": "/no/such/file"}
        )
        assert status == 400 and docs[0]["error"]["code"] == "bad-pag"

        # neither format 3 nor UTF-8 JSON: still a bad PAG, not a 500
        junk = tmp_path / "junk.bin"
        junk.write_bytes(bytes(range(256)))
        status, docs = analyze(
            st.host, st.port, {"pipeline": "hotspot", "pag_path": str(junk)}
        )
        assert status == 400 and docs[0]["error"]["code"] == "bad-pag"

        # format-2 (columnar JSON) documents are no longer read
        status, docs = analyze(
            st.host, st.port,
            {"pipeline": "hotspot", "pag": {"format": 2, "name": "x"}},
        )
        assert status == 400 and docs[0]["error"]["code"] == "bad-pag"
        assert "no longer read" in docs[0]["error"]["message"]

        # A mis-wired pipeline is rejected by check() with PF8## payloads.
        status, docs = analyze(
            st.host, st.port, {"pipeline": "badwire", "pag": ring_pag_doc}
        )
        assert status == 400 and docs[0]["error"]["code"] == "pipeline-check"
        assert docs[0]["error"]["diagnostics"][0]["code"].startswith("PF8")


def _wait_for(cond, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(0.01)


def test_admission_control_429(ring_pag_doc, test_pipelines):
    with ServerThread(
        ServerConfig(port=0, max_concurrent=1, max_queue=0, backend="thread")
    ) as st:
        results = {}

        def first():
            results["first"] = analyze(
                st.host, st.port, {"pipeline": "block", "pag": ring_pag_doc}
            )

        t = threading.Thread(target=first)
        t.start()
        try:
            _wait_for(lambda: len(BLOCK_EXECUTIONS) == 1, what="leader to start")
            status, _, body = http_request(
                st.host,
                st.port,
                "POST",
                "/v1/analyze",
                body=(
                    b'{"pipeline": "block", "params": {"salt": 2}, '
                    + b'"pag": '
                    + _json_bytes(ring_pag_doc)
                    + b"}"
                ),
            )
            assert status == 429
            assert b"overloaded" in body
            assert obs_metrics.counter("serve.rejected").value == 1
        finally:
            BLOCK_EVENT.set()
            t.join(timeout=15)
        assert results["first"][0] == 200
        # The Retry-After header made it out too.
        status, headers, _ = _rejected_once(st, ring_pag_doc)
        if status == 429:
            assert "retry-after" in headers


def _rejected_once(st, doc):
    """One more (non-blocking) request purely to inspect headers."""
    import json as json_mod

    return http_request(
        st.host,
        st.port,
        "POST",
        "/v1/analyze",
        body=json_mod.dumps({"pipeline": "hotspot", "pag": doc}).encode(),
    )


def _json_bytes(doc) -> bytes:
    import json as json_mod

    return json_mod.dumps(doc).encode("utf-8")


def test_single_flight_collapses_identical_requests(ring_pag_doc, test_pipelines):
    """Satellite: N identical concurrent requests execute exactly once."""
    n = 8
    with ServerThread(ServerConfig(port=0, cache=True, max_concurrent=4, backend="thread")) as st:
        results = [None] * n

        def worker(i):
            results[i] = analyze(
                st.host, st.port, {"pipeline": "block", "pag": ring_pag_doc}
            )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        try:
            _wait_for(lambda: len(BLOCK_EXECUTIONS) == 1, what="leader execution")
            _wait_for(
                lambda: sum(st.server._flight._waiters.values()) == n - 1,
                what=f"{n - 1} followers parked on the leader",
            )
        finally:
            BLOCK_EVENT.set()
        for t in threads:
            t.join(timeout=15)

        assert all(r is not None and r[0] == 200 for r in results)
        finals = [r[1][-1] for r in results]
        assert all(e["event"] == "result" for e in finals)
        # The pipeline body ran exactly once; everyone shares its rows.
        assert len(BLOCK_EXECUTIONS) == 1
        assert sum(1 for e in finals if e["collapsed"]) == n - 1
        assert obs_metrics.counter("serve.collapsed").value == n - 1
        # Cache evidence: one miss (the leader's node), zero stale hits.
        assert obs_metrics.counter("dataflow.cache.misses").value == 1
        assert obs_metrics.counter("dataflow.cache.hits").value == 0
        first = finals[0]["result"]
        assert all(e["result"] == first for e in finals)


def test_failed_leader_does_not_poison_followers(ring_pag_doc, test_pipelines):
    """Satellite: followers of a failed leader re-execute, not re-raise."""
    FAIL_REMAINING["n"] = 1
    with ServerThread(ServerConfig(port=0, max_concurrent=4, backend="thread")) as st:
        results = {}

        def worker(tag):
            results[tag] = analyze(
                st.host, st.port, {"pipeline": "failonce", "pag": ring_pag_doc}
            )

        leader = threading.Thread(target=worker, args=("leader",))
        leader.start()
        try:
            _wait_for(lambda: len(FAIL_EXECUTIONS) == 1, what="leader execution")
            followers = [
                threading.Thread(target=worker, args=(f"f{i}",)) for i in range(2)
            ]
            for t in followers:
                t.start()
            _wait_for(
                lambda: sum(st.server._flight._waiters.values()) == 2,
                what="followers parked",
            )
        finally:
            FAIL_EVENT.set()
        leader.join(timeout=15)
        for t in followers:
            t.join(timeout=15)

        # The leader saw the injected failure as a streamed error event.
        status, events = results["leader"]
        assert status == 200
        assert events[-1]["event"] == "error"
        assert "injected leader failure" in events[-1]["message"]
        # Followers re-executed (a second real execution happened) and
        # got genuine results — not the leader's stale error.
        for tag in ("f0", "f1"):
            status, events = results[tag]
            assert status == 200
            assert events[-1]["event"] == "result"
            assert events[-1]["result"] == [{"ok": True}]
        assert len(FAIL_EXECUTIONS) >= 2


def test_draining_rejects_new_requests(ring_pag_doc):
    with ServerThread(ServerConfig(port=0)) as st:
        st.server.draining = True
        status, docs = analyze(
            st.host, st.port, {"pipeline": "hotspot", "pag": ring_pag_doc}
        )
        assert status == 503 and docs[0]["error"]["code"] == "draining"
        status, _, body = http_request(st.host, st.port, "GET", "/healthz")
        assert status == 200 and b"draining" in body
        st.server.draining = False


def test_drain_completes_inflight_requests(ring_pag_doc, test_pipelines):
    st = ServerThread(ServerConfig(port=0, drain_timeout=20.0, backend="thread")).start()
    results = {}

    def worker():
        results["r"] = analyze(
            st.host, st.port, {"pipeline": "block", "pag": ring_pag_doc}
        )

    t = threading.Thread(target=worker)
    t.start()
    try:
        _wait_for(lambda: len(BLOCK_EXECUTIONS) == 1, what="request in flight")
        # Begin the drain while the request is still executing...
        assert st._loop is not None
        st._loop.call_soon_threadsafe(st.server.request_drain)
        _wait_for(lambda: st.server.draining, what="draining flag")
    finally:
        time.sleep(0.05)
        BLOCK_EVENT.set()
    t.join(timeout=15)
    st.stop()
    # ...and the in-flight request still completed with its result.
    assert results["r"][0] == 200
    assert results["r"][1][-1]["event"] == "result"


class _GoneWriter:
    """A StreamWriter stand-in whose client vanished: drain() raises."""

    def __init__(self):
        self.chunks = []

    def write(self, data: bytes) -> None:
        self.chunks.append(data)

    async def drain(self) -> None:
        raise ConnectionResetError("client went away")


def test_disconnect_after_stream_start_releases_admission(ring_pag_doc):
    """Regression: a disconnect at the stream-start drain point must
    release the admission slot.  Previously the accepted/started drain
    sat outside the release path, so each such disconnect leaked one
    slot until the server answered 429 forever."""
    from repro.serve.server import ReproServer

    server = ReproServer(ServerConfig(max_concurrent=1, max_queue=1))
    body = json.dumps({"pipeline": "hotspot", "pag": ring_pag_doc}).encode()

    async def _one():
        with pytest.raises(ConnectionResetError):
            await server._handle_analyze(_GoneWriter(), body)

    try:
        # Strictly more disconnects than max_concurrent + max_queue:
        # with the leak, request 3 would already be rejected.
        for _ in range(4):
            asyncio.run(_one())
        assert server._admission.admitted == 0
        server._admission.admit()  # capacity intact, no 429
        server._admission.release()
    finally:
        server._pool.shutdown(wait=True)


def test_admission_slots_bind_the_running_loop():
    """Regression: the execution-slot semaphore must be created inside
    the loop that uses it, not in __init__ — on Python 3.9 an eagerly
    constructed Semaphore binds the constructing thread's loop, and the
    server constructs on one thread but serves on another."""
    from repro.serve.queue import AdmissionController

    ctl = AdmissionController(max_concurrent=1, max_queue=0)  # no loop yet
    assert ctl._slots is None

    async def _use() -> bool:
        async def _leader():
            async with ctl:
                await asyncio.sleep(0.01)

        # Two leaders contend for the single slot, forcing a real
        # (loop-bound) semaphore wait — the 3.9 failure mode.
        await asyncio.gather(_leader(), _leader())
        return True

    out = {}
    t = threading.Thread(target=lambda: out.update(ok=asyncio.run(_use())))
    t.start()
    t.join(timeout=15)
    assert out.get("ok") is True
    assert ctl._slots is not None and ctl.running == 0


def test_header_flood_rejected_431():
    """Pre-admission header reading is bounded: 431 beyond the cap."""
    from repro.serve.server import MAX_HEADER_LINES

    with ServerThread(ServerConfig(port=0)) as st:
        with socket.create_connection((st.host, st.port), timeout=15) as s:
            # One more header line than the cap, and no terminating
            # blank line: the server reads exactly what we sent, so it
            # answers with a clean FIN (no RST racing the response).
            flood = b"".join(
                b"x-flood-%d: v\r\n" % i for i in range(MAX_HEADER_LINES + 1)
            )
            s.sendall(b"GET /healthz HTTP/1.1\r\n" + flood)
            s.settimeout(15)
            resp = b""
            while True:
                chunk = s.recv(4096)
                if not chunk:
                    break
                resp += chunk
    assert resp.split(b"\r\n", 1)[0].split()[1] == b"431"
    assert b"headers-too-large" in resp


def test_pag_root_restricts_pag_path(tmp_path):
    """With --pag-root, pag_path requests outside the root are 403."""
    pag = PerFlow().run(bin=make_ring_program(), nprocs=4)
    root = tmp_path / "allowed"
    root.mkdir()
    inside = root / "ring.pag3"
    outside = tmp_path / "outside.pag3"
    save_pag(pag, inside, format=3)
    save_pag(pag, outside, format=3)

    with ServerThread(ServerConfig(port=0, pag_root=str(root))) as st:
        status, events = analyze(
            st.host, st.port, {"pipeline": "hotspot", "pag_path": str(inside)}
        )
        assert status == 200 and events[-1]["event"] == "result"
        for bad in (
            str(outside),
            str(root / ".." / "outside.pag3"),  # traversal out of the root
            "/etc/hostname",
        ):
            status, docs = analyze(
                st.host, st.port, {"pipeline": "hotspot", "pag_path": bad}
            )
            assert status == 403
            assert docs[0]["error"]["code"] == "path-denied"
            # The denial leaks no filesystem detail about the target.
            assert bad not in docs[0]["error"]["message"]
        # Inline uploads are unaffected by the allow-list.
        status, events = analyze(
            st.host,
            st.port,
            {"pipeline": "hotspot", "pag": pag_to_dict(pag, include_per_rank=True)},
        )
        assert status == 200 and events[-1]["event"] == "result"


def test_format3_pag_path_is_opened_three_times(tmp_path, monkeypatch):
    """A format-3 ``pag_path`` is sniffed once, by ``load_pag``: its
    format check, its header read and the map open are the only opens."""
    import builtins

    from repro.serve.protocol import AnalyzeRequest
    from repro.serve.server import ReproServer

    pag = PerFlow().run(bin=make_ring_program(), nprocs=4)
    path = tmp_path / "ring.pag3"
    save_pag(pag, path, format=3)
    server = ReproServer(ServerConfig())
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    try:
        loaded = server._load_pag(AnalyzeRequest("hotspot", pag_path=str(path)))
    finally:
        monkeypatch.undo()
        server._pool.shutdown(wait=True)
    assert len(opened) == 3
    assert loaded.num_vertices == pag.num_vertices


def test_per_request_ledger_records(tmp_path, ring_pag_doc):
    from repro.obs.ledger import Ledger

    ledger_dir = str(tmp_path / "serve-ledger")
    with ServerThread(ServerConfig(port=0, ledger_dir=ledger_dir)) as st:
        for _ in range(2):
            status, events = analyze(
                st.host, st.port, {"pipeline": "hotspot", "pag": ring_pag_doc}
            )
            assert status == 200 and events[-1]["event"] == "result"
    records = Ledger(ledger_dir).history(limit=0)
    assert len(records) == 2
    assert all(r["command"] == "serve" for r in records)
    assert all(r["paradigm"] == "hotspot" for r in records)
    assert all(r["pag_fingerprints"] for r in records)
