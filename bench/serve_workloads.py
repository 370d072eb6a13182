"""``serve_cold`` / ``serve_warm``: a real ``python -m repro serve`` child.

Closed loop (callers wait for their reply), one client: the server is
GIL-bound, so a second client adds no throughput (38 vs 38 req/s on
``serve_warm``), doubles every latency through GIL hand-offs (a cg/32 hit
goes from 4 to 15 ms) and triples the run-to-run spread (±12% vs ±3%).
The traced run adds a two-client phase so that cost stays visible.  The
client is a raw socket sending bytes encoded in set-up and reading to EOF;
responses are parsed and checked after the timed span so the generator
does no JSON work on the clock.  Every ``result`` must equal rows
computed in-process with ``serve.pipelines.build_graph(...).run``; a
refusal, a wrong answer or a server that does not drain to exit 0 on
SIGTERM is a failed op.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import threading
import time
import urllib.request
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import expected, loadgen
from bench.harness import (
    Outcome,
    RunDir,
    RunResult,
    median,
    percentile,
    proc_cpu_s,
    repro_argv,
)
from bench.trace import Tracer

#: Schedule capacity per second of ``--seconds``; a run sends what fits
#: and stops early only if the server outruns this.
CAPACITY_PER_S = {"serve_cold": 80, "serve_warm": 200}
#: Requests per second of ``--seconds`` in the traced run's one-client
#: phase (a fixed count, so ``serve.requests`` repeats exactly; about
#: half of what an untraced run sends); the two-client phase that follows
#: sends half as many again.
TRACED_PER_S = {"serve_cold": 10, "serve_warm": 20}
#: Full set-up cycles per run (PAG builds → server ready → pre-warm);
#: ``serve_warm``'s takes ~9 s, so it is done once.
SETUP_REPS = {"serve_cold": 2, "serve_warm": 1}
PAG_FILES = {"serve_cold": ("cg", "zeusmp"), "serve_warm": ("cg", "zeusmp", "lammps")}
NPROCS = {"cg": 32, "zeusmp": 128, "lammps": 128}
#: Sentinel the perturbed vertex ``time`` is encoded as in the template.
_PATCH_SENTINEL = 0.123456789012
_ANNOUNCE = re.compile(r"serving on ([\d.]+):(\d+)")


@dataclass
class Item:
    """One generated request: bytes to send and rows to expect."""

    parts: Tuple[bytes, ...]
    group: str  # PAG file (or "inline") — for the per-size hit latencies
    pipeline: str
    params: Dict[str, Any]
    #: expected rows, computed in set-up; None = compute after the run,
    #: from ``pag`` or (perturbed upload) from the very bytes sent
    rows: Any = None
    pag: Any = None


@dataclass
class Exchange:
    item: Item
    t_send: float
    t_done: float
    chunks: List[Tuple[float, bytes]]
    error: str = ""

    @property
    def wall_ms(self) -> float:
        return (self.t_done - self.t_send) * 1000.0


class Server:
    """The server child: started as an operator would, stopped with SIGTERM.

    As a context manager it only guarantees the child is gone on the way
    out (killed if an error skipped :meth:`stop`).
    """

    def __init__(self, rundir: RunDir, tag: str):
        self.stderr_path = rundir.sub(f"serve-{tag}.stderr")
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                repro_argv(
                    "serve", "--port", "0", "--backend", "thread", "--max-concurrent", "2",
                    "--cache-dir", rundir.sub(f"serve-cache-{tag}"), "--pag-root", rundir.path,
                ),
                cwd=rundir.path, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
            )
        try:
            line = self.proc.stdout.readline().decode("utf-8", errors="replace")
            m = _ANNOUNCE.search(line)
            if not m:
                raise RuntimeError(f"server never announced its address: {line!r}")
            self.addr = (m.group(1), int(m.group(2)))
            # Readiness is a full round trip, not a TCP accept: the kernel
            # accepts before the event loop runs, and the loop installs its
            # SIGTERM handler only just before it starts serving.
            deadline = time.monotonic() + 15.0
            while True:
                try:
                    with urllib.request.urlopen(self._url("/healthz"), timeout=5.0) as resp:
                        resp.read()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise RuntimeError("server never answered /healthz")
                    time.sleep(0.01)
        except BaseException:
            self.kill_if_alive()
            raise

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.kill_if_alive()

    def kill_if_alive(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def _url(self, route: str) -> str:
        return f"http://{self.addr[0]}:{self.addr[1]}{route}"

    def metrics(self) -> Dict[str, Any]:
        with urllib.request.urlopen(self._url("/metrics"), timeout=30.0) as resp:
            return json.load(resp)["counters"]

    def stop(self, outcome: Outcome) -> float:
        """SIGTERM, wait for the drain; returns the child's peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        outcome.op(
            self.proc.returncode == 0,
            f"server did not drain to exit 0 on SIGTERM (exit {self.proc.returncode})",
        )
        return usage.ru_maxrss / 1024.0


def _http(body_len: int) -> bytes:
    return (
        "POST /v1/analyze HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {body_len}\r\n\r\n"
    ).encode("ascii")


def _body(pipeline: str, params: Dict[str, Any], **source: Any) -> bytes:
    return json.dumps({"pipeline": pipeline, "params": params, **source}).encode("utf-8")


def _exchange(addr: Tuple[str, int], item: Item) -> Exchange:
    chunks: List[Tuple[float, bytes]] = []
    t_send = time.perf_counter()
    try:
        with socket.create_connection(addr, timeout=60.0) as sock:
            sock.sendall(b"".join(item.parts))
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append((time.perf_counter(), data))
    except OSError as err:
        return Exchange(item, t_send, time.perf_counter(), chunks, f"{type(err).__name__}: {err}")
    return Exchange(item, t_send, time.perf_counter(), chunks)


def _closed_loop(
    addr: Tuple[str, int], schedules: Sequence[Sequence[Item]], seconds: Optional[float]
) -> Tuple[List[Exchange], float]:
    """Each client sends its next request when the previous reply ended.

    With ``seconds`` the clients stop starting requests at the deadline;
    without, they send their whole schedule.
    """
    done: List[List[Exchange]] = [[] for _ in schedules]
    t_start = time.perf_counter()

    def client(index: int) -> None:
        for item in schedules[index]:
            if seconds is not None and time.perf_counter() - t_start >= seconds:
                break
            done[index].append(_exchange(addr, item))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(schedules))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    span_s = time.perf_counter() - t_start
    return [x for per_client in done for x in per_client], span_s


def _events(x: Exchange) -> Tuple[int, List[Tuple[float, Dict[str, Any]]]]:
    """HTTP status and the NDJSON events, each with its arrival time."""
    events: List[Tuple[float, Dict[str, Any]]] = []
    seen = 0
    buf = b""
    for t, data in x.chunks:
        buf += data
        body = buf.partition(b"\r\n\r\n")[2]
        lines = body.split(b"\n")[:-1]
        for line in lines[seen:]:
            if line.strip():
                try:
                    events.append((t, json.loads(line)))
                except ValueError:
                    pass  # an error body is plain JSON without a newline
        seen = len(lines)
    status = int(buf.split(b" ", 2)[1]) if buf.startswith(b"HTTP/") else 0
    return status, events


def _rows(pag: Any, pipeline: str, params: Dict[str, Any]) -> Any:
    from repro.serve.pipelines import build_graph

    return build_graph(pipeline, params).run(V=pag.vs)["result"]


def _verify(x: Exchange, outcome: Outcome) -> bool:
    if x.error:
        outcome.op(False, x.error)
        return False
    status, events = _events(x)
    if status != 200 or not events or events[-1][1].get("event") != "result":
        outcome.op(False, f"status {status}, last event {events[-1][1] if events else None}")
        return False
    want = x.item.rows
    if want is None:
        pag = x.item.pag
        if pag is None:
            from repro.pag.formats import pag_from_dict

            doc = json.loads(b"".join(x.item.parts).partition(b"\r\n\r\n")[2])
            pag = pag_from_dict(doc["pag"], path="<inline>")
        want = _rows(pag, x.item.pipeline, x.item.params)
    why = expected.check_rows_equal(events[-1][1]["result"], want, x.item.pipeline)
    outcome.op(not why, why)
    return not why


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Ready:
    server: Server
    schedules: List[List[Item]]
    digest: str
    layer_ms: Dict[str, float]


def _build_pags(name: str, rundir: RunDir, tag: str, tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Simulate each application and write its top-down PAG as format 3.

    Per-rank vectors are kept (the imbalance pipeline needs them).  The
    oracle PAG is the file loaded back on the *heap*: saving rounds
    floats, so the live PAG is not what the server sees, and the server
    opens the file with ``mmap`` — the two read paths must agree.  With a
    tracer, the storage layer is timed on these very files: ``save_pag``
    / ``load_pag`` (heap and mmap) / ``pag_from_dict``.
    """
    from repro.apps import lammps as lammps_mod
    from repro.apps import registry
    from repro.dataflow.api import PerFlow
    from repro.pag.formats import load_pag, pag_from_dict, pag_to_dict, save_pag

    built: Dict[str, Any] = {"pags": {}, "paths": {}, "bytes": 0, "vertices": 0}
    programs = registry()
    for app in PAG_FILES[name]:
        pflow = PerFlow(machine=lammps_mod.MACHINE if app == "lammps" else None)
        pag = pflow.run(bin=programs[app](), nprocs=NPROCS[app])
        path = rundir.sub(f"{app}-{tag}.pag3")
        t0 = time.perf_counter()
        built["bytes"] += save_pag(pag, path, include_per_rank=True, format=3)
        t1 = time.perf_counter()
        loaded = load_pag(path)
        t2 = time.perf_counter()
        built["vertices"] += pag.num_vertices
        built["pags"][app], built["paths"][app] = loaded, path
        if tracer is not None:
            tracer.add("pag.save3", t0, t1)
            tracer.add("pag.load3_heap", t1, t2)
            with tracer.span("pag.load3_mmap"):
                load_pag(path, mmap=True)
        if app == "cg":
            built["cg_doc"] = pag_to_dict(pag, include_per_rank=True)
    if tracer is not None:
        doc = json.loads(json.dumps(built["cg_doc"]))
        with tracer.span("pag.from_dict"):
            pag_from_dict(doc, path="<inline>")
    return built


def _warm_items(
    seed: int, built: Dict[str, Any], per_client: int, clients: int
) -> Tuple[List[List[Item]], List[Item], str]:
    keys = loadgen.warm_keys(seed)
    items = []
    for key in keys:
        body = _body(key["pipeline"], key["params"], pag_path=built["paths"][key["file"]])
        rows = _rows(built["pags"][key["file"]], key["pipeline"], key["params"])
        items.append(Item((_http(len(body)), body), key["file"], key["pipeline"], key["params"], rows))
    draws = loadgen.warm_schedule(seed, per_client, clients)
    schedules = [[items[i] for i in client] for client in draws]
    return schedules, items, loadgen.digest([keys, draws])


def _cold_items(
    seed: int, built: Dict[str, Any], per_client: int, clients: int
) -> Tuple[List[List[Item]], str]:
    doc = built["cg_doc"]
    doc["vertices"][1][3]["time"] = _PATCH_SENTINEL
    sentinel = repr(_PATCH_SENTINEL).encode("ascii")
    split: Dict[str, List[bytes]] = {}  # pipeline -> upload body around the patched field
    descs = loadgen.cold_schedule(seed, per_client, clients)
    schedules = []
    for client in descs:
        items = []
        for d in client:
            if d["kind"] == "inline":
                if d["pipeline"] not in split:
                    split[d["pipeline"]] = _body(d["pipeline"], d["params"], pag=doc).split(sentinel)
                prefix, suffix = split[d["pipeline"]]
                patch = d["patch"].encode("ascii")
                head = _http(len(prefix) + len(patch) + len(suffix))
                items.append(Item((head, prefix, patch, suffix), "inline",
                                  d["pipeline"], d["params"]))
            else:
                body = _body(d["pipeline"], d["params"], pag_path=built["paths"]["zeusmp"])
                items.append(Item((_http(len(body)), body), "zeusmp",
                                  d["pipeline"], d["params"], pag=built["pags"]["zeusmp"]))
        schedules.append(items)
    return schedules, loadgen.digest(descs)


def _setup_once(
    name: str, seed: int, per_client: int, clients: int, rundir: RunDir, tag: str,
    outcome: Outcome, tracer: Optional[Tracer] = None,
) -> Ready:
    built = _build_pags(name, rundir, tag, tracer)
    if name == "serve_warm":
        schedules, keys, digest = _warm_items(seed, built, per_client, clients)
    else:
        schedules, digest = _cold_items(seed, built, per_client, clients)
        keys = []
    server = Server(rundir, tag)
    try:
        for item in keys:  # pre-warm: each key requested once
            _verify(_exchange(server.addr, item), outcome)
    except BaseException:
        server.kill_if_alive()
        raise
    layer_ms: Dict[str, float] = {}
    if tracer is not None:
        layer_ms = {f"{n}_ms": median(tracer.durations_ms(n))
                    for n in ("pag.save3", "pag.load3_heap", "pag.load3_mmap", "pag.from_dict")}
        layer_ms["pag.bytes_per_vertex"] = built["bytes"] / built["vertices"]
    return Ready(server, schedules, digest, layer_ms)


def _setup(name: str, seed: int, per_client: int, rundir: RunDir, outcome: Outcome) -> Tuple[float, Ready]:
    """``SETUP_REPS`` full cycles; the last one's server is the one measured."""
    samples = []
    ready = None
    for rep in range(SETUP_REPS[name]):
        if ready is not None:
            with ready.server as previous:
                previous.stop(outcome)
        t0 = time.perf_counter()
        ready = _setup_once(name, seed, per_client, 1, rundir, str(rep), outcome)
        samples.append(time.perf_counter() - t0)
    return median(samples), ready


def _by_group(exchanges: Sequence[Exchange]) -> Dict[str, float]:
    groups: Dict[str, List[float]] = {}
    for x in exchanges:
        groups.setdefault(x.item.group, []).append(x.wall_ms)
    return {g: round(median(v), 3) for g, v in sorted(groups.items())}


def run(name: str, seed: int, seconds: float, rundir: RunDir) -> RunResult:
    outcome = Outcome()
    setup_s, ready = _setup(name, seed, int(CAPACITY_PER_S[name] * seconds), rundir, outcome)
    with ready.server as server:
        cpu0 = proc_cpu_s(server.proc.pid)
        exchanges, span_s = _closed_loop(server.addr, ready.schedules, seconds)
        cpu_s = proc_cpu_s(server.proc.pid) - cpu0
        rss_mb = server.stop(outcome)
    good = sum(_verify(x, outcome) for x in exchanges)
    lat_ms = [x.wall_ms for x in exchanges]
    metrics = {
        "setup_s": setup_s,
        "latency_ms_p50": median(lat_ms),
        "throughput_ops_s": good / span_s,
        "cpu_ms_per_op": cpu_s * 1000.0 / len(exchanges),
        "peak_rss_mb": rss_mb,
    }
    info = {"samples": len(exchanges), "schedule_digest": ready.digest,
            "latency_ms_p50_by_group": _by_group(exchanges)}
    return RunResult(name, seed, False, outcome, metrics, info)


def run_traced(name: str, seed: int, seconds: float, rundir: RunDir) -> RunResult:
    outcome = Outcome()
    tracer = Tracer(name)
    n = int(TRACED_PER_S[name] * seconds)
    ready = _setup_once(name, seed, n + n // 4, 2, rundir, "traced", outcome, tracer)
    first, second = ready.schedules
    with ready.server as server:
        before = server.metrics()
        exchanges, _span_s = _closed_loop(server.addr, [first[:n]], None)
        after = server.metrics()
        # Two clients on requests not sent yet: what concurrency costs.
        contended, _span_s = _closed_loop(server.addr, [first[n:], second[: n // 4]], None)
        collapsed = server.metrics().get("serve.collapsed", 0) - after.get("serve.collapsed", 0)
        server.stop(outcome)

    def delta(counter: str) -> float:
        return float(after.get(counter, 0) - before.get(counter, 0))

    prepare, execute, transport = [], [], []
    for x in exchanges:
        if not _verify(x, outcome):
            continue
        _status, events = _events(x)
        at = {doc["event"]: t for t, doc in events}
        root = tracer.add("serve.request", x.t_send, x.t_done)
        tracer.add("serve.prepare", x.t_send, at["accepted"], root)
        tracer.add("serve.execute", at["started"], at["result"], root)
        prepare.append((at["accepted"] - x.t_send) * 1000.0)
        execute.append((at["result"] - at["started"]) * 1000.0)
        transport.append(x.wall_ms - events[-1][1]["elapsed_ms"])
    for x in contended:
        _verify(x, outcome)
    lat_ms = [x.wall_ms for x in exchanges]
    by_group = _by_group(exchanges)
    hits, misses = delta("dataflow.cache.hits"), delta("dataflow.cache.misses")
    metrics = dict(ready.layer_ms)
    metrics.update({
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "serve.prepare_ms_p50": median(prepare),
        "serve.execute_ms_p50": median(execute),
        "serve.transport_ms_p50": median(transport),
        "serve.latency_ms_p95": percentile(lat_ms, 95.0),
        "serve.latency_ms_p99": percentile(lat_ms, 99.0),
        "serve.two_client_ms_p50": median([x.wall_ms for x in contended]),
        "serve.requests": delta("serve.requests"),
        "serve.collapsed": float(collapsed),
        "serve.rejected": delta("serve.rejected"),
        "serve.errors": delta("serve.errors"),
    })
    if name == "serve_warm":  # a hit on the smallest vs the largest PAG file
        metrics["serve.hit_small_ms_p50"] = by_group["cg"]
        metrics["serve.hit_large_ms_p50"] = by_group["lammps"]
    info = {"samples": len(exchanges), "two_client_samples": len(contended),
            "schedule_digest": ready.digest}
    return RunResult(name, seed, True, outcome, metrics, info, tracer.to_json())
