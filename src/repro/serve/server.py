"""The asyncio analysis server (``repro serve``).

Architecture — one event loop, one bounded thread pool::

    client ──HTTP──▶ asyncio loop ──▶ admission (429 beyond capacity)
                                 ──▶ prepare  (load PAG, build graph,
                                               check(), cache key)
                                 ──▶ single-flight (identical requests
                                               collapse onto one leader)
                                 ──▶ executor slot ──▶ graph.run(...)
                                               (thread or process backend)
                                 ◀── NDJSON events back to every caller

The HTTP layer is a deliberately small hand-rolled HTTP/1.1 subset
(request line + headers + Content-Length body; every response is
``Connection: close``) — stdlib only, enough for ``curl``,
``http.client``, and load generators, with zero new dependencies.

The shared :class:`~repro.cache.store.PassCache` is the multi-tenant
tier: a request whose ``(fingerprint, pipeline, params)`` was computed
before — by any client, or any previous server process when a disk
cache directory is configured — is a cache hit; an identical request
*currently executing* collapses onto it via
:class:`~repro.serve.singleflight.SingleFlight` without taking a
worker slot.

SIGTERM/SIGINT triggers a graceful drain: the listener closes, new
analyzes get 503, in-flight requests run to completion (bounded by
``drain_timeout``), then the process exits 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve import pipelines as _pipelines
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    AnalyzeRequest,
    ProtocolError,
    canonical_params,
    error_body,
    event_line,
    parse_analyze_request,
)
from repro.serve.queue import AdmissionController
from repro.serve.singleflight import SingleFlight

__all__ = ["ServerConfig", "ReproServer"]

_NULL_CM = contextlib.nullcontext()

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Pre-admission bounds on the header section: admission control only
#: applies once a request parses, so the raw read loop itself must not
#: let a client grow server memory without limit.
MAX_HEADER_LINES = 100
MAX_HEADER_BYTES = 16 * 1024


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8321
    jobs: Optional[int] = None
    backend: Optional[str] = None
    cache: Any = None
    max_concurrent: int = 4
    max_queue: int = 16
    drain_timeout: float = 10.0
    ledger: Optional[bool] = None
    ledger_dir: Optional[str] = None
    max_body_bytes: int = MAX_BODY_BYTES
    #: When set, ``pag_path`` requests must resolve (symlinks and ``..``
    #: included) under this directory; anything else is a 403.  ``None``
    #: (the default) trusts clients with any server-readable path —
    #: acceptable only behind the default loopback bind.
    pag_root: Optional[str] = None


@dataclass
class _Prepared:
    """A validated request, ready for (or collapsed into) execution."""

    request: AnalyzeRequest
    pag: Any
    graph: Any
    fingerprint: str
    key: str


class ReproServer:
    """One listening analysis server; see the module docstring."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        from repro.cache import resolve_cache
        from repro.dataflow.scheduler import resolve_backend, resolve_jobs

        self.jobs = resolve_jobs(self.config.jobs)
        self.backend = resolve_backend(self.config.backend)
        # One shared PassCache for every request: this is the
        # multi-tenant tier (MemoryLRU is thread-safe; the disk tier is
        # multi-process safe).
        self.cache = resolve_cache(self.config.cache)

        from repro.obs import ledger as _ledger

        self._ledger_dir = _ledger.resolve_ledger(
            self.config.ledger, self.config.ledger_dir
        )

        self._flight = SingleFlight()
        self._admission = AdmissionController(
            self.config.max_concurrent, self.config.max_queue
        )
        # +2 threads over the slot count so prepare work (PAG loads,
        # graph checks) is never starved by running pipelines.
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent + 2,
            thread_name_prefix="serve",
        )
        # Forking is not thread-safe: a worker forked while a sibling
        # execution holds any lock (logging, the metrics registry, the
        # cache's MemoryLRU) inherits it held and deadlocks.  The
        # process backend forks lazily at submit, so the server must be
        # a single-forker: one process-backend run at a time, with the
        # run's own jobs=N worker pool providing the parallelism.
        self._fork_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set["asyncio.Task[Any]"] = set()
        self._stop: Optional[asyncio.Event] = None
        self.draining = False
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]

    async def serve_forever(
        self,
        install_signals: bool = True,
        on_ready: Optional[Callable[[], None]] = None,
    ) -> None:
        """Start, run until :meth:`request_drain`, then drain cleanly.

        ``on_ready`` runs once the listener is bound *and* the signal
        handlers are in place, so whoever it tells about the server may
        signal it straight away and still get a drained exit.
        """
        if self._server is None:
            await self.start()
        assert self._stop is not None
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_drain)
                except (NotImplementedError, ValueError, RuntimeError):
                    break  # non-main thread or unsupported platform
        if on_ready is not None:
            on_ready()
        await self._stop.wait()
        await self.drain()

    def request_drain(self) -> None:
        """Begin graceful shutdown (signal handler / test hook)."""
        self.draining = True
        if self._stop is not None:
            self._stop.set()

    async def drain(self) -> None:
        """Close the listener and wait for in-flight connections."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [t for t in self._conn_tasks if not t.done()]
        if pending:
            done, still = await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
            for task in still:
                task.cancel()
            if still:
                await asyncio.gather(*still, return_exceptions=True)
        self._pool.shutdown(wait=True)

    # -- connection handling ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, target, headers, body = await self._read_request(reader)
        except ProtocolError as err:
            self._write_error(writer, err)
            await writer.drain()
            return
        except (ValueError, asyncio.LimitOverrunError):
            self._write_error(
                writer, ProtocolError(400, "bad-request", "malformed HTTP request")
            )
            await writer.drain()
            return

        if method == "GET" and target == "/healthz":
            self._write_json(writer, 200, self._health_doc())
        elif method == "GET" and target == "/metrics":
            doc = _metrics.registry.to_dict(spans=_trace.get_recorder())
            self._write_json(writer, 200, doc)
        elif method == "POST" and target == "/v1/analyze":
            await self._handle_analyze(writer, body)
        else:
            self._write_error(
                writer,
                ProtocolError(404, "not-found", f"no route {method} {target}"),
            )
        await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        line = await reader.readline()
        if not line:
            raise ProtocolError(400, "bad-request", "empty request")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ProtocolError(400, "bad-request", "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        header_lines = 0
        header_bytes = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            header_lines += 1
            header_bytes += len(raw)
            if header_lines > MAX_HEADER_LINES or header_bytes > MAX_HEADER_BYTES:
                raise ProtocolError(
                    431,
                    "headers-too-large",
                    f"header section exceeds {MAX_HEADER_LINES} lines / "
                    f"{MAX_HEADER_BYTES} bytes",
                )
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body_bytes:
            raise ProtocolError(
                413,
                "too-large",
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _health_doc(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "inflight": self._admission.running,
            "admitted": self._admission.admitted,
            "backend": self.backend,
            "jobs": self.jobs,
            "pipelines": sorted(_pipelines.PIPELINES),
        }

    # -- the analyze endpoint -----------------------------------------------
    async def _handle_analyze(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        t0 = time.perf_counter()
        if self.draining:
            self._write_error(
                writer,
                ProtocolError(503, "draining", "server is draining; retry elsewhere"),
            )
            return
        try:
            self._admission.admit()
        except ProtocolError as err:
            self._write_error(writer, err)
            return
        _metrics.counter("serve.requests").inc()
        # From here on the admission slot is held: every exit path —
        # prepare failure, client disconnect at a drain point, forced
        # cancellation during drain — must run the release() in the
        # outer finally exactly once, or capacity leaks until restart.
        try:
            try:
                req = parse_analyze_request(body)
                loop = asyncio.get_running_loop()
                prepared = await loop.run_in_executor(
                    self._pool, self._prepare, req
                )
            except ProtocolError as err:
                _metrics.counter("serve.errors").inc()
                self._write_error(writer, err)
                return
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                _metrics.counter("serve.errors").inc()
                self._write_error(
                    writer,
                    ProtocolError(500, "internal", f"{type(exc).__name__}: {exc}"),
                )
                return

            # Validated: the response is now a close-delimited NDJSON stream.
            self._start_stream(writer)
            writer.write(
                event_line(
                    "accepted",
                    request_id=req.request_id,
                    pipeline=req.pipeline,
                    fingerprint=prepared.fingerprint,
                )
            )
            writer.write(event_line("started", key=prepared.key))
            await writer.drain()

            exit_code = 0
            collapsed = False
            try:
                result, was_leader = await self._flight.run(
                    prepared.key, lambda: self._run_leader(prepared)
                )
                collapsed = not was_leader
                if collapsed:
                    _metrics.counter("serve.collapsed").inc()
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                writer.write(
                    event_line(
                        "result",
                        request_id=req.request_id,
                        collapsed=collapsed,
                        elapsed_ms=round(elapsed_ms, 3),
                        result=result,
                    )
                )
            except asyncio.CancelledError:
                exit_code = 1
                raise
            except BaseException as exc:
                exit_code = 1
                _metrics.counter("serve.errors").inc()
                writer.write(
                    event_line(
                        "error",
                        request_id=req.request_id,
                        code="execution",
                        message=f"{type(exc).__name__}: {exc}",
                    )
                )
            finally:
                t_end = time.perf_counter()
                # One completed span per request: the request lives across
                # awaits on this one loop thread, where an open span would
                # nest concurrent requests under each other.
                rec = _trace.get_recorder()
                if isinstance(rec, _trace.SpanRecorder):
                    rec.record_completed(
                        "serve.analyze",
                        category="serve",
                        args={
                            "pipeline": req.pipeline,
                            "collapsed": collapsed,
                            "exit": exit_code,
                        },
                        t_start=t0,
                        t_end=t_end,
                        tid=threading.get_ident(),
                    )
                # Ledger appends do disk I/O (open/write/rename), so they
                # go to the pool — never the event loop thread.  Fire and
                # forget: _append_ledger never raises, and drain()'s
                # pool.shutdown(wait=True) flushes stragglers on exit.
                with contextlib.suppress(RuntimeError):
                    self._pool.submit(
                        self._append_ledger,
                        req,
                        prepared,
                        t_end - t0,
                        exit_code,
                    )
        finally:
            self._admission.release()
        await writer.drain()

    async def _run_leader(self, prepared: _Prepared) -> Any:
        """Leader path: take an execution slot, run on the pool."""
        async with self._admission:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._pool, self._execute, prepared
            )

    # -- synchronous work (executor threads) --------------------------------
    def _prepare(self, req: AnalyzeRequest) -> _Prepared:
        pag = self._load_pag(req)
        try:
            graph = _pipelines.build_graph(req.pipeline, req.params)
        except KeyError as err:
            raise ProtocolError(400, "unknown-pipeline", str(err.args[0]))
        except ValueError as err:
            raise ProtocolError(400, "bad-params", str(err))
        diags = graph.check(V=pag.vs)
        if diags:
            raise ProtocolError(
                400,
                "pipeline-check",
                f"pipeline {req.pipeline!r} failed check() with "
                f"{len(diags)} diagnostic(s)",
                diagnostics=[
                    {"code": d.code, "message": d.message, "node": d.node}
                    for d in diags
                ],
            )
        fp = pag.fingerprint()
        key = hashlib.blake2b(
            f"{fp}|{req.pipeline}|{canonical_params(req.params)}".encode("utf-8"),
            digest_size=16,
        ).hexdigest()
        return _Prepared(req, pag, graph, fp, key)

    def _load_pag(self, req: AnalyzeRequest) -> Any:
        from repro.pag.formats import load_pag, pag_from_dict
        from repro.pag.formats import PAGFormatError

        try:
            if req.pag_doc is not None:
                return pag_from_dict(req.pag_doc, path="<inline>")
            assert req.pag_path is not None
            path = self._authorize_pag_path(req.pag_path)
            # mmap format-3 files (a JSON document ignores the flag): the
            # open is O(header) and the header fingerprint seeds
            # PAG.fingerprint(), so a warm cache probe on an on-disk PAG
            # reads zero column bytes.
            return load_pag(path, mmap=True)
        except PAGFormatError as err:
            raise ProtocolError(400, "bad-pag", str(err))
        except OSError as err:
            raise ProtocolError(400, "bad-pag", f"cannot read PAG: {err}")

    def _authorize_pag_path(self, path: str) -> str:
        """Apply the optional ``pag_root`` allow-list to a ``pag_path``.

        ``pag_path`` makes the server open files on its own filesystem
        on a client's behalf; with a root configured, the request path
        must resolve (through symlinks and ``..``) to somewhere under
        it, and the 403 carries no filesystem detail — no
        existence/permission oracle outside the root.
        """
        if self.config.pag_root is None:
            return path
        root = os.path.realpath(self.config.pag_root)
        real = os.path.realpath(path)
        if real != root and not real.startswith(root + os.sep):
            raise ProtocolError(
                403,
                "path-denied",
                "pag_path must resolve under the server's --pag-root",
            )
        return real

    def _execute(self, prepared: _Prepared) -> Any:
        with _trace.timed_span(
            "serve.request",
            category="serve",
            pipeline=prepared.request.pipeline,
            fingerprint=prepared.fingerprint[:16],
        ):
            with self._fork_lock if self.backend == "process" else _NULL_CM:
                out = prepared.graph.run(
                    jobs=self.jobs,
                    backend=self.backend,
                    cache=self.cache if self.cache is not None else False,
                    V=prepared.pag.vs,
                )
        return out["result"]

    def _append_ledger(
        self, req: AnalyzeRequest, prepared: _Prepared, wall_s: float, exit_code: int
    ) -> None:
        """One ledger record per request (never raises)."""
        if not self._ledger_dir:
            return
        from repro.obs import ledger as _ledger
        from repro.obs.log import get_logger

        try:
            record = _ledger.build_run_record(
                command="serve",
                argv=[req.pipeline, canonical_params(req.params)],
                paradigm=req.pipeline,
                params=dict(req.params),
                recorder=None,
                wall_s=wall_s,
                exit_code=exit_code,
                pag_fingerprints=[prepared.fingerprint],
            )
            _ledger.Ledger(self._ledger_dir).append(record)
        except Exception as err:  # pragma: no cover - best-effort
            get_logger("serve").warning("ledger append failed: %s", err)

    # -- response writing ---------------------------------------------------
    def _write_json(
        self, writer: asyncio.StreamWriter, status: int, doc: Dict[str, Any]
    ) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self._write_head(
            writer, status, [("Content-Length", str(len(body)))]
        )
        writer.write(body)

    def _write_error(self, writer: asyncio.StreamWriter, err: ProtocolError) -> None:
        body = error_body(err)
        headers: List[Tuple[str, str]] = [("Content-Length", str(len(body)))]
        if err.retry_after is not None:
            headers.append(("Retry-After", f"{err.retry_after:g}"))
        self._write_head(writer, err.status, headers)
        writer.write(body)

    def _start_stream(self, writer: asyncio.StreamWriter) -> None:
        self._write_head(
            writer, 200, [], content_type="application/x-ndjson"
        )

    def _write_head(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: List[Tuple[str, str]],
        content_type: str = "application/json",
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers)
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))


def main_loop(config: ServerConfig, announce: Any = None) -> int:
    """Blocking entry point used by ``repro serve``; returns exit code."""
    server = ReproServer(config)

    def _announce() -> None:
        if announce is not None:
            print(f"serving on {server.host}:{server.port}", file=announce, flush=True)

    asyncio.run(server.serve_forever(on_ready=_announce))
    return 0
