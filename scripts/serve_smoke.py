#!/usr/bin/env python
"""CI smoke test for ``repro serve``: real process, real sockets.

Starts the server as an operator would (``python -m repro serve``) on
an MPI run's PAG (NPB CG, class S, 4 ranks, per-rank vectors kept),
drives concurrent load — including two byte-identical requests that
must collapse onto one execution — checks every response's rows
against the same pipeline run in-process (and the ``mpi_profiler`` rows
against the MPI profiler paradigm's), sends SIGUSR2 mid-load and checks
that the server dumped a live crash report listing its recent spans,
checks that ``/metrics`` summarizes every request's ``serve.analyze``
span, then sends SIGTERM and checks for a clean drain (exit code 0) and, with
``--backend process``, that no shared-memory segments leaked.

Usage::

    python scripts/serve_smoke.py [--backend thread|process] [--jobs N]

Exits non-zero with a diagnostic on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)

from repro.dataflow.api import PerFlow  # noqa: E402
from repro.pag.formats import load_pag, save_pag  # noqa: E402
from repro.paradigms import mpi_profiler_paradigm  # noqa: E402
from repro.serve.client import analyze, http_request, wait_ready  # noqa: E402
from repro.serve.pipelines import build_graph  # noqa: E402

_ANNOUNCE = re.compile(r"serving on ([\d.]+):(\d+)")


def _fail(msg: str) -> "NoReturn":  # noqa: F821 - py39-safe comment type
    print(f"serve-smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


#: Rows each smoke request must return on the CG PAG.
_EXPECTED_ROWS = {"hotspot": 10, "mpi_profiler": 12, "imbalance": 3}


def _smoke_pag_file(workdir: str) -> str:
    from repro.apps import registry  # local import: needs sys.path set up

    pag = PerFlow().run(bin=registry("S")["cg"](), nprocs=4)
    path = os.path.join(workdir, "smoke.pag")
    save_pag(pag, path, include_per_rank=True, format=3)
    return path


def _check_rows(payload: dict, rows: list, pag) -> None:
    """A response's rows are the in-process pipeline's, and the
    ``mpi_profiler`` rows are the paradigm's in wire fields."""
    name, params = payload["pipeline"], payload.get("params", {})
    want = json.loads(json.dumps(build_graph(name, params).run(V=pag.vs)["result"]))
    if rows != want:
        _fail(f"{name} {params}: served rows differ from in-process rows")
    if not params and len(rows) != _EXPECTED_ROWS[name]:
        _fail(f"{name}: {len(rows)} rows, expected {_EXPECTED_ROWS[name]}")
    if name == "mpi_profiler":
        paradigm = [
            {"name": r.name, "site": r.site, "time": r.time, "app_pct": r.app_pct,
             "count": r.count, "bytes": r.total_bytes}
            for r in mpi_profiler_paradigm(PerFlow(), pag, top=20)
        ]
        if rows != paradigm:
            _fail("mpi_profiler rows differ from mpi_profiler_paradigm's")


def _sigusr2_report(crash_dir: str) -> dict:
    """The crash report SIGUSR2 made the server write (waits up to 10 s)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if os.path.isdir(crash_dir):
            dumps = [n for n in os.listdir(crash_dir) if n.startswith("crash-sigusr2-")]
            if dumps:
                with open(os.path.join(crash_dir, dumps[0]), encoding="utf-8") as fh:
                    return json.load(fh)
        time.sleep(0.05)
    _fail(f"SIGUSR2 wrote no crash-sigusr2-*.json under {crash_dir}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="thread", choices=["thread", "process"])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else None

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as workdir:
        pag_path = _smoke_pag_file(workdir)
        crash_dir = os.path.join(workdir, "crash")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--backend",
                args.backend,
                "--jobs",
                str(args.jobs),
                "--cache-dir",
                os.path.join(workdir, "cache"),
                "--ledger-dir",
                os.path.join(workdir, "ledger"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
                "PERFLOW_CRASH_DIR": crash_dir,
            },
        )
        try:
            deadline = time.monotonic() + 30.0
            host, port = "", 0
            while time.monotonic() < deadline and not port:
                line = proc.stdout.readline()
                if not line and proc.poll() is not None:
                    _fail(f"server exited rc={proc.poll()}: {proc.stderr.read()[-2000:]}")
                m = _ANNOUNCE.search(line or "")
                if m:
                    host, port = m.group(1), int(m.group(2))
            if not port:
                proc.kill()
                _fail("server never announced its address")
            wait_ready(host, port)

            status, _h, body = http_request(host, port, "GET", "/healthz")
            if status != 200:
                _fail(f"healthz returned {status}: {body!r}")

            # Concurrent load: distinct pipelines plus TWO byte-identical
            # requests (same pipeline, params, PAG) that must collapse.
            payloads = [
                {"pipeline": "hotspot", "pag_path": pag_path},
                {"pipeline": "mpi_profiler", "pag_path": pag_path},
                {"pipeline": "imbalance", "pag_path": pag_path},
                {"pipeline": "hotspot", "params": {"top": 3}, "pag_path": pag_path},
                {"pipeline": "hotspot", "params": {"top": 3}, "pag_path": pag_path},
            ]
            with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
                futures = [pool.submit(analyze, host, port, p, timeout=60.0) for p in payloads]
                # Mid-load, once one request is served (its spans are in
                # the server's flight recorder): a live hang dump.
                next(as_completed(futures))
                proc.send_signal(signal.SIGUSR2)
                results = [f.result() for f in futures]
            report = _sigusr2_report(crash_dir)
            if report.get("reason") != "sigusr2" or not report.get("spans"):
                _fail(f"SIGUSR2 report lists no spans: {json.dumps(report)[:2000]}")
            collapsed_seen = 0
            for payload, (status, events) in zip(payloads, results):
                if status != 200:
                    _fail(f"{payload['pipeline']}: status {status}: {events}")
                last = events[-1]
                if last.get("event") != "result":
                    _fail(f"{payload['pipeline']}: no result event: {last}")
                _check_rows(payload, last["result"], load_pag(pag_path))
                collapsed_seen += 1 if last.get("collapsed") else 0
            if collapsed_seen != 1:
                _fail(
                    f"expected exactly 1 collapsed response from the identical "
                    f"pair, saw {collapsed_seen}"
                )

            status, _h, body = http_request(host, port, "GET", "/metrics")
            metrics = json.loads(body)
            counters = metrics.get("counters", {})
            if counters.get("serve.requests", 0) < len(payloads):
                _fail(f"serve.requests missing or low: {counters}")
            if counters.get("serve.collapsed", 0) != 1:
                _fail(f"serve.collapsed != 1: {counters}")
            # Request latency is the summary of the serve.analyze spans.
            analyzed = metrics.get("histograms", {}).get("serve.analyze")
            if not analyzed or analyzed["count"] < len(payloads):
                _fail(f"serve.analyze summary missing or short: {analyzed}")
            if not analyzed["p50"] <= analyzed["p95"] <= analyzed["p99"] <= analyzed["max"]:
                _fail(f"serve.analyze quantiles out of order: {analyzed}")

            proc.send_signal(signal.SIGTERM)
            try:
                rc = proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                _fail("server did not drain within 30s of SIGTERM")
            if rc != 0:
                _fail(f"SIGTERM drain exited {rc}: {proc.stderr.read()[-2000:]}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    if shm_before is not None:
        leaked = set(os.listdir("/dev/shm")) - shm_before
        if leaked:
            _fail(f"leaked shm segments after drain: {sorted(leaked)}")

    print(f"serve-smoke: OK (backend={args.backend})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
