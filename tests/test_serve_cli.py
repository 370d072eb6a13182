"""``repro serve`` as a real subprocess: startup, requests, SIGTERM drain.

Drives the server exactly the way an operator does — ``python -m repro
serve`` — and checks the lifecycle guarantees the docs promise: the
bound address is announced on stdout, requests work over real sockets,
SIGTERM drains gracefully to exit code 0, and the process backend
leaves no shared-memory segments behind.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.dataflow.api import PerFlow
from repro.pag.formats import save_pag
from repro.serve.client import analyze, http_request, wait_ready
from tests.conftest import make_ring_program

_ANNOUNCE = re.compile(r"serving on ([\d.]+):(\d+)")


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(tmp_path, *extra: str) -> "subprocess.Popen[str]":
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--ledger-dir",
            str(tmp_path / "ledger"),
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
        text=True,
        cwd=str(tmp_path),
    )


def _await_announce(proc) -> "tuple[str, int]":
    deadline = time.monotonic() + 20.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                break
            time.sleep(0.02)
            continue
        m = _ANNOUNCE.search(line)
        if m:
            return m.group(1), int(m.group(2))
    raise AssertionError(
        f"no announce line (last={line!r}, rc={proc.poll()}, "
        f"stderr={proc.stderr.read()[-2000:]})"
    )


def _terminate(proc, timeout: float = 20.0) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


@pytest.fixture(scope="module")
def pag_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-cli-pag")
    pag = PerFlow().run(bin=make_ring_program(), nprocs=4)
    path = root / "ring.pag"
    save_pag(pag, path, format=3)
    return path


def test_serve_subprocess_sigterm_drains_cleanly(tmp_path, pag_file):
    proc = _spawn(tmp_path)
    try:
        host, port = _await_announce(proc)
        wait_ready(host, port)

        status, _headers, body = http_request(host, port, "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

        status, events = analyze(
            host,
            port,
            {"pipeline": "hotspot", "pag_path": str(pag_file)},
        )
        assert status == 200
        kinds = [e["event"] for e in events]
        assert kinds == ["accepted", "started", "result"]
        assert events[-1]["result"], "hotspot pipeline returned no rows"

        rc = _terminate(proc)
        assert rc == 0, f"SIGTERM drain exited {rc}: {proc.stderr.read()[-2000:]}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_sigterm_right_after_the_announce_line_still_drains(tmp_path):
    """The announce line is a promise that the server can be signalled:
    the handlers must be installed before it is printed, or a SIGTERM
    that wins the race kills the process with -15 instead of draining."""
    for _ in range(5):  # a race: one lucky pass proves little
        with _spawn(tmp_path) as proc:  # closes the pipes on the way out
            try:
                _await_announce(proc)
                rc = _terminate(proc)
                assert rc == 0, (
                    f"SIGTERM after announce exited {rc}: {proc.stderr.read()[-2000:]}"
                )
            finally:
                if proc.poll() is None:
                    proc.kill()


def test_serve_process_backend_leaks_no_shm(tmp_path, pag_file):
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    before = set(os.listdir("/dev/shm"))
    proc = _spawn(tmp_path, "--backend", "process", "--jobs", "2")
    try:
        host, port = _await_announce(proc)
        wait_ready(host, port)
        status, events = analyze(
            host,
            port,
            {"pipeline": "mpi_profiler", "pag_path": str(pag_file)},
        )
        assert status == 200
        assert events[-1]["event"] == "result"
        rc = _terminate(proc)
        assert rc == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # The process pool creates no shared-memory segment; a drained
    # server must not have left one behind by any other route either.
    leaked = set(os.listdir("/dev/shm")) - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"


def test_serve_rejects_bad_flags(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--max-concurrent", "0"],
        capture_output=True,
        env=_env(),
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "max-concurrent" in proc.stderr
