"""Shared plumbing: run directory, child processes, statistics, result line."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Every file a run writes lives under here (the driver's checkout is the
#: only place the benchmark may write); listed in ``.gitignore``.
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class RunDir:
    """One temp dir per run for ledger/cache/PAG files, removed at exit.

    While it is open the process environment (which children inherit)
    has ``PYTHONPATH`` on ``src`` and ``PERFLOW_LEDGER_DIR``,
    ``PERFLOW_CRASH_DIR``, ``XDG_CACHE_HOME`` and ``TMPDIR`` inside the
    directory, and children run with it as their working directory, so a
    run leaves nothing behind.
    """

    def __init__(self) -> None:
        self.path = ""
        self._saved_env: Dict[str, str] = {}

    def __enter__(self) -> "RunDir":
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
        self._saved_env = dict(os.environ)
        pythonpath = SRC
        if os.environ.get("PYTHONPATH"):
            pythonpath += os.pathsep + os.environ["PYTHONPATH"]
        os.environ.update(
            PYTHONPATH=pythonpath,
            PERFLOW_LEDGER_DIR=self.sub("ledger"),
            PERFLOW_CRASH_DIR=self.sub("crash"),
            XDG_CACHE_HOME=self.sub("xdg-cache"),
            TMPDIR=self.path,
        )
        for name in ("PERFLOW_JOBS", "PERFLOW_BACKEND", "PERFLOW_CACHE", "PERFLOW_CACHE_DIR"):
            os.environ.pop(name, None)  # workloads run with default flags
        return self

    def sub(self, name: str) -> str:
        return os.path.join(self.path, name)

    def __exit__(self, *exc: object) -> None:
        os.environ.clear()
        os.environ.update(self._saved_env)
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)  # only succeeds when no other run is live
        except OSError:
            pass


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes


def run_child(argv: Sequence[str], rundir: RunDir) -> ChildResult:
    """Run one child to completion; wall, rusage CPU and peak RSS of its tree."""
    out_path = rundir.sub("child-stdout")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=rundir.path,
            stdout=out, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        )
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
        stdout=stdout,
    )


def stop_children() -> List[int]:
    """Stop and reap every child this process still has; returns their pids.

    The process backend's ``SharedMemory`` blocks start multiprocessing's
    resource-tracker daemon as a child of *this* process; left alone it
    outlives the run by the moment it takes to notice its pipe closed.  It
    is stopped the way multiprocessing stops it (close the pipe, wait).
    Anything else still running is a child an error path lost: killed,
    waited and returned, so the caller can count it as a failed op.
    """
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_mod is not None:
        tracker_mod._resource_tracker._stop()
    me = os.getpid()
    strays = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                state, ppid = fh.read().rsplit(b")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue  # gone between listdir and open
        if int(ppid) != me:
            continue
        pid = int(entry)
        if state != b"Z":  # a zombie has stopped; it only needs reaping
            strays.append(pid)
        try:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return strays


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds a live process has used (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


@dataclass
class Outcome:
    """Ops attempted and failed; a wrong answer or a leak is a failed op."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(why)


@dataclass
class RunResult:
    """What one ``--workload`` run reports."""

    workload: str
    seed: int
    trace: bool
    outcome: Outcome
    metrics: Dict[str, float]
    info: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def result_line(self, units: Dict[str, str]) -> Dict[str, Any]:
        return {
            "correct": self.outcome.failed == 0,
            "attempted": self.outcome.attempted,
            "failed": self.outcome.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }

    def record(self, units: Dict[str, str]) -> Dict[str, Any]:
        doc = self.result_line(units)
        doc.update(
            workload=self.workload,
            seed=self.seed,
            trace=int(self.trace),
            info=self.info,
            failures=self.outcome.failures,
            spans=self.spans,
        )
        return doc


def metric_units(spec: Dict[str, Any], trace: bool) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
