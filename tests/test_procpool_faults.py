"""Fault injection for the multiprocessing backend.

The process pool adds a failure mode threads cannot have: a worker can
die without returning (SIGKILL, OOM-kill) and its result is lost in
transit.  It must surface as a deterministic, well-typed error in the
coordinator — and leave no worker process behind, whatever the exit
path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import pytest

from repro.dataflow.graph import PerFlowGraph
from repro.dataflow.procpool import WorkerCrashed
from repro.pag.edge import EdgeLabel
from repro.pag.sets import VertexSet
from repro.pag.graph import PAG
from repro.pag.vertex import VertexLabel


def make_pag(name: str = "g", n: int = 6) -> PAG:
    pag = PAG(name)
    for i in range(n):
        pag.add_vertex(
            VertexLabel.FUNCTION,
            f"f{i}",
            None,
            {"time": float(i), "debug-info": f"s.c:{i}"},
        )
    for i in range(n - 1):
        pag.add_edge(i, i + 1, EdgeLabel.INTRA_PROCEDURAL, None, {"weight": 1.0})
    return pag


def _keep_all(s):
    return VertexSet(list(s))


def _die(s):
    os.kill(os.getpid(), signal.SIGKILL)


def _poison(s):
    raise ValueError("poisoned pass")


def _pag_pipeline(fn_mid):
    """input → keep → <fn_mid> → names; PAG-backed so sets rebind."""
    g = PerFlowGraph("faulty")
    V = g.input("V", VertexSet)
    a = g.add_pass(_keep_all, V, name="keep")
    b = g.add_pass(fn_mid, a, name="mid")
    g.add_pass(lambda s: [v.name for v in s], b, name="names")
    return g


# ----------------------------------------------------------------- crash
def test_sigkilled_worker_raises_worker_crashed():
    pag = make_pag()
    g = _pag_pipeline(_die)
    with pytest.raises(WorkerCrashed) as exc:
        g.run(jobs=2, backend="process", V=pag.vs)
    # the error names the in-flight node so the user can bisect
    assert "mid" in str(exc.value)


def test_crash_counts_metric_and_semantic_errors_win():
    """A plain raising pass beats WorkerCrashed taxonomy: the original
    exception type/message surface, exactly as the serial run raises."""
    pag = make_pag()
    with pytest.raises(ValueError) as serial_exc:
        _pag_pipeline(_poison).run(jobs=1, V=pag.vs)
    with pytest.raises(ValueError) as proc_exc:
        _pag_pipeline(_poison).run(jobs=2, backend="process", V=pag.vs)
    assert str(proc_exc.value) == str(serial_exc.value) == "poisoned pass"
    assert type(proc_exc.value) is ValueError


# ----------------------------------------------------------------- leaks
def test_crashed_run_leaks_no_segments():
    """``ProcessExecutor.close`` joins the pool even when it broke: the
    surviving worker is gone by the time ``run`` raises."""
    pag = make_pag()
    with pytest.raises(WorkerCrashed):
        _pag_pipeline(_die).run(jobs=2, backend="process", V=pag.vs)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------- ledger
def test_ledger_record_consistent_after_crash(tmp_path):
    """A crashed process run still yields a coherent ledger record:
    JSON-safe, nonzero exit code, rollups for the nodes that did run."""
    from repro.obs import trace as obs_trace
    from repro.obs.ledger import Ledger, build_run_record

    pag = make_pag()
    rec = obs_trace.enable()
    try:
        with pytest.raises(WorkerCrashed):
            _pag_pipeline(_die).run(jobs=2, backend="process", V=pag.vs)
    finally:
        obs_trace.disable()

    record = build_run_record(
        "run",
        ["run", "faulty", "--jobs", "2", "--backend", "process"],
        program="faulty",
        params={"jobs": 2, "backend": "process"},
        recorder=rec,
        exit_code=1,
        pag_fingerprints=[pag.fingerprint()],
    )
    json.dumps(record)  # JSON-safe despite the abnormal exit
    assert record["exit_code"] == 1
    assert record["params"]["backend"] == "process"

    led = Ledger(str(tmp_path / "led"))
    led.append(record)
    fetched = led.get(record["run_id"])
    assert fetched["identity"] == record["identity"]
    assert fetched["pag_fingerprints"] == [pag.fingerprint()]
