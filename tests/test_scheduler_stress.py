"""Concurrency stress: repeated parallel runs with sleeps and failures.

A PerFlowGraph whose passes sleep on a staggered schedule (forcing real
interleaving on the pool) and raise at fixed positions is executed 50
times under ``jobs=4``.  Every iteration must terminate (no deadlock),
select the same first error as the serial sweep (deterministic error
selection), and leave no orphaned futures or worker threads behind.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.dataflow.graph import PerFlowGraph
from repro.dataflow.scheduler import resolve_jobs

ROUNDS = 50


def _build_stress_graph():
    """Three-layer diamond fan-out with two raising nodes.

    Layer 1 fans one input out to 8 sleeping passes; layer 2 pairs them
    up; layer 3 joins.  Two layer-1 nodes raise: ``flaky_2`` (node id 3)
    after a *long* sleep and ``flaky_6`` (node id 7) after a *short*
    one, so under ``jobs=4`` the higher-id failure reliably lands
    first — the scheduler must still report the lower-id one, exactly
    as the serial sweep does.
    """
    g = PerFlowGraph("stress")
    x = g.input("x")
    layer1 = []
    for k in range(8):
        if k == 2:
            def fn(v, _k=k):
                time.sleep(0.02)
                raise RuntimeError(f"flaky_{_k}")
        elif k == 6:
            def fn(v, _k=k):
                time.sleep(0.001)
                raise RuntimeError(f"flaky_{_k}")
        else:
            def fn(v, _k=k):
                time.sleep(0.002 * (_k % 3 + 1))
                return frozenset(i + _k for i in v)
        layer1.append(g.add_pass(fn, x, name=f"work_{k}"))
    layer2 = [
        g.add_pass(lambda a, b: a | b, layer1[i], layer1[i + 1], name=f"pair_{i}")
        for i in range(0, 8, 2)
    ]
    g.add_pass(lambda *vs: frozenset().union(*vs), *layer2, name="join")
    return g


def _first_error(g, jobs):
    try:
        g.run(jobs=jobs, x=frozenset({1, 2, 3}))
    except Exception as exc:  # noqa: BLE001 - the error IS the result
        return type(exc), str(exc)
    pytest.fail("stress graph was built to fail but ran to completion")


def test_fifty_rounds_no_deadlock_deterministic_error():
    g = _build_stress_graph()
    expected = _first_error(g, jobs=1)
    assert expected == (RuntimeError, "flaky_2")  # lowest failing node id
    for _ in range(ROUNDS):
        assert _first_error(g, jobs=4) == expected


def test_no_orphaned_workers_after_errors():
    """Every pool is joined before run() raises: thread count stays flat."""
    g = _build_stress_graph()
    baseline = threading.active_count()
    for _ in range(10):
        with pytest.raises(RuntimeError):
            g.run(jobs=4, x=frozenset({1}))
        assert threading.active_count() <= baseline
    assert not [
        t.name for t in threading.enumerate() if t.name.startswith("perflow-")
    ]


def test_success_path_joins_workers_too():
    g = PerFlowGraph("clean")
    x = g.input("x")
    for k in range(6):
        g.add_pass(lambda v, _k=k: frozenset(i * _k for i in v), x, name=f"p{k}")
    baseline = threading.active_count()
    for _ in range(10):
        g.run(jobs=4, x=frozenset({1, 2}))
    assert threading.active_count() <= baseline


def test_resolve_jobs_validation(monkeypatch):
    monkeypatch.delenv("PERFLOW_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(8) == 8
    for bad in (0, -2, 2.5, "4", True):
        with pytest.raises(ValueError):
            resolve_jobs(bad)


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("PERFLOW_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(1) == 1  # explicit argument beats the env
    monkeypatch.setenv("PERFLOW_JOBS", "")
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("PERFLOW_JOBS", "zero")
    with pytest.raises(ValueError):
        resolve_jobs(None)
    monkeypatch.setenv("PERFLOW_JOBS", "0")
    with pytest.raises(ValueError):
        resolve_jobs(None)
