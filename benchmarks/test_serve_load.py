"""Serving-tier load benchmark: cold vs warm vs collapsed latency.

The acceptance benchmark for ``repro serve``: 8 concurrent clients
drive an in-process :class:`~repro.serve.client.ServerThread` through
three phases against a pipeline carrying a simulated ~80 ms analysis
cost:

* **cold** — 8 distinct requests: every one executes the pipeline.
* **warm** — the same 8 requests again: every one answers from the
  shared content-addressed cache, and p50 must come in **≥ 5× lower**
  than cold p50.
* **collapsed** — 8 *identical* concurrent requests on a fresh key:
  single-flight collapses them onto **exactly one** execution; the
  other seven reuse the leader's result.

Each phase prints one JSON line (run with ``-s`` to capture) so req/s
and p50/p99 can be tracked across commits by the CI perf-smoke job.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List

import pytest

from repro.dataflow.api import PerFlow
from repro.dataflow.graph import PerFlowGraph
from repro.obs import metrics as obs_metrics
from repro.pag.formats import pag_to_dict
from repro.pag.sets import VertexSet
from repro.serve import PIPELINES
from repro.serve.client import ServerThread, analyze
from repro.serve.server import ServerConfig
from tests.conftest import make_ring_program

PASS_LATENCY = 0.08  # seconds of simulated analysis cost per request
MIN_WARM_SPEEDUP = 5.0  # warm p50 must be >= 5x lower than cold p50
CLIENTS = 8

EXECUTIONS: List[int] = []  # salts actually executed (thread backend: in-process)


def _emit(name: str, **numbers) -> None:
    print(json.dumps({"benchmark": name, **numbers}), file=sys.stderr)


# Module-level pass body (stable identity); the per-request ``salt``
# reaches it through a lambda closure, so distinct salts are distinct
# cache keys and repeated salts are cache hits.
def _slow_rows(V: VertexSet, salt: int) -> List[Dict[str, Any]]:
    EXECUTIONS.append(salt)
    time.sleep(PASS_LATENCY)
    return [{"salt": salt, "vertices": len(V)}]


def _build_bench(params: Dict[str, Any]) -> PerFlowGraph:
    salt = int(params["salt"])
    g = PerFlowGraph("serve-load-bench")
    V = g.input("V", VertexSet)
    g.add_pass(
        lambda s: _slow_rows(s, salt),
        V,
        name="result",
        signature=((VertexSet,), ("any",)),
    )
    return g


@pytest.fixture(scope="module")
def bench_server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-load-cache")
    # thread backend pinned: EXECUTIONS is module state the forked
    # process backend could not report back
    config = ServerConfig(
        port=0,
        backend="thread",
        max_concurrent=CLIENTS,
        max_queue=CLIENTS * 4,
        cache=str(cache_dir),
        ledger=False,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(PIPELINES, "bench_slow", (_build_bench, {"salt": 0}))
        with ServerThread(config) as st:
            yield st


@pytest.fixture(scope="module")
def pag_doc():
    pag = PerFlow().run(bin=make_ring_program(), nprocs=4)
    return pag_to_dict(pag, include_per_rank=True)


def _fire(st, pag_doc, salts) -> List[float]:
    """Issue one request per salt concurrently; returns per-request wall."""

    def one(salt: int) -> float:
        t0 = time.perf_counter()
        status, events = analyze(
            st.host,
            st.port,
            {"pipeline": "bench_slow", "params": {"salt": salt}, "pag": pag_doc},
        )
        wall = time.perf_counter() - t0
        assert status == 200, events
        assert events[-1]["event"] == "result", events[-1]
        assert events[-1]["result"][0]["salt"] == salt
        return wall

    with ThreadPoolExecutor(max_workers=len(salts)) as pool:
        return list(pool.map(one, salts))


def _stats(walls: List[float]) -> Dict[str, float]:
    ordered = sorted(walls)
    return {
        "p50_ms": round(statistics.median(ordered) * 1e3, 1),
        "p99_ms": round(ordered[max(0, int(len(ordered) * 0.99) - 1)] * 1e3, 1),
        "req_s": round(len(ordered) / sum(ordered) * len(ordered), 1),
    }


def test_serve_load_cold_warm_collapsed(bench_server, pag_doc):
    st = bench_server
    collapsed0 = obs_metrics.counter("serve.collapsed").value

    # cold: 8 distinct requests, every one executes
    cold_salts = list(range(1, CLIENTS + 1))
    cold = _fire(st, pag_doc, cold_salts)
    assert sorted(EXECUTIONS) == cold_salts

    # warm: the same 8 requests answer from the shared cache
    warm = _fire(st, pag_doc, cold_salts)
    assert sorted(EXECUTIONS) == cold_salts, "warm phase must not re-execute"

    # collapsed: 8 identical concurrent requests, exactly one execution
    collapse_salt = 777
    collapsed = _fire(st, pag_doc, [collapse_salt] * CLIENTS)
    assert EXECUTIONS.count(collapse_salt) == 1, (
        f"single-flight must collapse to one execution, saw "
        f"{EXECUTIONS.count(collapse_salt)}"
    )
    n_collapsed = obs_metrics.counter("serve.collapsed").value - collapsed0
    assert n_collapsed == CLIENTS - 1

    cold_stats, warm_stats, coll_stats = _stats(cold), _stats(warm), _stats(collapsed)
    _emit("serve_load_cold", clients=CLIENTS, pass_latency_s=PASS_LATENCY, **cold_stats)
    _emit("serve_load_warm", clients=CLIENTS, **warm_stats)
    _emit(
        "serve_load_collapsed",
        clients=CLIENTS,
        executions=EXECUTIONS.count(collapse_salt),
        collapsed=n_collapsed,
        **coll_stats,
    )

    speedup = cold_stats["p50_ms"] / warm_stats["p50_ms"]
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm p50 {warm_stats['p50_ms']} ms only {speedup:.1f}x below cold "
        f"p50 {cold_stats['p50_ms']} ms (floor {MIN_WARM_SPEEDUP}x)"
    )
    # Collapsed followers wait on the leader, not the worker pool: the
    # whole identical batch lands in about one execution's latency.
    assert coll_stats["p99_ms"] / 1e3 < PASS_LATENCY * 4
