"""Result-cache speedup and overhead on the mpi-profiler pipeline.

The acceptance benchmark for ``PerFlowGraph.run(cache=...)``: the
mpi-profiler stages (comm_filter → hotspot → profile_rows) run against
the real cg PAG with each pass carrying a simulated ~40 ms analysis
cost (the cache pays off proportionally to pass cost; the bare passes
on the 321-vertex cg graph finish in microseconds, where a lookup is
worth no more than the compute it replaces).  A warm rerun must skip
every pass node — verified via the ``dataflow.cache.hits`` metric and
golden equality against the cold result — and come in **≥ 5× faster**.

The flip side of the contract: with the cache *disabled* the dataflow
layer must not tax the pipeline, so the median disabled run stays
within **3%** of directly composing the same pass functions.

The pure (unslowed) paradigm is also exercised end-to-end: a warm
rerun of ``mpi_profiler_paradigm`` on cg answers from cache alone,
row-for-row equal to the cold run.

Each test prints one JSON line (run with ``-s`` to capture) so the
numbers can be tracked across commits by the CI perf-smoke job.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from repro.apps import npb
from repro.cache import PassCache
from repro.dataflow.api import PerFlow
from repro.dataflow.graph import PerFlowGraph
from repro.obs import metrics as obs_metrics
from repro.pag.sets import VertexSet
from repro.paradigms.mpi_profiler import _profile_rows, mpi_profiler_paradigm
from repro.passes.filters import comm_filter
from repro.passes.hotspot import hotspot_detection

PASS_LATENCY = 0.04  # seconds of simulated analysis cost per pass
MIN_SPEEDUP = 5.0
MAX_DISABLED_OVERHEAD = 0.03  # fraction over direct pass composition
TOP = 10


def _emit(name: str, **numbers) -> None:
    print(json.dumps({"benchmark": name, **numbers}), file=sys.stderr)


# Module-level passes (globals are referenced by name, so the cache key
# is stable across graph rebuilds); the sleep models a pass whose
# analysis cost dwarfs the cache machinery.
def slow_comm_filter(V: VertexSet) -> VertexSet:
    time.sleep(PASS_LATENCY)
    return comm_filter(V)


def slow_hotspot(V: VertexSet) -> VertexSet:
    time.sleep(PASS_LATENCY)
    return hotspot_detection(V, metric="time", n=TOP)


def _cg_pag():
    pflow = PerFlow()
    return pflow.run(bin=npb.build_cg("W", iterations=15), nprocs=32)


def _build_graph(total: float) -> PerFlowGraph:
    g = PerFlowGraph("mpi-profiler-bench")
    V = g.input("V", VertexSet)
    a = g.add_pass(slow_comm_filter, V, name="comm_filter")
    b = g.add_pass(slow_hotspot, a, name="hotspot")

    def slow_profile_rows(s):
        time.sleep(PASS_LATENCY)
        return _profile_rows(s, total)

    g.add_pass(slow_profile_rows, b, name="profile_rows")
    return g


def _time_run(g: PerFlowGraph, pag, cache) -> float:
    t0 = time.perf_counter()
    out = g.run(cache=cache, V=pag.vs)
    return time.perf_counter() - t0, out


def test_warm_rerun_speedup():
    pag = _cg_pag()
    total = float(pag.vertex(0)["time"] or 0.0)
    cache = PassCache()
    g = _build_graph(total)
    hits0 = obs_metrics.counter("dataflow.cache.hits").value
    cold_s, golden = _time_run(g, pag, cache)
    assert obs_metrics.counter("dataflow.cache.hits").value == hits0
    warm_s, warm = _time_run(_build_graph(total), pag, cache)
    hits = obs_metrics.counter("dataflow.cache.hits").value - hits0
    speedup = cold_s / warm_s
    _emit(
        "cache_warm_speedup",
        pass_latency_s=PASS_LATENCY,
        cold_s=round(cold_s, 4),
        warm_s=round(warm_s, 4),
        speedup=round(speedup, 1),
        hits=hits,
    )
    assert hits == 3, "warm rerun must skip every pass node"
    assert warm["profile_rows"] == golden["profile_rows"]  # golden equality
    assert list(warm["hotspot"].ids()) == list(golden["hotspot"].ids())
    assert speedup >= MIN_SPEEDUP, (
        f"warm rerun speedup {speedup:.1f}x below the {MIN_SPEEDUP}x floor "
        f"(cold {cold_s * 1e3:.0f} ms, warm {warm_s * 1e3:.0f} ms)"
    )


def test_disabled_cache_overhead():
    pag = _cg_pag()
    total = float(pag.vertex(0)["time"] or 0.0)
    g = _build_graph(total)

    def direct() -> float:
        t0 = time.perf_counter()
        _profile_rows(slow_hotspot(slow_comm_filter(pag.vs)), total)
        time.sleep(PASS_LATENCY)  # profile_rows' share of the modelled cost
        return time.perf_counter() - t0

    def through_graph() -> float:
        t0 = time.perf_counter()
        g.run(cache=False, V=pag.vs)
        return time.perf_counter() - t0

    baseline = statistics.median(direct() for _ in range(5))
    disabled = statistics.median(through_graph() for _ in range(5))
    overhead = disabled / baseline - 1.0
    _emit(
        "cache_disabled_overhead",
        baseline_s=round(baseline, 4),
        disabled_s=round(disabled, 4),
        overhead_pct=round(overhead * 100, 2),
    )
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"cache-disabled pipeline {overhead * 100:.1f}% over direct "
        f"composition (floor {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )


def test_mpi_profiler_paradigm_warm_skip_end_to_end():
    pflow = PerFlow(cache=PassCache())
    pag = _cg_pag()
    # deltas, not absolutes: the metrics registry is process-global and
    # benchmarks (unlike the unit suite) do not reset it between tests
    hits0 = obs_metrics.counter("dataflow.cache.hits").value
    misses0 = obs_metrics.counter("dataflow.cache.misses").value
    golden = mpi_profiler_paradigm(pflow, pag, top=TOP)
    warm = mpi_profiler_paradigm(pflow, pag, top=TOP)
    assert obs_metrics.counter("dataflow.cache.hits").value - hits0 == 3
    assert obs_metrics.counter("dataflow.cache.misses").value - misses0 == 3
    assert warm == golden
