"""PAG-core performance: columnar storage vs per-element dict baseline.

The columnar refactor's acceptance numbers, measured on the largest
modelled application (LAMMPS, 85k top-down vertices) with its parallel
view built at a scaled-down rank count (16 flows ≈ 1.36M instance
vertices):

* parallel-view construction and the hotspot→imbalance pipeline must
  finish inside generous wall-time budgets (they run in well under a
  second; budgets are ~10× to absorb CI noise),
* per-vertex memory must beat a per-element ``dict`` representation of
  the same data by ≥3×,
* bulk column reads/sorts must beat the equivalent per-element handle
  loops by ≥2×.

The traversal kernels have their own guard on the ZeusMP parallel view
at 16 ranks (191,696 vertices in 16 chains ~12k deep — the shape of the
``zeusmp_critical_path`` benchmark workload): building the CSR
adjacency index and extracting the critical path must stay inside
budgets ~10× / ~3× their measured times.  The JSON line also carries
the critical path's time on the 128-rank view (1.53M vertices).

Each test prints one JSON line (run with ``-s`` to capture) so the
numbers can be tracked across commits by the CI perf-smoke job.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from repro.algorithms import critical_path, topological_order
from repro.apps import lammps, registry
from repro.dataflow.api import PerFlow
from repro.passes.hotspot import hotspot_detection
from repro.passes.imbalance import imbalance_analysis
from repro.pag.views import build_parallel_view, build_top_down_view
from repro.runtime.executor import run_program

#: Wall-time budgets (seconds): ~10x the measured times on a laptop-class
#: core, so a slow CI runner does not flake while a 10x regression fails.
BUDGET_PARALLEL_VIEW = 10.0
BUDGET_TD_PIPELINE = 1.0
BUDGET_PV_HOTSPOT = 2.0

#: Traversal kernels on the ZeusMP-16 parallel view (measured: index
#: build 6 ms, topological order 50 ms, critical path 22 ms over its 96
#: contracted chains; the per-handle loops they replaced took 120 ms /
#: 0.8 s / 2.0 s, and the per-vertex integer sweep 0.18 s).
BUDGET_ADJ_BUILD = 0.1
BUDGET_CRITICAL_PATH = 0.075

SCALED_RANKS = 16  #: flows materialized in the parallel view


def _emit(name: str, **numbers) -> None:
    print(json.dumps({"benchmark": name, **numbers}), file=sys.stderr)


@pytest.fixture(scope="module")
def lammps_pag():
    prog = registry("C")["lammps"]()
    run = run_program(prog, nprocs=64, machine=lammps.MACHINE)
    td, static_result = build_top_down_view(prog, run)
    return prog, run, td, static_result


def test_parallel_view_construction_budget(lammps_pag):
    _prog, run, td, static_result = lammps_pag
    t0 = time.perf_counter()
    pv = build_parallel_view(td, static_result, run, max_ranks=SCALED_RANKS)
    elapsed = time.perf_counter() - t0
    assert pv.num_vertices == td.num_vertices * SCALED_RANKS
    _emit(
        "parallel_view_construction",
        vertices=pv.num_vertices,
        edges=pv.num_edges,
        seconds=round(elapsed, 4),
        budget=BUDGET_PARALLEL_VIEW,
    )
    assert elapsed < BUDGET_PARALLEL_VIEW


def test_hotspot_imbalance_pipeline_budget(lammps_pag):
    _prog, run, td, static_result = lammps_pag
    t0 = time.perf_counter()
    hot = hotspot_detection(td.V, n=20)
    imb = imbalance_analysis(hot)
    td_elapsed = time.perf_counter() - t0
    assert len(hot) == 20 and len(imb) >= 1

    pv = build_parallel_view(td, static_result, run, max_ranks=SCALED_RANKS)
    t1 = time.perf_counter()
    hot_pv = hotspot_detection(pv.V, n=50)
    pv_elapsed = time.perf_counter() - t1
    assert len(hot_pv) == 50
    _emit(
        "hotspot_imbalance_pipeline",
        td_seconds=round(td_elapsed, 4),
        pv_vertices=pv.num_vertices,
        pv_hotspot_seconds=round(pv_elapsed, 4),
    )
    assert td_elapsed < BUDGET_TD_PIPELINE
    assert pv_elapsed < BUDGET_PV_HOTSPOT


def test_memory_vs_dict_baseline(lammps_pag):
    """Columnar per-vertex footprint beats per-element dicts >= 3x."""
    _prog, run, td, static_result = lammps_pag
    pv = build_parallel_view(td, static_result, run, max_ranks=SCALED_RANKS)
    stats = pv.memory_stats()
    total_bytes = (
        sum(stats["structural"].values())
        + stats["strings"]
        + sum(stats["vertex_columns"].values())
        + sum(stats["edge_columns"].values())
    )
    # vertex-side storage only — the baseline below also counts only
    # vertices, so edge arrays/columns are excluded from both sides
    columnar_bytes = (
        stats["structural"]["v_label"]
        + stats["structural"]["v_kind"]
        + stats["structural"]["v_name"]
        + stats["strings"]
        + sum(stats["vertex_columns"].values())
    )
    per_vertex_columnar = columnar_bytes / pv.num_vertices

    # Baseline: the pre-columnar layout — one slotted element object per
    # vertex (id/label/name/call_kind/properties/_pag), a per-element
    # properties dict, and the graph's list pointer to the object —
    # measured on a real sample.  Interned key strings and shared name
    # strings are generously NOT charged.
    class DictVertex:  # mirrors the old Vertex's storage exactly
        __slots__ = ("id", "label", "name", "call_kind", "properties", "_pag")

        def __init__(self, vid, label, name, call_kind, properties):
            self.id = vid
            self.label = label
            self.name = name
            self.call_kind = call_kind
            self.properties = properties
            self._pag = None

    sample = pv.vs[:50_000]
    objs = [
        DictVertex(v.id, v.label, v.name, v.call_kind, dict(v.properties))
        for v in sample
    ]
    baseline = 0
    for o in objs:
        baseline += sys.getsizeof(o) + 8  # the object + the list slot
        baseline += sys.getsizeof(o.properties)
        for val in o.properties.values():
            if isinstance(val, (int, float)):
                baseline += sys.getsizeof(val)
    per_vertex_baseline = baseline / len(objs)
    ratio = per_vertex_baseline / per_vertex_columnar
    _emit(
        "memory_per_vertex",
        columnar_bytes=round(per_vertex_columnar, 1),
        dict_baseline_bytes=round(per_vertex_baseline, 1),
        ratio=round(ratio, 2),
        whole_graph_bytes=total_bytes,
    )
    assert ratio >= 3.0, (
        f"columnar layout saves only {ratio:.2f}x over per-element dicts "
        f"({per_vertex_columnar:.0f} vs {per_vertex_baseline:.0f} B/vertex)"
    )


def test_bulk_reads_beat_per_element_loops(lammps_pag):
    """values()/sort_by() beat the equivalent per-handle loops >= 2x."""
    _prog, run, td, static_result = lammps_pag
    pv = build_parallel_view(td, static_result, run, max_ranks=SCALED_RANKS)
    V = pv.vs[:300_000]

    def best_of(fn, repeat=3):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    bulk_values = best_of(lambda: V.values("time"))
    loop_values = best_of(lambda: [v["time"] for v in V])
    bulk_sort = best_of(lambda: V.sort_by("time"))
    loop_sort = best_of(
        lambda: sorted(
            V,
            key=lambda v: v["time"] if isinstance(v["time"], (int, float)) else 0.0,
            reverse=True,
        )
    )
    values_speedup = loop_values / bulk_values
    sort_speedup = loop_sort / bulk_sort
    _emit(
        "bulk_vs_per_element",
        n=len(V),
        bulk_values_s=round(bulk_values, 4),
        loop_values_s=round(loop_values, 4),
        values_speedup=round(values_speedup, 1),
        bulk_sort_s=round(bulk_sort, 4),
        loop_sort_s=round(loop_sort, 4),
        sort_speedup=round(sort_speedup, 1),
    )
    assert values_speedup >= 2.0
    assert sort_speedup >= 2.0


def test_adjacency_build_and_critical_path_budget():
    """CSR index build < 100 ms and critical path < 75 ms on ZeusMP-16."""
    pflow = PerFlow()
    pv = pflow.parallel_view(pflow.run(bin=registry()["zeusmp"](), nprocs=16))

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0

    _, build_s = timed(pv._csr)
    order, topo_s = timed(lambda: topological_order(pv))
    (vertices, edges, weight), cp_s = timed(lambda: critical_path(pv))
    assert len(order) == pv.num_vertices
    assert len(edges) == len(vertices) - 1 and weight > 0.0
    # the same kernel on the 128-rank view (1.53M vertices), unbudgeted
    pv128 = pflow.parallel_view(pflow.run(bin=registry()["zeusmp"](), nprocs=128))
    pv128._csr()
    (_, _, weight128), cp128_s = timed(lambda: critical_path(pv128))
    assert weight128 > 0.0
    _emit(
        "adjacency_and_critical_path",
        vertices=pv.num_vertices,
        edges=pv.num_edges,
        index_build_s=round(build_s, 4),
        topological_order_s=round(topo_s, 4),
        critical_path_s=round(cp_s, 4),
        path_vertices=len(vertices),
        vertices_128=pv128.num_vertices,
        critical_path_128_s=round(cp128_s, 4),
        budget_build=BUDGET_ADJ_BUILD,
        budget_critical_path=BUDGET_CRITICAL_PATH,
    )
    assert build_s < BUDGET_ADJ_BUILD
    assert cp_s < BUDGET_CRITICAL_PATH
