"""Performance-data embedding (paper §3.3, Fig. 3).

Each piece of dynamic data carries a calling context; embedding walks
the context from ``main`` down the top-down view and attaches the data
to the vertex it resolves to.  Our runtime identifies contexts with the
same path keys the static analysis assigns, so resolution is a
dictionary lookup with longest-prefix fallback (contexts below a
recursion cut-off resolve to the deepest expanded ancestor — the same
behaviour as the paper's search).

After raw accumulation, inclusive times are aggregated bottom-up over
the tree: a loop's ``time`` is its body's time, a function's is its
whole subtree — which is what hotspot ranking expects.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.ir.static_analysis import Path, StaticAnalysisResult
from repro.pag.columns import _np_view
from repro.pag.graph import PAG
from repro.pag.vertex import CALLKIND_CODE, VLABEL_CODE, CallKind, Vertex, VertexLabel
from repro.runtime.records import RunResult


def resolve_calling_context(
    static_result: StaticAnalysisResult, path: Path
) -> Optional[Vertex]:
    """Resolve a calling context to its top-down-view vertex (Fig. 3)."""
    return static_result.vertex_for_path(path)


def embed_samples(
    static_result: StaticAnalysisResult,
    run: RunResult,
    pmu_rates: Optional[Dict[str, float]] = None,
) -> PAG:
    """Embed a run's performance data into the top-down view.

    Sets on every vertex that received data (and, via bottom-up
    aggregation, on every ancestor):

    * ``time`` — inclusive time summed over ranks/threads,
    * ``excl_time`` — exclusive time,
    * ``wait`` — wait time inside communication / lock calls,
    * ``count`` — executions (iterations for loops, calls for calls),
    * ``time_per_rank`` / ``wait_per_rank`` — inclusive per-rank vectors
      (numpy arrays of length ``nprocs``), the inputs of the imbalance
      and breakdown passes,
    * ``comm-info`` — ``{"bytes": total}`` on communication vertices,
    * synthesized PMU counters (``cycles``, ``instructions``, …).

    Returns the (mutated) top-down PAG for chaining.
    """
    from repro.runtime.sampler import DEFAULT_PMU_RATES

    rates = dict(pmu_rates or DEFAULT_PMU_RATES)
    pag = static_result.pag
    nprocs = run.nprocs
    nv = pag.num_vertices

    contexts = [
        (static_result.vertex_for_path(path), per_unit)
        for path, per_unit in run.vertex_stats.items()
    ]
    resolved = [(v.id, per_unit) for v, per_unit in contexts if v is not None]

    # Rows exist only for vertices that hold data or have a descendant
    # that does (a few dozen of ~10^4-10^5): the resolved ids closed
    # under ``parent``.  Each tree vertex has exactly one parent.
    parent = np.full(nv, -1, dtype=np.int64)
    if pag.num_edges:
        parent[_np_view(pag._e_dst, np.int64)] = _np_view(pag._e_src, np.int64)
    held = {vid for vid, _ in resolved}
    for vid in list(held):
        p = parent.item(vid)
        while p >= 0 and p not in held:
            held.add(p)
            p = parent.item(p)
    vids = np.array(sorted(held), dtype=np.int64)
    row_of = {vid: r for r, vid in enumerate(vids.tolist())}
    k = len(vids)
    excl = np.zeros(k)
    wait = np.zeros(k)
    counts = np.zeros(k, dtype=np.int64)
    nbytes = np.zeros(k)
    excl_per_rank = np.zeros((k, nprocs))
    wait_per_rank = np.zeros((k, nprocs))
    bytes_per_rank = np.zeros((k, nprocs))
    # Stats flattened in run order, then np.add.at: it adds repeated
    # indices one at a time in that order, so every sum is the loop's sum.
    rows_at, ranks_at, stats = [], [], []
    for vid, per_unit in resolved:
        rows_at += [row_of[vid]] * len(per_unit)
        ranks_at += [rank for rank, _thread in per_unit]
        stats += per_unit.values()
    if stats:
        at = (np.array(rows_at, dtype=np.int64), np.array(ranks_at, dtype=np.int64))
        for total, per_rank, values in (
            (excl, excl_per_rank, [s.time for s in stats]),
            (wait, wait_per_rank, [s.wait for s in stats]),
            (nbytes, bytes_per_rank, [s.nbytes for s in stats]),
        ):
            values = np.array(values, dtype=np.float64)
            np.add.at(total, at[0], values)
            np.add.at(per_rank, at, values)
        np.add.at(counts, at[0], np.array([s.count for s in stats], dtype=np.int64))

    # Bottom-up inclusive aggregation.  Vertex ids are assigned in
    # pre-order by the static expander, so iterating ids in reverse visits
    # children before parents.
    incl = excl.copy()
    incl_per_rank = excl_per_rank.copy()
    wait_incl = wait.copy()
    wait_incl_per_rank = wait_per_rank.copy()
    for r in range(k - 1, -1, -1):
        vid = vids.item(r)
        if vid > 0 and parent.item(vid) >= 0:
            p = row_of[parent.item(vid)]
            incl[p] += incl[r]
            incl_per_rank[p] += incl_per_rank[r]
            wait_incl[p] += wait_incl[r]
            wait_incl_per_rank[p] += wait_incl_per_rank[r]

    # Bulk write-out: scalar metrics land in typed columns in one pass,
    # per-rank vectors and comm-info stay per-row in the spill column.
    local = np.nonzero((incl != 0.0) | (counts != 0))[0]
    rows = vids[local]
    vp = pag._vprops
    vp.set_numeric_bulk("time", rows, incl[local])
    vp.set_numeric_bulk("excl_time", rows, excl[local])
    vp.set_numeric_bulk("wait", rows, wait_incl[local])
    vp.set_numeric_bulk("count", rows, counts[local], integer=True)
    vp.set_obj_bulk("time_per_rank", rows, (incl_per_rank[r].copy() for r in local))
    vp.set_obj_bulk(
        "wait_per_rank", rows, (wait_incl_per_rank[r].copy() for r in local)
    )
    if len(rows):
        is_comm = (
            _np_view(pag._v_label, np.int8)[rows] == VLABEL_CODE[VertexLabel.CALL]
        ) & (_np_view(pag._v_kind, np.int8)[rows] == CALLKIND_CODE[CallKind.COMM])
        comm = local[is_comm]
        vp.set_obj_bulk(
            "comm-info", rows[is_comm], ({"bytes": float(nbytes[r])} for r in comm)
        )
        vp.set_obj_bulk(
            "bytes_per_rank", rows[is_comm], (bytes_per_rank[r].copy() for r in comm)
        )
        compute_time = excl - wait
        pmu = local[compute_time[local] > 0]
        for name, rate in rates.items():
            vp.set_numeric_bulk(name, vids[pmu], compute_time[pmu] * rate)

    pag.metadata["nprocs"] = nprocs
    pag.metadata["nthreads"] = run.nthreads
    pag.metadata["elapsed"] = run.elapsed
    pag.metadata["unresolved_contexts"] = len(contexts) - len(resolved)
    return pag
