"""The two PAG views (paper §3.4).

*Top-down view*: intra- and inter-procedural edges only — the static
structure tree rooted at the entry function, with performance data
embedded (Fig. 4).  Produced by :func:`build_top_down_view`, which runs
static analysis (completing indirect calls from the run's trace) and
embeds the run's data.

*Parallel view*: one *flow* per process (optionally per thread) — the
pre-order vertex sequence of the top-down view — plus inter-process
edges for every communication and inter-thread edges for every lock
wait (Fig. 5).  |V| of the parallel view is exactly
``|V|top-down × flows`` (Table 2's parallel-view columns are top-down
counts × 128 processes).

Parallel views at thousands of ranks do not fit in object-per-vertex
form, so :func:`parallel_view_stats` computes |V|/|E| in O(events)
without materializing — validated against the materialized builder in
the test suite.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ir.model import Program
from repro.ir.static_analysis import StaticAnalysisResult, analyze
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.pag.columns import NO_STRING, IntColumn, ObjColumn, StrColumn
from repro.pag.edge import COMMKIND_CODE, ELABEL_CODE, NO_KIND, CommKind, EdgeLabel
from repro.pag.embedding import embed_samples
from repro.pag.graph import PAG
from repro.runtime.records import RunResult

_LOG = get_logger("pag.views")

_COLLECTIVE, _P2P_SYNC, _P2P_ASYNC = (
    COMMKIND_CODE[kind] for kind in (CommKind.COLLECTIVE, CommKind.P2P_SYNC, CommKind.P2P_ASYNC)
)


def build_top_down_view(
    program: Program,
    run: Optional[RunResult] = None,
) -> Tuple[PAG, StaticAnalysisResult]:
    """Static structure extraction + performance-data embedding.

    With ``run`` given, indirect call sites are expanded with the traced
    targets and the run's data is embedded; without it, the result is the
    purely static structure (unresolved indirect calls marked).
    """
    with _span("pag.top_down", category="pag", program=program.name) as sp:
        static_result = analyze(program, run.indirect_targets if run else None)
        if run is not None:
            with _span("pag.embed", category="pag"):
                embed_samples(static_result, run)
        if sp:
            sp.set(
                vertices=static_result.pag.num_vertices,
                edges=static_result.pag.num_edges,
            )
    return static_result.pag, static_result


def build_parallel_view(
    top_down: PAG,
    static_result: StaticAnalysisResult,
    run: RunResult,
    max_ranks: Optional[int] = None,
    expand_threads: bool = False,
) -> PAG:
    """Materialize the parallel view (Fig. 5).

    Parameters
    ----------
    max_ranks:
        Build flows only for ranks ``< max_ranks`` (events whose endpoints
        fall outside are dropped).  The paper plots partial parallel views
        for the same reason.
    expand_threads:
        Replicate one flow per (rank, thread) instead of per rank, with
        per-thread times — needed for the inter-thread analyses (Vite).

    Per-flow vertex properties: ``process``, ``thread``, exclusive
    ``time`` / ``wait`` / ``count`` of that unit at that context.
    """
    nprocs = run.nprocs if max_ranks is None else min(run.nprocs, max_ranks)
    # Spawned threads are numbered from 1 (0 is the rank's main thread),
    # so thread expansion needs nthreads + 1 flows per rank.
    nthreads = run.nthreads + 1 if expand_threads else 1
    ntd = top_down.num_vertices
    pv = PAG(
        top_down.name.replace("/top-down", "") + "/parallel",
        {
            "view": "parallel",
            "program": top_down.metadata.get("program"),
            "nprocs": nprocs,
            "nthreads": nthreads,
        },
    )

    # Share the top-down view's string table: every flow repeats the same
    # names/debug-info, so the parallel view's name column is a direct
    # copy of interned ids with no re-hashing.  The table is append-only,
    # so sharing is safe for both graphs.
    pv.strings = top_down.strings
    pv._vprops.strings = pv.strings
    pv._eprops.strings = pv.strings

    # Tree-edge labels for flow construction: child id -> (parent id, label
    # code), read straight from the structural arrays.
    tree_parent: Dict[int, Tuple[int, int]] = {}
    td_esrc, td_edst, td_elab = top_down._e_src, top_down._e_dst, top_down._e_label
    for i in range(len(td_esrc)):
        tree_parent[td_edst[i]] = (td_esrc[i], td_elab[i])

    def flow_vid(td_vid: int, rank: int, thread: int) -> int:
        return (rank * nthreads + thread) * ntd + td_vid

    # 1) replicate flows (vertex ids are assigned in pre-order by the
    #    static expander, so ascending id order *is* the pre-order flow).
    #    The whole step is block-wise: the top-down structural arrays are
    #    tiled once per flow, and the per-flow edge pattern — consecutive
    #    pre-order vertices, keeping the tree edge's label when descending
    #    into a child, else intra-procedural — is computed once and offset
    #    per flow.
    with _span("pv.flows", category="pag", flows=nprocs * nthreads) as fsp:
        flows = nprocs * nthreads
        intra_code = ELABEL_CODE[EdgeLabel.INTRA_PROCEDURAL]
        flow_src = array("q")
        flow_dst = array("q")
        flow_lab = array("b")
        for td_vid in range(1, ntd):
            parent = tree_parent.get(td_vid)
            flow_src.append(td_vid - 1)
            flow_dst.append(td_vid)
            flow_lab.append(
                parent[1] if parent is not None and parent[0] == td_vid - 1 else intra_code
            )
        flow_kind = array("b", [NO_KIND]) * (ntd - 1)
        src_np = np.frombuffer(flow_src, dtype=np.int64) if ntd > 1 else None
        dst_np = np.frombuffer(flow_dst, dtype=np.int64) if ntd > 1 else None

        # vertex property columns filled block-wise: process/thread are dense
        # int columns, debug-info is the tiled top-down column.
        proc_col = IntColumn()
        thread_col = IntColumn()
        td_dbg = top_down.vs.values("debug-info")
        dbg_is_str = all(x is None or isinstance(x, str) for x in td_dbg)
        if dbg_is_str:
            dbg_template = array(
                "q",
                (pv.strings.intern(x) if x is not None else NO_STRING for x in td_dbg),
            )
            dbg_col: object = StrColumn(pv.strings)
        else:
            dbg_col = ObjColumn()

        for rank in range(nprocs):
            for thread in range(nthreads):
                offset = (rank * nthreads + thread) * ntd
                pv._v_label.extend(top_down._v_label)
                pv._v_kind.extend(top_down._v_kind)
                pv._v_name.extend(top_down._v_name)
                proc_col.data.extend(array("q", [rank]) * ntd)
                thread_col.data.extend(array("q", [thread]) * ntd)
                if dbg_is_str:
                    dbg_col.sids.extend(dbg_template)
                else:
                    for td_vid, val in enumerate(td_dbg):
                        if val is not None:
                            dbg_col.cells[offset + td_vid] = val
                if ntd > 1:
                    pv._e_src.frombytes((src_np + offset).tobytes())
                    pv._e_dst.frombytes((dst_np + offset).tobytes())
                    pv._e_label.extend(flow_lab)
                    pv._e_kind.extend(flow_kind)

        proc_col.valid = bytearray(b"\x01" * (ntd * flows))
        thread_col.valid = bytearray(b"\x01" * (ntd * flows))
        pv._vprops.columns["process"] = proc_col
        pv._vprops.columns["thread"] = thread_col
        pv._vprops.columns["debug-info"] = dbg_col
        pv._vprops.add_rows(ntd * flows)
        pv._eprops.add_rows((ntd - 1) * flows if ntd > 1 else 0)
        assert pv.num_vertices == ntd * flows
        if fsp:
            fsp.set(vertices=pv.num_vertices, flow_edges=pv.num_edges)

    # 2) per-unit performance data, summed per flow vertex in the run's
    #    stat order, then written one column at a time.
    with _span("pv.perf_data", category="pag") as psp:
        sums: Dict[int, List] = {}  # flow vertex -> [time, wait, count]
        embedded = 0
        for path, per_unit in run.vertex_stats.items():
            v = static_result.vertex_for_path(path)
            if v is None:
                continue
            for (rank, thread), stat in per_unit.items():
                if rank >= nprocs:
                    continue
                tslot = thread if expand_threads and thread < nthreads else 0
                acc = sums.setdefault(flow_vid(v.id, rank, tslot), [0.0, 0.0, 0])
                acc[0] += stat.time
                acc[1] += stat.wait
                acc[2] += stat.count
                embedded += 1
        rows = np.fromiter(sums, dtype=np.int64, count=len(sums))
        for i, key in enumerate(("time", "wait", "count")):
            pv._vprops.set_numeric_bulk(
                key, rows, [acc[i] for acc in sums.values()], integer=key == "count"
            )
        if psp:
            psp.set(stats_embedded=embedded)

    # 3) inter-process edges from communication events and 4) inter-thread
    #    edges from lock waits (holder -> waiter), appended in one block.
    def event_vid(path, rank: int) -> Optional[int]:
        if path is None or rank < 0 or rank >= nprocs:
            return None
        v = static_result.vertex_for_path(path)
        if v is None:
            return None
        return flow_vid(v.id, rank, 0)

    #: (src, dst, label code, kind code, properties) per new edge
    edges: List[Tuple[int, int, int, int, Dict[str, Any]]] = []
    inter_process = ELABEL_CODE[EdgeLabel.INTER_PROCESS]
    with _span("pv.comm_edges", category="pag", events=len(run.comm_events)) as csp:
        for ev in run.comm_events:
            if ev.participants is not None:
                # Collective: star from the last-arriving rank to every other
                # participant (the causal direction backtracking follows).
                src = event_vid(ev.src_path, ev.src_rank)
                if src is None:
                    continue
                for rank, path, _arrival, wait in ev.participants:
                    if rank == ev.src_rank:
                        continue
                    dst = event_vid(path, rank)
                    if dst is None:
                        continue
                    edges.append((src, dst, inter_process, _COLLECTIVE, {
                        "comm_time": ev.t_complete, "wait_time": wait, "comm_bytes": ev.nbytes,
                    }))
            else:
                src = event_vid(ev.src_path, ev.src_rank)
                dst = event_vid(ev.dst_path, ev.dst_rank)
                if src is None or dst is None:
                    continue
                kind = _P2P_SYNC if ev.op.value == "MPI_Recv" else _P2P_ASYNC
                edges.append((src, dst, inter_process, kind, {
                    "comm_bytes": ev.nbytes, "wait_time": ev.wait_time, "comm_time": ev.t_complete,
                }))
        if csp:
            csp.set(edges_added=len(edges))

    with _span("pv.lock_edges", category="pag", events=len(run.lock_events)) as lsp:
        before = len(edges)
        inter_thread = ELABEL_CODE[EdgeLabel.INTER_THREAD]
        for lk in run.lock_events:
            if lk.rank >= nprocs:
                continue
            hv = static_result.vertex_for_path(lk.holder_path)
            wv = static_result.vertex_for_path(lk.waiter_path)
            if hv is None or wv is None:
                continue
            ht = lk.holder_thread if expand_threads and lk.holder_thread < nthreads else 0
            wt = lk.waiter_thread if expand_threads and lk.waiter_thread < nthreads else 0
            edges.append((
                flow_vid(hv.id, lk.rank, ht), flow_vid(wv.id, lk.rank, wt), inter_thread,
                NO_KIND, {"wait_time": lk.wait_time, "lock": lk.lock},
            ))
        if lsp:
            lsp.set(edges_added=len(edges) - before)

    base = pv.num_edges
    pv._e_src.extend(array("q", [e[0] for e in edges]))
    pv._e_dst.extend(array("q", [e[1] for e in edges]))
    pv._e_label.extend(array("b", [e[2] for e in edges]))
    pv._e_kind.extend(array("b", [e[3] for e in edges]))
    pv._eprops.add_rows(len(edges))
    eset = pv._eprops.set
    for eid, edge in enumerate(edges, base):
        for key, value in edge[4].items():
            eset(eid, key, value)

    _LOG.info(
        "built parallel view %s: |V|=%d |E|=%d (%d flows)",
        pv.name,
        pv.num_vertices,
        pv.num_edges,
        nprocs * nthreads,
    )
    return pv


def slice_parallel_view(
    pv: PAG,
    ranks: Optional[Tuple[int, ...]] = None,
    names: Optional[Tuple[str, ...]] = None,
    around: Optional[Tuple[int, ...]] = None,
    hops: int = 2,
) -> PAG:
    """Extract a partial parallel view for presentation (Figs. 10/12/16).

    The paper's figures show *partial* parallel views — "we hide
    irrelevant inter-process and inter-thread edges for better
    representation".  This helper slices a full view down to:

    * flows of ``ranks`` (all ranks if omitted), intersected with
    * vertices whose name is in ``names`` (all names if omitted), union
    * the ``hops``-neighborhood of the ``around`` vertex ids (BFS over
      all edge types).

    Returns the induced subgraph (new ids; originals in each vertex's
    ``orig_id`` property).
    """
    from repro.algorithms.traversal import bfs

    keep = set()
    for v in pv.vertices():
        if ranks is not None and v["process"] not in ranks:
            continue
        if names is not None and v.name not in names:
            continue
        keep.add(v.id)
    if around:
        seeds = [pv.vertex(vid) for vid in around]
        for u in bfs(pv, seeds, direction="both", max_depth=hops):
            keep.add(u.id)
    sub, remap = pv.subgraph(keep)
    for old, new in remap.items():
        sub.vertex(new)["orig_id"] = old
    sub.metadata.update(pv.metadata)
    sub.metadata["sliced"] = True
    return sub


def parallel_view_stats(
    top_down: PAG,
    run: RunResult,
    max_ranks: Optional[int] = None,
    expand_threads: bool = False,
) -> Tuple[int, int]:
    """Exact (|V|, |E|) of the parallel view without materializing it.

    Matches :func:`build_parallel_view` element-for-element (asserted by
    the test suite); used for Table 2 at scales where an object-per-vertex
    graph would not fit in memory.
    """
    nprocs = run.nprocs if max_ranks is None else min(run.nprocs, max_ranks)
    nthreads = run.nthreads + 1 if expand_threads else 1
    flows = nprocs * nthreads
    ntd = top_down.num_vertices
    nv = ntd * flows
    ne = (ntd - 1) * flows
    for ev in run.comm_events:
        if ev.participants is not None:
            if 0 <= ev.src_rank < nprocs:
                ne += sum(
                    1
                    for rank, _p, _a, _w in ev.participants
                    if rank != ev.src_rank and rank < nprocs
                )
        else:
            if 0 <= ev.src_rank < nprocs and 0 <= ev.dst_rank < nprocs:
                ne += 1
    ne += sum(1 for lk in run.lock_events if lk.rank < nprocs)
    return nv, ne
