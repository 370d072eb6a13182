"""PAG invariant checks.

The two views promise structural invariants that the analysis layer
relies on (and that the paper's Table 2 exhibits):

* **top-down view** — a tree rooted at vertex 0 (|E| = |V| − 1, every
  non-root vertex has exactly one parent), only intra-/inter-procedural
  edges, labels consistent with call kinds, debug info present;
* **parallel view** — a DAG; per-flow vertex counts equal the top-down
  count; every vertex carries its ``process`` (and ``thread``); cross
  edges are inter-process/inter-thread only and never point backwards
  within a flow.

`validate_*` functions raise :class:`ValidationError` describing every
violation found (not just the first), so test failures are actionable.

All scans run as vectorized passes over the PAG's structural and
property columns; element handles are only minted to render the problem
message for an actual violation.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.algorithms.traversal import topological_order
from repro.pag.columns import IntColumn, StrColumn, _np_view
from repro.pag.edge import ELABEL_CODE, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import NO_KIND, VLABEL_CODE, VLABELS, VertexLabel


class ValidationError(AssertionError):
    """One or more PAG invariants are violated."""

    def __init__(self, problems: List[str]):
        self.problems = problems
        super().__init__("; ".join(problems[:10]) + (f" (+{len(problems)-10} more)" if len(problems) > 10 else ""))


def _check(problems: List[str], cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)


_IP_CODE = ELABEL_CODE[EdgeLabel.INTER_PROCESS]
_IT_CODE = ELABEL_CODE[EdgeLabel.INTER_THREAD]
_FLOW_CODES = (
    ELABEL_CODE[EdgeLabel.INTRA_PROCEDURAL],
    ELABEL_CODE[EdgeLabel.INTER_PROCEDURAL],
)


def _int_prop_arrays(pag: PAG, key: str):
    """(values, valid) for an integer vertex property, or ``None`` when
    the column is absent or not an int column (callers then fall back to
    per-element reads)."""
    col = pag._vprops.column(key)
    if isinstance(col, IntColumn):
        return col.arrays(pag.num_vertices)
    return None


def edge_label_problems(pag: PAG) -> List[str]:
    """Edge-label consistency violations, as problem strings.

    Cross edges must actually cross: an inter-process edge has to
    connect vertices with *differing* ``process`` attributes (except
    legal rank-to-self messages, where src and dst vertex still differ),
    and an inter-thread edge vertices of the same process but differing
    ``thread`` attributes.  Views that carry no ``process``/``thread``
    attributes (the top-down view) vacuously satisfy the check for any
    edge they also do not carry — so the helper applies to top-down and
    parallel views alike.
    """
    problems: List[str] = []
    ne = pag.num_edges
    if ne == 0:
        return problems
    e_label = _np_view(pag._e_label, np.int8)
    e_src = _np_view(pag._e_src, np.int64)
    e_dst = _np_view(pag._e_dst, np.int64)

    # inter-process edges: only self-loop edges can violate, and only
    # when the vertex actually carries a process id
    for eid in np.nonzero((e_label == _IP_CODE) & (e_src == e_dst))[0]:
        e = pag.edge(int(eid))
        if e.src["process"] is not None:
            problems.append(
                f"inter-process edge {e.id} connects vertex {e.src_id} to itself"
            )

    it_ids = np.nonzero(e_label == _IT_CODE)[0]
    if len(it_ids):
        thread = _int_prop_arrays(pag, "thread")
        if thread is not None:
            tvals, tvalid = thread
            ts, td = e_src[it_ids], e_dst[it_ids]
            bad = tvalid[ts] & tvalid[td] & (tvals[ts] == tvals[td])
            it_ids = it_ids[bad]
            for eid in it_ids:
                e = pag.edge(int(eid))
                problems.append(
                    f"inter-thread edge {e.id} connects same-thread vertices "
                    f"({e.src_id} -> {e.dst_id}, thread {e.src['thread']})"
                )
        else:
            for eid in it_ids:
                e = pag.edge(int(eid))
                src_t, dst_t = e.src["thread"], e.dst["thread"]
                if src_t is not None and src_t == dst_t:
                    problems.append(
                        f"inter-thread edge {e.id} connects same-thread vertices "
                        f"({e.src_id} -> {e.dst_id}, thread {src_t})"
                    )
    return problems


def validate_top_down(pag: PAG) -> None:
    """Assert the top-down-view invariants."""
    problems: List[str] = []
    nv = pag.num_vertices
    ne = pag.num_edges
    _check(problems, nv > 0, "empty PAG")
    _check(
        problems,
        ne == nv - 1,
        f"not a tree: |E|={ne}, |V|={nv}",
    )
    if nv == 0:
        raise ValidationError(problems)

    e_src = _np_view(pag._e_src, np.int64)
    e_dst = _np_view(pag._e_dst, np.int64)
    e_label = _np_view(pag._e_label, np.int8)
    v_label = _np_view(pag._v_label, np.int8)
    v_kind = _np_view(pag._v_kind, np.int8)

    indeg = np.bincount(e_dst, minlength=nv) if ne else np.zeros(nv, dtype=np.int64)
    if indeg[0] != 0:
        problems.append(f"root vertex 0 has {int(indeg[0])} parents")
    root_label = VLABELS[v_label[0]]
    _check(
        problems,
        root_label is VertexLabel.FUNCTION,
        f"root is {root_label.value}, expected function",
    )
    for vid in np.nonzero(indeg[1:] != 1)[0] + 1:
        v = pag.vertex(int(vid))
        problems.append(f"vertex {v.id} ({v.name}) has {int(indeg[vid])} parents")

    kind_bad = (v_kind == NO_KIND) != (v_label != VLABEL_CODE[VertexLabel.CALL])
    for vid in np.nonzero(kind_bad)[0]:
        v = pag.vertex(int(vid))
        problems.append(
            f"vertex {v.id} ({v.name}): call_kind inconsistent with label {v.label.value}"
        )

    # debug info present (and non-empty) on every vertex
    dbg = pag._vprops.column("debug-info")
    if isinstance(dbg, StrColumn):
        sids = dbg.sid_array(nv)
        nonempty = np.fromiter(
            (bool(s) for s in pag.strings), dtype=bool, count=len(pag.strings)
        )
        ok = (sids >= 0) & (
            nonempty[np.clip(sids, 0, None)] if len(nonempty) else False
        )
        missing = np.nonzero(~ok)[0]
    else:
        missing = np.array(
            [vid for vid in range(nv) if not pag.vertex(vid)["debug-info"]],
            dtype=np.int64,
        )
    for vid in missing:
        v = pag.vertex(int(vid))
        problems.append(f"vertex {v.id} ({v.name}) missing debug info")

    if ne:
        bad_label = ~np.isin(e_label, np.array(_FLOW_CODES, dtype=np.int8))
        for eid in np.nonzero(bad_label)[0]:
            e = pag.edge(int(eid))
            problems.append(
                f"edge {e.id} has label {e.label.value} (top-down views carry only procedural edges)"
            )
        for eid in np.nonzero(e_src >= e_dst)[0]:
            problems.append(
                f"edge {int(eid)} points backwards in pre-order "
                f"({int(e_src[eid])} -> {int(e_dst[eid])})"
            )
    if problems:
        raise ValidationError(problems)


def validate_parallel(pag: PAG, top_down_vertices: int) -> None:
    """Assert the parallel-view invariants."""
    problems: List[str] = []
    nprocs = pag.metadata.get("nprocs")
    nthreads = pag.metadata.get("nthreads", 1)
    _check(problems, nprocs is not None, "parallel view missing nprocs metadata")
    if nprocs is not None:
        expected = top_down_vertices * nprocs * nthreads
        _check(
            problems,
            pag.num_vertices == expected,
            f"|V|={pag.num_vertices}, expected {expected} (td {top_down_vertices} x {nprocs} x {nthreads})",
        )

    nv = pag.num_vertices
    ne = pag.num_edges
    process = _int_prop_arrays(pag, "process")
    if process is not None:
        pvals, pvalid = process
        for vid in np.nonzero(~pvalid)[0]:
            problems.append(f"vertex {int(vid)} missing process id")
    else:
        for vid in range(nv):
            if pag.vertex(vid)["process"] is None:
                problems.append(f"vertex {vid} missing process id")

    if ne:
        e_src = _np_view(pag._e_src, np.int64)
        e_dst = _np_view(pag._e_dst, np.int64)
        e_label = _np_view(pag._e_label, np.int8)
        flow_mask = np.isin(e_label, np.array(_FLOW_CODES, dtype=np.int8))
        flow_ids = np.nonzero(flow_mask)[0]
        thread = _int_prop_arrays(pag, "thread")
        if len(flow_ids) and process is not None and thread is not None:
            # missing attributes read as sentinel -1, so None == None
            # compares equal exactly like the per-element check
            pvals_s = np.where(pvalid, pvals, -1)
            tvals, tvalid = thread
            tvals_s = np.where(tvalid, tvals, -1)
            fs, fd = e_src[flow_ids], e_dst[flow_ids]
            ok = (
                (pvals_s[fs] == pvals_s[fd])
                & (tvals_s[fs] == tvals_s[fd])
                & (fs < fd)
            )
            for eid in flow_ids[~ok]:
                problems.append(
                    f"flow edge {int(eid)} malformed ({int(e_src[eid])}->{int(e_dst[eid])})"
                )
        else:
            for eid in flow_ids:
                e = pag.edge(int(eid))
                same_flow = (
                    e.src["process"] == e.dst["process"]
                    and e.src["thread"] == e.dst["thread"]
                )
                _check(
                    problems,
                    same_flow and e.src_id < e.dst_id,
                    f"flow edge {e.id} malformed ({e.src_id}->{e.dst_id})",
                )
        # self-messages (rank sending to itself) are legal MPI, so only
        # degenerate self-loop edges are rejected
        ip_loop = (e_label == _IP_CODE) & (e_src == e_dst)
        for eid in np.nonzero(ip_loop)[0]:
            problems.append(
                f"inter-process edge {int(eid)} is a self-loop on vertex {int(e_src[eid])}"
            )
        it_ids = np.nonzero(e_label == _IT_CODE)[0]
        if len(it_ids):
            if process is not None:
                pvals_s = np.where(pvalid, pvals, -1)
                crosses = pvals_s[e_src[it_ids]] != pvals_s[e_dst[it_ids]]
                for eid in it_ids[crosses]:
                    problems.append(f"inter-thread edge {int(eid)} crosses processes")
            else:
                for eid in it_ids:
                    e = pag.edge(int(eid))
                    _check(
                        problems,
                        e.src["process"] == e.dst["process"],
                        f"inter-thread edge {e.id} crosses processes",
                    )
    problems.extend(edge_label_problems(pag))
    # Flow edges alone must be acyclic (they follow pre-order within each
    # flow).  The FULL graph may legitimately contain lateral cycles:
    # repeated interactions between the same two instances (e.g. a lock
    # bouncing between two threads across iterations) aggregate onto the
    # same vertex pair in both directions.
    flow_labels = (EdgeLabel.INTRA_PROCEDURAL, EdgeLabel.INTER_PROCEDURAL)
    try:
        topological_order(pag, edge_ok=lambda e: e.label in flow_labels)
    except ValueError:
        problems.append("flow edges contain a cycle")
    if problems:
        raise ValidationError(problems)
