"""Causal analysis pass (paper Listing 5).

Performance bugs propagate through inter-process communication and
inter-thread locks, producing *secondary* bugs; the vertices where
propagation chains meet — lowest common ancestors on the parallel
view — are the causes.  For each unscanned pair of input vertices the
pass runs LCA and collects the detected ancestors plus the edge paths
(the propagation chains); the returned vertex set's ``causes`` column
names, per ancestor, the descendants it explains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dataflow.signatures import signature
from repro.algorithms.lca import _Ancestry, _ancestry, _lca_ids
from repro.algorithms.traversal import EdgePredicate
from repro.pag.edge import Edge, EdgeLabel
from repro.pag.sets import EdgeSet, VertexSet
from repro.pag.vertex import Vertex


def _localize(pag, v: Vertex, max_hops: int = 25) -> Vertex:
    """Walk back from a comm-relay LCA to the time-generating vertex.

    An LCA that lands on an MPI call is a *relay*: it transported the
    delay but did not create it.  Follow incoming inter-process edges
    (largest wait first — toward the delaying rank) or flow edges until
    a non-communication vertex with actual time is reached; that vertex
    generated the delay.  Non-MPI LCAs (loops, allocator calls) are
    already generators and are returned unchanged.
    """
    hops = 0
    while hops < max_hops:
        is_relay = v.is_comm() or (v["time"] or 0.0) == 0.0
        if not is_relay:
            return v
        in_edges = list(pag.in_edges(v.id))
        if not in_edges:
            return v
        comm = [e for e in in_edges if e.label is EdgeLabel.INTER_PROCESS]
        if v.is_comm() and comm:
            e = max(comm, key=lambda e: (float(e["wait_time"] or 0.0), -e.id))
        else:
            flow = [e for e in in_edges if e.label is not EdgeLabel.INTER_PROCESS]
            e = flow[0] if flow else in_edges[0]
        v = e.src
        hops += 1
    return v


@signature(inputs=(VertexSet,), outputs=(VertexSet, EdgeSet))
def causal_analysis(
    V: VertexSet,
    edge_ok: Optional[EdgePredicate] = None,
    restrict_to_input: bool = False,
    localize: bool = True,
    max_pairs: int = 2000,
) -> Tuple[VertexSet, EdgeSet]:
    """Common-ancestor causes for a set of buggy vertices.

    Parameters
    ----------
    V:
        Parallel-view vertices with performance bugs (the descendants).
    edge_ok:
        Optional edge filter for the upward search (e.g. only edges with
        positive wait time).
    localize:
        When the LCA lands on an MPI relay vertex, continue to the
        time-generating code behind it (see :func:`_localize`) — this is
        how the LAMMPS case study's answer is ``loop_1.1`` rather than
        the MPI_Send that transported its delay.
    restrict_to_input:
        Listing 5's literal behaviour keeps an LCA only when it is itself
        in ``V`` (``if v in V``); the default ``False`` reports every
        detected ancestor, which is what the LAMMPS case study's
        PerFlowGraph needs to surface loop_1.1 (not itself flagged
        imbalanced on every rank).
    max_pairs:
        Pair-enumeration cap; pairs are scanned in set order and — as in
        Listing 5 — each vertex participates in at most one pair (the
        scanned-set ``S``), so the cost is linear in practice.

    Returns ``(V_res, path_edges)``: cause vertices (deduplicated,
    carrying the column ``causes`` — the names of the affected
    descendants) and the union of propagation-path edges.
    """
    pag = V.pag
    if pag is None:
        return VertexSet([]), EdgeSet([])
    items: List[Vertex] = V.to_list()
    scanned = set()
    causes: Dict[int, List[str]] = {}  # ancestor id -> affected descendants
    path_edges: List[int] = []
    pairs = 0
    input_ids = {v.id for v in items}
    searched: Dict[int, _Ancestry] = {}  # one upward search per input, on demand
    for i, v1 in enumerate(items):
        for v2 in items[i + 1 :]:
            if v1.id == v2.id or v1.id in scanned or v2.id in scanned:
                continue
            if pairs >= max_pairs:
                break
            pairs += 1
            for v in (v1, v2):
                if v.id not in searched:
                    searched[v.id] = _ancestry(pag, v.id, edge_ok)
            anc_id, path = _lca_ids(searched[v1.id], searched[v2.id], v1.id, v2.id)
            if anc_id is None:
                continue
            scanned.add(v1.id)
            scanned.add(v2.id)
            del searched[v1.id], searched[v2.id]  # a scanned vertex pairs with nothing again
            if restrict_to_input and anc_id not in input_ids:
                continue
            anc = pag.vertex(anc_id)
            if localize:
                anc = _localize(pag, anc)
            affected = causes.setdefault(anc.id, [])
            for desc in (v1, v2):
                tag = f"{desc.name}@{desc['debug-info']}"
                if tag not in affected:
                    affected.append(tag)
            path_edges.extend(path)
    V_res = VertexSet.from_ids(pag, list(causes))
    return (
        V_res.with_columns(causes=list(causes.values())),
        EdgeSet(Edge._attached(pag, e) for e in path_edges),
    )
