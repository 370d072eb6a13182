"""Backtracking analysis pass (paper Listing 7's user-defined pass).

From each buggy vertex, walk *backwards* through the parallel view to
where its delay came from: at an MPI vertex follow the incoming
inter-process edge (the communication that delivered the wait), at a
loop/branch follow incoming control flow, elsewhere follow the incoming
flow edge.  The walk stops at collective communications (the paper's
``COLL_COMM`` guard — a collective synchronizes everyone, so blame
cannot be traced *through* it by local edges alone), at flow roots, or
on revisits.

The union of walked vertices/edges is the propagation forest: Fig. 10's
red bold arrows, whose sources are the root causes — marked in the
returned vertex set's ``backtrack_root`` column.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.dataflow.signatures import signature
from repro.pag.edge import Edge, EdgeLabel
from repro.pag.sets import EdgeSet, VertexSet
from repro.pag.vertex import CallKind, Vertex, VertexLabel

#: Collective communication names that terminate a backtracking walk.
COLL_COMM = (
    "MPI_Allreduce",
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Alltoall",
    "MPI_Allgather",
)


def _is_collective(v: Vertex) -> bool:
    name = v.name.strip("_").lower()
    return any(name == c.lower() for c in COLL_COMM)


def _pick_in_edge(pag, v: Vertex) -> Optional[Edge]:
    in_edges = list(pag.in_edges(v.id))
    if not in_edges:
        return None
    if v.label is VertexLabel.CALL and v.call_kind is CallKind.COMM:
        comm = [e for e in in_edges if e.label is EdgeLabel.INTER_PROCESS]
        if comm:
            # Follow the communication that contributed the most waiting.
            return max(comm, key=lambda e: (float(e["wait_time"] or 0.0), -e.id))
    if v.label in (VertexLabel.LOOP, VertexLabel.BRANCH):
        ctrl = [e for e in in_edges if e.label is not EdgeLabel.INTER_PROCESS]
        if ctrl:
            return ctrl[0]
    # Default: the flow/data edge (intra-procedural first).
    flow = [e for e in in_edges if e.label is not EdgeLabel.INTER_PROCESS]
    return flow[0] if flow else in_edges[0]


@signature(inputs=(VertexSet,), outputs=(VertexSet, EdgeSet))
def backtracking_analysis(
    V: VertexSet,
    max_steps: int = 10000,
) -> Tuple[VertexSet, EdgeSet]:
    """Backward propagation walk from each buggy vertex.

    Returns ``(V_bt, E_bt)``: the vertices and edges on all backtracking
    paths, in walk order, deduplicated.  Walk sources (the deepest
    vertices reached) are the root-cause candidates: ``V_bt`` carries
    the column ``backtrack_root``, true for exactly those.
    """
    pag = V.pag
    if pag is None:
        return VertexSet([]), EdgeSet([])
    V_bt: List[Vertex] = []
    E_bt: List[Edge] = []
    scanned: Set[int] = set()
    roots: Set[int] = set()
    for start in V:
        if start.id in scanned:
            continue
        v = start
        steps = 0
        arrived_via_comm = False
        while steps < max_steps:
            steps += 1
            if v.id in scanned and v is not start:
                break
            scanned.add(v.id)
            V_bt.append(v)
            # Stopping at a collective applies to collectives reached along
            # the local flow: blame cannot pass *through* a synchronization
            # point locally.  Arriving at a collective over an
            # inter-process edge is different — that instance belongs to
            # the late participant, and its lateness comes from the code
            # before it, so the walk continues up that rank's flow.
            if _is_collective(v) and v is not start and not arrived_via_comm:
                break
            e = _pick_in_edge(pag, v)
            if e is None:
                roots.add(v.id)
                break
            E_bt.append(e)
            arrived_via_comm = e.label is EdgeLabel.INTER_PROCESS
            v = e.src
        else:
            # Step budget exhausted: mark where we stopped.
            roots.add(v.id)
    walked = VertexSet(V_bt)
    is_root = [i in roots for i in walked.ids().tolist()]
    return walked.with_columns(backtrack_root=is_root), EdgeSet(E_bt)
