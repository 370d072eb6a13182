"""Low-level API surface (paper §4.3.1).

Everything the paper's listings reference as ``pflow.<thing>`` when
writing user-defined passes: graph-operation helpers, graph algorithms,
set operations, and the type constants.  The :class:`PerFlow` facade
re-exports all of it, so ``pflow.lowest_common_ancestor(v1, v2)``
(Listing 5) and ``pflow.COLL_COMM`` (Listing 7) work verbatim.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.algorithms.lca import lowest_common_ancestor as _lca
from repro.algorithms.subgraph import Embedding, PatternGraph, subgraph_matching as _match
from repro.pag.edge import Edge, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import IN_EDGE, OUT_EDGE, EdgeSet, VertexSet
from repro.pag.vertex import Vertex, VertexLabel

# ---------------------------------------------------------------------------
# type constants (Listing 7: pflow.MPI, pflow.LOOP, pflow.BRANCH, ...)
# ---------------------------------------------------------------------------
#: Vertex ``type`` values (compare against ``v["type"]``).
MPI = "mpi"
LOOP = VertexLabel.LOOP.value
BRANCH = VertexLabel.BRANCH.value
FUNCTION = VertexLabel.FUNCTION.value
CALL = VertexLabel.CALL.value
INSTRUCTION = VertexLabel.INSTRUCTION.value

#: Edge type values for ``es.select(type=...)``.  Control and data flow
#: both travel on intra-procedural edges in this implementation, so the
#: two constants alias the same label (the selection semantics of
#: Listing 7 are preserved: non-communication in-edges).
COMM = EdgeLabel.INTER_PROCESS
CTRL_FLOW = EdgeLabel.INTRA_PROCEDURAL
DATA_FLOW = EdgeLabel.INTRA_PROCEDURAL
CALL_EDGE = EdgeLabel.INTER_PROCEDURAL
THREAD_DEP = EdgeLabel.INTER_THREAD

#: Collective communication names (Listing 7's pflow.COLL_COMM).
COLL_COMM = (
    "MPI_Allreduce",
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Alltoall",
    "MPI_Allgather",
    # Fortran bindings as the case studies print them:
    "mpi_allreduce_",
    "mpi_barrier_",
    "mpi_bcast_",
    "mpi_reduce_",
)


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------
def vertex(name: str = "", label: VertexLabel = VertexLabel.INSTRUCTION) -> Vertex:
    """A result vertex (Listing 4 builds difference vertices this way):
    vertex 0 of its own one-vertex PAG."""
    return PAG(name or "vertex").add_vertex(label, name)


def graph() -> PatternGraph:
    """A fresh pattern graph (Listing 6's ``pflow.graph()``)."""
    return PatternGraph()


# ---------------------------------------------------------------------------
# graph algorithms
# ---------------------------------------------------------------------------
def lowest_common_ancestor(
    v1: Vertex, v2: Vertex, edge_ok=None
) -> Tuple[Optional[Vertex], List[Edge]]:
    """LCA of two vertices of the same PAG (Listing 5)."""
    if v1.pag is not v2.pag:
        raise ValueError("LCA requires two vertices of the same PAG")
    return _lca(v1.pag, v1, v2, edge_ok)


def subgraph_matching(
    pag: PAG,
    sub_pag: PatternGraph,
    candidates: Optional[Iterable[Vertex]] = None,
    limit: Optional[int] = None,
) -> Tuple[VertexSet, EdgeSet]:
    """All embeddings of ``sub_pag`` in ``pag`` (Listing 6).

    Returns the union of embedded vertices and edges (``V_ebd, E_ebd``).
    """
    embeddings: List[Embedding] = _match(pag, sub_pag, candidates=candidates, limit=limit)
    vs: List[Vertex] = []
    es: List[Edge] = []
    for emb in embeddings:
        vs.extend(emb.vertices.values())
        es.extend(emb.edges)
    return VertexSet(vs), EdgeSet(es)


# ---------------------------------------------------------------------------
# set operations
# ---------------------------------------------------------------------------
def union(*sets: VertexSet) -> VertexSet:
    """Union preserving first-appearance order (Listing 7's pflow.union)."""
    if not sets:
        return VertexSet([])
    return sets[0].union(*sets[1:])


def intersection(a: VertexSet, b: VertexSet) -> VertexSet:
    return a.intersection(b)


def difference(a: VertexSet, b: VertexSet) -> VertexSet:
    return a.difference(b)


__all__ = [
    "MPI",
    "LOOP",
    "BRANCH",
    "FUNCTION",
    "CALL",
    "INSTRUCTION",
    "COMM",
    "CTRL_FLOW",
    "DATA_FLOW",
    "CALL_EDGE",
    "THREAD_DEP",
    "COLL_COMM",
    "IN_EDGE",
    "OUT_EDGE",
    "vertex",
    "graph",
    "lowest_common_ancestor",
    "subgraph_matching",
    "union",
    "intersection",
    "difference",
]
