"""Contention detection pass (paper Listing 6).

Resource contention — threads serializing on a shared resource such as
the allocator lock — has a characteristic shape on the parallel view: a
hub vertex with multiple incoming and outgoing *inter-thread* wait
edges (several threads queue behind one holder, and the holder in turn
delays several waiters).  Subgraph matching finds all embeddings of
such candidate patterns around the suspect vertices.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dataflow.signatures import signature
from repro.algorithms.subgraph import Embedding, PatternGraph, subgraph_matching
from repro.pag.columns import _np_view
from repro.pag.edge import ELABEL_CODE, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet


def default_contention_pattern() -> PatternGraph:
    """Listing 6's candidate pattern: A,B -> C -> D,E over wait edges.

    Vertex C is the serialization hub — a lock holder that both inherited
    delay (in-edges from A and B) and passed it on (out-edges to D and
    E).  All five pattern vertices are unconstrained on labels; the edges
    must be inter-thread wait edges.
    """
    pat = PatternGraph()
    pat.add_vertices([(1, "A"), (2, "B"), (3, "C"), (4, "D"), (5, "E")])
    for src, dst in [(1, 3), (2, 3), (3, 4), (3, 5)]:
        pat.add_edge(src, dst, label=EdgeLabel.INTER_THREAD)
    return pat


@signature(inputs=(VertexSet,), outputs=(VertexSet, EdgeSet))
def contention_detection(
    V: VertexSet,
    pattern: Optional[PatternGraph] = None,
    limit: int = 50,
) -> Tuple[VertexSet, EdgeSet]:
    """Search contention-pattern embeddings around the input vertices.

    The input vertices anchor the pattern's hub: embeddings are searched
    with the hub restricted to the neighborhood (the vertex itself and
    its inter-thread neighbors) of each input vertex.  Returns the union
    of embedded vertices and edges (Listing 6's ``V_ebd, E_ebd``); the
    vertex set's ``contention_hub`` column names the hub of the (last)
    embedding each vertex belongs to.
    """
    pag: Optional[PAG] = V.pag
    if pag is None:
        return VertexSet([]), EdgeSet([])
    pat = pattern or default_contention_pattern()

    # Anchor candidates: the inputs plus their inter-thread neighborhood,
    # in id order.
    wait = np.flatnonzero(
        _np_view(pag._e_label, np.int8) == ELABEL_CODE[EdgeLabel.INTER_THREAD]
    )
    src, dst = _np_view(pag._e_src, np.int64)[wait], _np_view(pag._e_dst, np.int64)[wait]
    is_input = np.zeros(pag.num_vertices, dtype=bool)
    is_input[V._ids] = True
    anchors = VertexSet._from_ids(
        pag, np.unique(np.concatenate((V._ids, src[is_input[dst]], dst[is_input[src]])))
    )

    embeddings: List[Embedding] = subgraph_matching(pag, pat, candidates=anchors, limit=limit)
    hub_of, out_es = {}, []  # vertex id -> hub tag, in first-embedded order
    for emb in embeddings:
        hub = max(
            emb.vertices.values(),
            key=lambda v: sum(1 for e in emb.edges if v.id in (e.src_id, e.dst_id)),
        )
        tag = f"{hub.name}@{hub['debug-info']}"
        for v in emb.vertices.values():
            hub_of[v.id] = tag
        out_es.extend(emb.edges)
    embedded = VertexSet.from_ids(pag, list(hub_of))
    return embedded.with_columns(contention_hub=list(hub_of.values())), EdgeSet(out_es)
