"""Critical-path extraction over the parallel view.

The critical path of a parallel execution is the longest
vertex/edge-weighted path through the parallel view's DAG: the chain of
activities whose shortening would shorten the run (Böhme et al. [19],
Schmitt et al. [54] — the inspirations the paper cites for its
critical-path paradigm).

Weights: each vertex contributes its exclusive ``time`` minus its
``wait`` (waiting is by definition *not* on the critical path — the
thing waited for is), floored at zero; edges contribute zero by default
or an explicit property.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.algorithms.traversal import (
    EdgePredicate,
    _forward_star,
    _indegrees,
    _kahn_order,
)
from repro.pag.columns import FloatColumn, IntColumn
from repro.pag.edge import Edge
from repro.pag.graph import PAG
from repro.pag.vertex import Vertex


def default_vertex_weight(v: Vertex) -> float:
    time = v["time"] or 0.0
    wait = v["wait"] or 0.0
    return max(0.0, float(time) - float(wait))


def _vertex_weights(pag: PAG, vertex_weight: Callable[[Vertex], float]) -> List[float]:
    """``vertex_weight`` of every vertex, by id."""
    vprops = pag._vprops
    if vertex_weight is default_vertex_weight and all(
        col is None or isinstance(col, (FloatColumn, IntColumn))
        for col in (vprops.column("time"), vprops.column("wait"))
    ):
        # default_vertex_weight as one columnar gather; a spilled column
        # may hold values only float() can judge, so it takes the callable
        ids = np.arange(pag.num_vertices, dtype=np.int64)
        w = vprops.numeric("time", ids) - vprops.numeric("wait", ids)
        return np.where(w > 0.0, w, 0.0).tolist()
    return [vertex_weight(v) for v in pag.vertices()]


def critical_path(
    pag: PAG,
    vertex_weight: Callable[[Vertex], float] = default_vertex_weight,
    edge_weight: Optional[Callable[[Edge], float]] = None,
    edge_ok: Optional[EdgePredicate] = None,
) -> Tuple[List[Vertex], List[Edge], float]:
    """Longest weighted path through the DAG.

    Returns ``(vertices, edges, total_weight)`` with vertices in path
    order.  Ties are broken deterministically by predecessor id.

    The sweep runs on integer ids over the CSR adjacency: weights and
    the edge filter are evaluated once per element up front, and
    handles are created only for the returned path.
    """
    n = pag.num_vertices
    ptr_a, eids_a, dsts_a = _forward_star(pag, edge_ok)
    ptr, eids, dsts = ptr_a.tolist(), eids_a.tolist(), dsts_a.tolist()
    order = _kahn_order(_indegrees(pag, dsts_a), ptr, dsts)
    if n == 0:
        return [], [], 0.0
    vw = _vertex_weights(pag, vertex_weight)
    if edge_weight is None:
        ews = [0.0] * len(eids)
    else:
        ews = [edge_weight(Edge._attached(pag, eid)) for eid in eids]

    best = [0.0] * n
    pred_edge = [-1] * n
    # no vertex id is below -1, so an unset predecessor never loses a tie
    pred_src = [-1] * n
    for vid in order:
        b = best[vid] = best[vid] + vw[vid]
        for k in range(ptr[vid], ptr[vid + 1]):
            cand = b + ews[k]
            d = dsts[k]
            if cand > best[d] or (cand == best[d] and vid < pred_src[d]):
                best[d] = cand
                pred_edge[d] = eids[k]
                pred_src[d] = vid

    top = max(best)
    end = best.index(top)  # smallest id among the heaviest
    # walk back
    edges: List[Edge] = []
    vertices: List[Vertex] = [pag.vertex(end)]
    vid = end
    while pred_edge[vid] >= 0:
        edges.append(pag.edge(pred_edge[vid]))
        vid = pred_src[vid]
        vertices.append(pag.vertex(vid))
    vertices.reverse()
    edges.reverse()
    return vertices, edges, top
