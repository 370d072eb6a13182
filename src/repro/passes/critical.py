"""Critical-path analysis pass.

Wraps :func:`repro.algorithms.critical_path.critical_path` as a pass:
input is any vertex set of a parallel view (only its PAG matters),
output is the path's vertices/edges plus the path weight.
"""

from __future__ import annotations

from typing import Tuple

from repro.dataflow.signatures import SetKind, signature
from repro.algorithms.critical_path import critical_path, default_vertex_weight
from repro.algorithms.traversal import id_increasing
from repro.obs.trace import span as _span
from repro.pag.sets import EdgeSet, VertexSet


@signature(inputs=(VertexSet,), outputs=(VertexSet, EdgeSet, SetKind.ANY))
def critical_path_analysis(
    V: VertexSet,
    vertex_weight=default_vertex_weight,
) -> Tuple[VertexSet, EdgeSet, float]:
    """The longest weighted activity chain of the execution.

    Returns ``(vertices, edges, weight)``; vertices in path order.

    Parallel views aggregate repeated interactions onto the same vertex
    pair, which can create lateral cycles (a lock bouncing between two
    threads contributes edges in both directions).  When that happens,
    the path is computed over the acyclic id-increasing edge subset —
    flow edges always qualify, and exactly one direction of each lateral
    pair survives — a deterministic approximation whose weight is a
    lower bound on the true critical path.
    """
    pag = V.pag
    if pag is None:
        return VertexSet([]), EdgeSet([]), 0.0
    with _span(
        "passes.critical_path",
        category="passes",
        vertices=pag.num_vertices,
        edges=pag.num_edges,
    ) as sp:
        try:
            vertices, edges, weight = critical_path(pag, vertex_weight=vertex_weight)
            cyclic = False
        except ValueError:
            vertices, edges, weight = critical_path(
                pag, vertex_weight=vertex_weight, edge_ok=id_increasing
            )
            cyclic = True
        if sp:
            sp.set(cyclic_fallback=cyclic)
    return VertexSet(vertices), EdgeSet(edges), weight
