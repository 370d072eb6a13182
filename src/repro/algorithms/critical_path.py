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

The sweep contracts *chains* (id-contiguous runs, such as a parallel
view's flows) so that Python visits only chains and the *junction* edges
between them: Huntsman's flow-graph coarsening.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.algorithms.traversal import EdgePredicate, _forward_star, _kahn_order
from repro.obs.trace import current_span
from repro.pag.columns import FloatColumn, IntColumn
from repro.pag.edge import Edge
from repro.pag.graph import PAG, _csr_ptr
from repro.pag.vertex import Vertex

#: chains shorter than this are summed in Python: a cumsum call costs more
_SHORT_CHAIN = 32


def default_vertex_weight(v: Vertex) -> float:
    time = v["time"] or 0.0
    wait = v["wait"] or 0.0
    return max(0.0, float(time) - float(wait))


def _vertex_weights(pag: PAG, vertex_weight: Callable[[Vertex], float]) -> np.ndarray:
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
        return np.where(w > 0.0, w, 0.0)
    weights = (float(vertex_weight(v)) for v in pag.vertices())
    return np.fromiter(weights, np.float64, count=pag.num_vertices)


def critical_path(
    pag: PAG,
    vertex_weight: Callable[[Vertex], float] = default_vertex_weight,
    edge_weight: Optional[Callable[[Edge], float]] = None,
    edge_ok: Optional[EdgePredicate] = None,
) -> Tuple[List[Vertex], List[Edge], float]:
    """Longest weighted path through the DAG.

    Returns ``(vertices, edges, total_weight)`` with vertices in path
    order.  Ties are broken deterministically by predecessor id.

    The filter and then, on an acyclic graph, the weights are evaluated
    once per element up front; handles are created only for the path.
    Cost: O(V + E) numpy plus O(chains + junction edges) Python, where a
    chain with a negative or NaN weight, or under 32 vertices, is summed
    in Python.  The counts annotate the enclosing trace span.
    """
    n = pag.num_vertices
    ptr, eids, dsts = _forward_star(pag, edge_ok)
    outdeg = np.diff(ptr)
    srcs = np.repeat(np.arange(n), outdeg)
    # a link v -> v + 1 is v's only out-edge and v + 1's only in-edge
    link = (dsts == srcs + 1) & (outdeg[srcs] == 1)
    link &= np.bincount(dsts, minlength=n)[dsts] == 1
    is_head = np.bincount(dsts[link], minlength=n) == 0
    heads = np.flatnonzero(is_head)
    # a junction edge leaves a chain's tail and enters a chain's head
    chain_of, junction = np.cumsum(is_head) - 1, ~link
    jdst = chain_of[dsts[junction]]
    cptr = _csr_ptr(chain_of[srcs[junction]], len(heads)).tolist()
    indeg, jdst = np.bincount(jdst, minlength=len(heads)).tolist(), jdst.tolist()
    order = _kahn_order(indeg, cptr, jdst)
    sp = current_span()
    if sp:
        sp.set(chains=len(heads), junction_edges=len(jdst))
    if n == 0:
        return [], [], 0.0

    vw = _vertex_weights(pag, vertex_weight)
    ew = np.zeros(len(eids)) if edge_weight is None else np.fromiter(
        (float(edge_weight(Edge._attached(pag, e))) for e in eids.tolist()), np.float64
    )
    lw = np.zeros(n)  # weight of the link out of each vertex
    lw[srcs[link]] = ew[link]
    # [vw, lw] interleaved: a chain's cumsum alternates best and candidate
    sums = np.column_stack((vw, lw)).ravel()
    # a long chain whose weights are all >= 0 never meets the clamp at
    # 0.0, so it is one cumsum; the others' vertices are summed in Python
    lengths = np.diff(np.append(heads, n))
    clamps = ~((vw >= 0.0) & (lw >= 0.0))  # a negative or NaN weight
    fast = (lengths >= _SHORT_CHAIN) & ~np.logical_or.reduceat(clamps, heads)
    slow = np.flatnonzero(~np.repeat(fast, lengths))
    vws, lws = vw[slow].tolist(), lw[slow].tolist()
    at = np.searchsorted(slow, heads).tolist()  # each head's place in slow
    starts, fast = heads.tolist() + [n], fast.tolist()
    jeid, jw = eids[junction].tolist(), ew[junction].tolist()
    # no vertex id is below -1, so an unset predecessor never loses a tie
    seed, seed_src, seed_eid = [0.0] * len(fast), [-1] * len(fast), [-1] * len(fast)
    for c in order:
        h, e = starts[c], starts[c + 1]
        if fast[c]:
            sums[2 * h] += seed[c]
            np.cumsum(sums[2 * h : 2 * e], out=sums[2 * h : 2 * e])
            b = sums.item(2 * e - 2)
        else:
            i = at[c]
            b = vws[i] = seed[c] + vws[i]
            for i in range(i + 1, i + e - h):
                cand = b + lws[i - 1]
                b = vws[i] = (cand if cand > 0.0 else 0.0) + vws[i]
        for k in range(cptr[c], cptr[c + 1]):
            cand, d = b + jw[k], jdst[k]
            if cand > seed[d] or (cand == seed[d] and e - 1 < seed_src[d]):
                seed[d], seed_src[d], seed_eid[d] = cand, e - 1, jeid[k]

    sums[2 * slow] = vws
    best = sums[0::2]
    pred = np.full(n, -1, dtype=np.int64)
    pred[heads] = seed_eid
    # a link sets its target's predecessor only when its candidate beat 0.0
    taken = link & (best[srcs] + ew > 0.0)
    pred[dsts[taken]] = eids[taken]
    # Python's max(): a NaN wins only in first place, and is found there
    top = best[0] if np.isnan(best[0]) else np.fmax.reduce(best)
    end = int(np.argmax(best == top))
    # walk back
    vertices: List[Vertex] = [pag.vertex(end)]
    edges: List[Edge] = []
    eid = pred.item(end)
    while eid >= 0:
        edge = pag.edge(eid)
        edges.append(edge)
        vertices.append(pag.vertex(edge.src_id))
        eid = pred.item(edge.src_id)
    vertices.reverse()
    edges.reverse()
    return vertices, edges, float(top)
