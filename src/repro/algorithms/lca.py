"""Lowest common ancestor on PAG views — the causal-analysis kernel.

Paper §4.3.2-C: performance bugs propagate along parallel-view edges;
the LCA of two buggy vertices — the deepest vertex having both as
descendants — is where their common cause lives.  PAG views are DAGs,
so "deepest" is defined by topological depth (longest distance from any
root), the standard DAG-LCA generalization.

Returns the LCA vertex and the edge paths from it to each input, which
the causal pass reports as the propagation chains.

The upward searches run on integer ids over the PAG's CSR in-edge index
(:func:`_ancestry`); the causal pass keeps one per input vertex and
pairs them with :func:`_lca_ids`, so handles exist only for ``edge_ok``
and the returned vertex and path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.traversal import EdgePredicate, _passing
from repro.pag.columns import _np_view
from repro.pag.edge import Edge
from repro.pag.graph import PAG
from repro.pag.vertex import Vertex

#: ancestor id -> (hop distance, id of the edge taken toward the origin,
#: that edge's destination); the origin itself maps to ``(0, -1, -1)``
_Ancestry = Dict[int, Tuple[int, int, int]]


def _ancestry(pag: PAG, vid: int, edge_ok: Optional[EdgePredicate]) -> _Ancestry:
    """BFS upward from ``vid`` over the in-edge index.

    The recorded edge is the one leading from the ancestor toward
    ``vid`` on a shortest hop path (lowest edge id among the first
    found), enough to reconstruct a propagation path.
    """
    _, _, ptr, in_eids = pag._csr()
    src = _np_view(pag._e_src, np.int64)
    out: _Ancestry = {vid: (0, -1, -1)}
    frontier, dist = [vid], 0
    while frontier:
        nxt: List[int] = []
        dist += 1
        for u in frontier:
            eids = _passing(pag, in_eids[ptr.item(u) : ptr.item(u + 1)], edge_ok)
            for s, e in zip(src[eids].tolist(), eids):
                if s not in out:
                    out[s] = (dist, e, u)
                    nxt.append(s)
        frontier = nxt
    return out


def _path_down(anc: _Ancestry, start: int) -> List[int]:
    """Ids of the edges from ``start`` down to the BFS origin."""
    path: List[int] = []
    _dist, eid, vid = anc[start]
    while eid >= 0:
        path.append(eid)
        _dist, eid, vid = anc[vid]
    return path


def _lca_ids(anc_v: _Ancestry, anc_w: _Ancestry, v: int, w: int) -> Tuple[Optional[int], List[int]]:
    """``lowest_common_ancestor`` on the two inputs' ancestries (``v``
    and ``w`` distinct): ancestor id or ``None``, and path edge ids."""
    # One input being the other's ancestor is the degenerate causal case:
    # report the ancestor itself.
    if w in anc_v:
        return w, _path_down(anc_v, w)
    if v in anc_w:
        return v, _path_down(anc_w, v)
    common = anc_v.keys() & anc_w.keys()
    if not common:
        return None, []
    best = min(common, key=lambda a: (anc_v[a][0] + anc_w[a][0], a))
    return best, _path_down(anc_v, best) + _path_down(anc_w, best)


def lowest_common_ancestor(
    pag: PAG,
    v: Vertex,
    w: Vertex,
    edge_ok: Optional[EdgePredicate] = None,
) -> Tuple[Optional[Vertex], List[Edge]]:
    """Deepest common ancestor of ``v`` and ``w`` and the connecting path.

    Returns ``(lca, path)`` where ``path`` is the concatenation of the
    edge paths lca→v and lca→w (the paper's Listing 5 returns the LCA
    vertex plus an edge set).  ``(None, [])`` if the vertices share no
    ancestor under the edge filter.

    Depth ties are broken toward the ancestor nearest to ``v`` and ``w``
    (smallest combined hop distance), which favors the most specific
    cause.
    """
    if v.id == w.id:
        return v, []
    best, path = _lca_ids(
        _ancestry(pag, v.id, edge_ok), _ancestry(pag, w.id, edge_ok), v.id, w.id
    )
    if best is None:
        return None, []
    return pag.vertex(best), [Edge._attached(pag, e) for e in path]
