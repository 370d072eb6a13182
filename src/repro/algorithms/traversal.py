"""Graph traversals over PAGs: BFS, DFS, topological order, reachability.

All traversals accept an optional edge predicate, which is how passes
impose the "constraints" of §4.3.1 (e.g. follow only inter-process
edges, or only edges with positive wait time).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.pag.columns import _np_view
from repro.pag.edge import Edge
from repro.pag.graph import PAG, _csr_ptr
from repro.pag.vertex import Vertex

EdgePredicate = Callable[[Edge], bool]

_DIRECTIONS = ("out", "in", "both")


def _passing(pag: PAG, eids: np.ndarray, edge_ok: Optional[EdgePredicate]) -> List[int]:
    """``eids`` as a list, less the edges ``edge_ok`` rejects."""
    # an Edge handle exists only while ``edge_ok`` looks at it
    if edge_ok is None:
        return eids.tolist()
    return [e for e in eids.tolist() if edge_ok(Edge._attached(pag, e))]


def _far_ends(
    pag: PAG, eids: np.ndarray, far, edge_ok: Optional[EdgePredicate]
) -> List[int]:
    if edge_ok is not None:
        eids = _passing(pag, eids, edge_ok)
    return _np_view(far, np.int64)[eids].tolist()


def _neighbor_ids(
    pag: PAG, vid: int, direction: str, edge_ok: Optional[EdgePredicate]
) -> List[int]:
    """Neighbour ids of ``vid`` in adjacency order: over out-edges, then
    over in-edges, each by ascending edge id."""
    out: List[int] = []
    if direction != "in":
        out += _far_ends(pag, pag._out_eids(vid), pag._e_dst, edge_ok)
    if direction != "out":
        out += _far_ends(pag, pag._in_eids(vid), pag._e_src, edge_ok)
    return out


def _bfs_ids(
    pag: PAG,
    start: List[int],
    direction: str,
    edge_ok: Optional[EdgePredicate],
    max_depth: Optional[int],
) -> Iterator[int]:
    """Ids discovered by a BFS from the (deduplicated) ``start`` ids, in
    discovery order, ``start`` itself excluded."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"invalid direction {direction!r}")
    seen = set(start)
    # the frontier list is the FIFO queue: ids are read in append order
    frontier, depth = start, 0
    while frontier and (max_depth is None or depth < max_depth):
        nxt: List[int] = []
        for vid in frontier:
            for nid in _neighbor_ids(pag, vid, direction, edge_ok):
                if nid not in seen:
                    seen.add(nid)
                    nxt.append(nid)
                    yield nid
        frontier, depth = nxt, depth + 1


def bfs(
    pag: PAG,
    sources: Iterable[Vertex],
    direction: str = "out",
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Iterator[Vertex]:
    """Breadth-first search from ``sources``; yields visited vertices
    (sources first) in discovery order."""
    start: List[int] = []
    seen: Set[int] = set()
    for v in sources:
        if v.id not in seen:
            seen.add(v.id)
            start.append(v.id)
            yield v
    attached = Vertex._attached
    for nid in _bfs_ids(pag, start, direction, edge_ok, max_depth):
        yield attached(pag, nid)


def dfs_preorder(
    pag: PAG,
    source: Vertex,
    direction: str = "out",
    edge_ok: Optional[EdgePredicate] = None,
) -> Iterator[Vertex]:
    """Depth-first pre-order from ``source`` (iterative; graph-safe)."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"invalid direction {direction!r}")
    stack = [source.id]
    seen: Set[int] = set()
    while stack:
        vid = stack.pop()
        if vid in seen:
            continue
        seen.add(vid)
        yield pag.vertex(vid)
        nxt = _neighbor_ids(pag, vid, direction, edge_ok)
        # reversed: visit in natural adjacency order
        stack.extend(reversed([n for n in nxt if n not in seen]))


def id_increasing(e: Edge) -> bool:
    """Edge filter keeping the edges from a lower to a higher vertex id,
    under which every graph is acyclic.  Traversals recognise it and
    evaluate it over the endpoint arrays, without edge handles."""
    return e.src_id < e.dst_id


def _forward_star(
    pag: PAG, edge_ok: Optional[EdgePredicate]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The out-adjacency restricted to edges passing ``edge_ok``, as
    ``(ptr, eids, dsts)``: vertex ``v``'s surviving out-edges are
    ``eids[ptr[v]:ptr[v + 1]]`` (ascending) and lead to the same slice
    of ``dsts``.  ``edge_ok`` sees each edge once, in edge-id order,
    unless it is :func:`id_increasing`, which is read off the arrays."""
    ptr, eids, _, _ = pag._csr()
    if edge_ok is id_increasing:
        ok = _np_view(pag._e_src, np.int64) < _np_view(pag._e_dst, np.int64)
    elif edge_ok is not None:
        ok = np.fromiter(
            (bool(edge_ok(e)) for e in pag.edges()), bool, count=pag.num_edges
        )
    if edge_ok is not None:
        eids = eids[ok[eids]]
        ptr = _csr_ptr(_np_view(pag._e_src, np.int64)[eids], pag.num_vertices)
    return ptr, eids, _np_view(pag._e_dst, np.int64)[eids]


def _kahn_order(indeg: List[int], ptr: List[int], dsts: List[int]) -> List[int]:
    # the output list doubles as Kahn's FIFO queue
    order = [v for v, deg in enumerate(indeg) if deg == 0]
    for vid in order:
        for d in dsts[ptr[vid] : ptr[vid + 1]]:
            indeg[d] -= 1
            if indeg[d] == 0:
                order.append(d)
    if len(order) != len(indeg):
        raise ValueError("graph contains a cycle under the given edge filter")
    return order


def _indegrees(pag: PAG, dsts: np.ndarray) -> List[int]:
    return np.bincount(dsts, minlength=pag.num_vertices).tolist()


def topological_order(
    pag: PAG, edge_ok: Optional[EdgePredicate] = None
) -> List[int]:
    """Kahn topological order of vertex ids.

    Raises ``ValueError`` on cycles — PAG views are DAGs by construction
    (tree + forward flow/comm edges), so a cycle indicates a malformed
    graph.
    """
    ptr, _eids, dsts = _forward_star(pag, edge_ok)
    return _kahn_order(_indegrees(pag, dsts), ptr.tolist(), dsts.tolist())


def ancestors(
    pag: PAG,
    v: Vertex,
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Set[int]:
    """Ids of vertices that can reach ``v`` (excluding ``v``)."""
    return set(_bfs_ids(pag, [v.id], "in", edge_ok, max_depth))


def descendants(
    pag: PAG,
    v: Vertex,
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Set[int]:
    """Ids of vertices reachable from ``v`` (excluding ``v``)."""
    return set(_bfs_ids(pag, [v.id], "out", edge_ok, max_depth))
