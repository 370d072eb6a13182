"""Dict-backed reference model of the PAG's public element/set surface.

This is an *independent* re-implementation of the semantics the columnar
PAG promises — each vertex/edge is a plain dict of properties, every
operation is a straightforward Python loop.  The equivalence test
(`test_columnar_equivalence.py`) drives the real columnar PAG and this
shim through identical operation sequences and asserts identical
results, so any divergence in the columnar fast paths is caught by
property-based search rather than by hand-picked examples.

The shim deliberately avoids importing anything from ``repro.pag``
except the public enums, so it cannot accidentally share a buggy code
path with the implementation under test.

The second half holds the *per-handle* traversal and critical-path
implementations ``repro.algorithms`` shipped before its kernels moved
onto integer ids over the CSR adjacency index, verbatim: they touch a
real PAG only through its public element API (``pag.edges()``,
``pag.out_edges(v)``, ``e.dst_id``, ``v["time"]``), one flyweight
handle at a time.  ``test_traversal_kernels.py`` holds the array-native
kernels to them result-for-result.
"""

from __future__ import annotations

import fnmatch
from collections import deque
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.pag.edge import CommKind, EdgeLabel
from repro.pag.vertex import CallKind, VertexLabel


class RefVertex:
    def __init__(self, vid: int, label: VertexLabel, name: str, call_kind: Optional[CallKind]):
        self.id = vid
        self.label = label
        self.name = name
        self.call_kind = call_kind
        self.props: Dict[str, Any] = {}

    def get(self, key: str) -> Any:
        if key == "name":
            return self.name
        if key == "type":
            if self.label is VertexLabel.CALL and self.call_kind is CallKind.COMM:
                return "mpi"
            return self.label.value
        return self.props.get(key)


class RefEdge:
    def __init__(
        self,
        eid: int,
        src: int,
        dst: int,
        label: EdgeLabel,
        comm_kind: Optional[CommKind],
    ):
        self.id = eid
        self.src = src
        self.dst = dst
        self.label = label
        self.comm_kind = comm_kind
        self.props: Dict[str, Any] = {}

    def get(self, key: str) -> Any:
        return self.props.get(key)


def _numeric(value: Any) -> float:
    return float(value) if isinstance(value, (int, float)) else 0.0


def _dedup(ids: List[int]) -> List[int]:
    seen = set()
    out = []
    for i in ids:
        if i not in seen:
            seen.add(i)
            out.append(i)
    return out


class RefPAG:
    """Reference graph: lists of dict-backed vertices and edges."""

    def __init__(self) -> None:
        self.vertices: List[RefVertex] = []
        self.edges: List[RefEdge] = []

    # -- construction --------------------------------------------------
    def add_vertex(
        self,
        label: VertexLabel,
        name: str,
        call_kind: Optional[CallKind] = None,
    ) -> int:
        v = RefVertex(len(self.vertices), label, name, call_kind)
        self.vertices.append(v)
        return v.id

    def add_edge(
        self,
        src: int,
        dst: int,
        label: EdgeLabel,
        comm_kind: Optional[CommKind] = None,
    ) -> int:
        e = RefEdge(len(self.edges), src, dst, label, comm_kind)
        self.edges.append(e)
        return e.id

    # -- bulk property access ------------------------------------------
    def vertex_values(self, ids: List[int], key: str) -> List[Any]:
        return [self.vertices[i].get(key) for i in ids]

    def edge_values(self, ids: List[int], key: str) -> List[Any]:
        return [self.edges[i].get(key) for i in ids]

    def vertex_sum(self, ids: List[int], key: str) -> float:
        return sum(_numeric(self.vertices[i].get(key)) for i in ids)

    # -- ordering -------------------------------------------------------
    def sort_vertices(self, ids: List[int], metric: str, reverse: bool = True) -> List[int]:
        keyed = [(_numeric(self.vertices[i].get(metric)), pos) for pos, i in enumerate(ids)]
        order = sorted(
            range(len(ids)),
            key=lambda p: (-keyed[p][0] if reverse else keyed[p][0], p),
        )
        return [ids[p] for p in order]

    # -- set algebra (order-preserving, first-occurrence dedup) --------
    @staticmethod
    def union(a: List[int], b: List[int]) -> List[int]:
        return _dedup(list(a) + list(b))

    @staticmethod
    def intersection(a: List[int], b: List[int]) -> List[int]:
        bset = set(b)
        return [i for i in _dedup(a) if i in bset]

    @staticmethod
    def difference(a: List[int], b: List[int]) -> List[int]:
        bset = set(b)
        return [i for i in _dedup(a) if i not in bset]

    # -- selection ------------------------------------------------------
    def select_vertices(
        self,
        ids: List[int],
        name: Optional[str] = None,
        label: Optional[VertexLabel] = None,
        call_kind: Optional[CallKind] = None,
        **props: Any,
    ) -> List[int]:
        out = []
        for i in ids:
            v = self.vertices[i]
            if name is not None and not fnmatch.fnmatchcase(v.name, name):
                continue
            if label is not None and v.label is not label:
                continue
            if call_kind is not None and v.call_kind is not call_kind:
                continue
            if any(v.get(k) != want for k, want in props.items()):
                continue
            out.append(i)
        return out

    def select_edges(
        self,
        ids: List[int],
        direction: Optional[str] = None,
        type: Optional[EdgeLabel] = None,  # noqa: A002 - mirror the real API
        comm_kind: Optional[CommKind] = None,
        of: Optional[int] = None,
        **props: Any,
    ) -> List[int]:
        out = []
        for i in ids:
            e = self.edges[i]
            if direction == "in" and of is not None and e.dst != of:
                continue
            if direction == "out" and of is not None and e.src != of:
                continue
            if type is not None and e.label is not type:
                continue
            if comm_kind is not None and e.comm_kind is not comm_kind:
                continue
            if any(e.get(k) != want for k, want in props.items()):
                continue
            out.append(i)
        return out

    # -- traversal ------------------------------------------------------
    def out_edges(self, vid: int) -> List[int]:
        return [e.id for e in self.edges if e.src == vid]

    def in_edges(self, vid: int) -> List[int]:
        return [e.id for e in self.edges if e.dst == vid]

    def successors(self, vid: int) -> List[int]:
        # one entry per out-edge (multigraph: not deduplicated)
        return [self.edges[i].dst for i in self.out_edges(vid)]

    def predecessors(self, vid: int) -> List[int]:
        return [self.edges[i].src for i in self.in_edges(vid)]

    def neighbors(self, vid: int) -> List[int]:
        return _dedup(self.predecessors(vid) + self.successors(vid))

    def edge_endpoints(self, ids: List[int]) -> Tuple[List[int], List[int]]:
        return (
            _dedup([self.edges[i].src for i in ids]),
            _dedup([self.edges[i].dst for i in ids]),
        )


# ----------------------------------------------------------------------
# per-handle traversal reference (repro.algorithms.traversal before CSR)
# ----------------------------------------------------------------------
PAG = Vertex = Edge = Any  # annotations only: the code below is duck-typed
EdgePredicate = Callable[[Any], bool]


def _neighbors(pag: PAG, vid: int, direction: str, edge_ok: Optional[EdgePredicate]):
    if direction not in ("out", "in", "both"):
        raise ValueError(f"invalid direction {direction!r}")
    if direction in ("out", "both"):
        for e in pag.out_edges(vid):
            if edge_ok is None or edge_ok(e):
                yield e.dst_id, e
    if direction in ("in", "both"):
        for e in pag.in_edges(vid):
            if edge_ok is None or edge_ok(e):
                yield e.src_id, e


def bfs(
    pag: PAG,
    sources: Iterable[Vertex],
    direction: str = "out",
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Iterator[Vertex]:
    """Breadth-first search from ``sources``; yields visited vertices
    (sources first) in discovery order."""
    queue = deque()
    seen: Set[int] = set()
    for v in sources:
        if v.id not in seen:
            seen.add(v.id)
            queue.append((v.id, 0))
            yield v
    while queue:
        vid, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        for nid, _e in _neighbors(pag, vid, direction, edge_ok):
            if nid not in seen:
                seen.add(nid)
                queue.append((nid, depth + 1))
                yield pag.vertex(nid)


def dfs_preorder(
    pag: PAG,
    source: Vertex,
    direction: str = "out",
    edge_ok: Optional[EdgePredicate] = None,
) -> Iterator[Vertex]:
    """Depth-first pre-order from ``source`` (iterative; graph-safe)."""
    stack = [source.id]
    seen: Set[int] = set()
    while stack:
        vid = stack.pop()
        if vid in seen:
            continue
        seen.add(vid)
        yield pag.vertex(vid)
        nxt = [nid for nid, _e in _neighbors(pag, vid, direction, edge_ok)]
        # reversed: visit in natural adjacency order
        stack.extend(reversed([n for n in nxt if n not in seen]))


def topological_order(
    pag: PAG, edge_ok: Optional[EdgePredicate] = None
) -> List[int]:
    """Kahn topological order of vertex ids.

    Raises ``ValueError`` on cycles — PAG views are DAGs by construction
    (tree + forward flow/comm edges), so a cycle indicates a malformed
    graph.
    """
    n = pag.num_vertices
    indeg = [0] * n
    for e in pag.edges():
        if edge_ok is None or edge_ok(e):
            indeg[e.dst_id] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    order: List[int] = []
    while queue:
        vid = queue.popleft()
        order.append(vid)
        for nid, _e in _neighbors(pag, vid, "out", edge_ok):
            indeg[nid] -= 1
            if indeg[nid] == 0:
                queue.append(nid)
    if len(order) != n:
        raise ValueError("graph contains a cycle under the given edge filter")
    return order


def ancestors(
    pag: PAG,
    v: Vertex,
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Set[int]:
    """Ids of vertices that can reach ``v`` (excluding ``v``)."""
    out = {u.id for u in bfs(pag, [v], "in", edge_ok, max_depth)}
    out.discard(v.id)
    return out


def descendants(
    pag: PAG,
    v: Vertex,
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Set[int]:
    """Ids of vertices reachable from ``v`` (excluding ``v``)."""
    out = {u.id for u in bfs(pag, [v], "out", edge_ok, max_depth)}
    out.discard(v.id)
    return out


# ----------------------------------------------------------------------
# per-handle critical path reference (repro.algorithms.critical_path)
# ----------------------------------------------------------------------
def default_vertex_weight(v: Vertex) -> float:
    time = v["time"] or 0.0
    wait = v["wait"] or 0.0
    return max(0.0, float(time) - float(wait))


def critical_path(
    pag: PAG,
    vertex_weight: Callable[[Vertex], float] = default_vertex_weight,
    edge_weight: Optional[Callable[[Edge], float]] = None,
    edge_ok: Optional[EdgePredicate] = None,
) -> Tuple[List[Vertex], List[Edge], float]:
    """Longest weighted path through the DAG.

    Returns ``(vertices, edges, total_weight)`` with vertices in path
    order.  Ties are broken deterministically by predecessor id.
    """
    order = topological_order(pag, edge_ok)
    n = pag.num_vertices
    best = [0.0] * n
    pred_edge: List[Optional[Edge]] = [None] * n
    for vid in order:
        best[vid] += vertex_weight(pag.vertex(vid))
        for e in pag.out_edges(vid):
            if edge_ok is not None and not edge_ok(e):
                continue
            w = edge_weight(e) if edge_weight else 0.0
            cand = best[vid] + w
            d = e.dst_id
            if cand > best[d] or (
                cand == best[d]
                and pred_edge[d] is not None
                and e.src_id < pred_edge[d].src_id
            ):
                best[d] = cand
                pred_edge[d] = e

    if n == 0:
        return [], [], 0.0
    end = max(range(n), key=lambda vid: (best[vid], -vid))
    # walk back
    edges: List[Edge] = []
    vertices: List[Vertex] = [pag.vertex(end)]
    vid = end
    while pred_edge[vid] is not None:
        e = pred_edge[vid]
        edges.append(e)
        vid = e.src_id
        vertices.append(pag.vertex(vid))
    vertices.reverse()
    edges.reverse()
    return vertices, edges, best[end]
