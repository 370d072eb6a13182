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

The third part does the same for the matching and LCA kernels
(``repro.algorithms.subgraph`` / ``.lca`` and the ``causal_analysis``
pair loop around the latter) — ``test_matching_kernels.py`` — and the
next keeps the dense ``embed_samples`` that allocated one row per
top-down vertex, for ``test_embedding_views.py``.

The last part is the run -> PAG substrate as it was before lowering,
for ``test_runtime_lowering.py``: the per-node interpreter (one
generator per IR node visit, ``evaluate`` on every attribute) with its
``run_program``, the static expander that called ``add_vertex`` /
``add_edge`` per vertex, the Table 2 structure padding built node by
node (one ``Function`` per filler), the parallel view that wrote
per-unit data one vertex handle at a time and added one edge per event,
and column padding that grew one list element per row.
"""

from __future__ import annotations

import fnmatch
import itertools
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.ir.context import ExecContext, evaluate
from repro.ir.model import (
    Branch,
    Call,
    CallTarget,
    CommCall,
    CommOp,
    Function,
    Loop,
    Program,
    Stmt,
    ThreadCall,
    ThreadOp,
)
from repro.pag.edge import CommKind, EdgeLabel
from repro.pag.vertex import CallKind, VertexLabel
from repro.runtime.engine import (
    CollReq,
    Completion,
    Engine,
    FinishReq,
    JoinReq,
    LockReq,
    RecvReq,
    SendReq,
    SpawnReq,
    WaitReq,
)
from repro.runtime.machine import MachineModel
from repro.runtime.records import RunResult
from repro.runtime.tracer import Tracer


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


# ----------------------------------------------------------------------
# per-handle subgraph matcher reference (repro.algorithms.subgraph)
# ----------------------------------------------------------------------
# Reads a real ``PatternGraph`` through ``_vertices`` (key -> object with
# ``label``/``call_kind``/``name``/``predicate``) and ``_edges`` (objects
# with ``src``/``dst``/``label``/``predicate``) only; the search order is
# part of the result contract, so it is copied here too.
def _pv_matches(pv: Any, v: Vertex) -> bool:
    if pv.label is not None and v.label is not pv.label:
        return False
    if pv.call_kind is not None and v.call_kind is not pv.call_kind:
        return False
    if pv.name is not None and not fnmatch.fnmatchcase(v.name, pv.name):
        return False
    if pv.predicate is not None and not pv.predicate(v):
        return False
    return True


def _pe_matches(pe: Any, e: Edge) -> bool:
    if pe.label is not None and e.label is not pe.label:
        return False
    if pe.predicate is not None and not pe.predicate(e):
        return False
    return True


def _pattern_adjacency(pattern: Any):
    out_adj: Dict[Any, List[Any]] = {k: [] for k in pattern._vertices}
    in_adj: Dict[Any, List[Any]] = {k: [] for k in pattern._vertices}
    for pe in pattern._edges:
        out_adj[pe.src].append(pe)
        in_adj[pe.dst].append(pe)
    return out_adj, in_adj


def _pattern_search_order(pattern: Any) -> List[Any]:
    """Connected-first ordering: each vertex after the first shares an
    edge with an earlier one when possible (cuts the search space)."""
    out_adj, in_adj = _pattern_adjacency(pattern)
    degree = {k: len(out_adj[k]) + len(in_adj[k]) for k in pattern._vertices}
    order: List[Any] = []
    placed = set()
    remaining = set(pattern._vertices)
    while remaining:
        connected = [
            k
            for k in remaining
            if any(pe.dst in placed for pe in out_adj[k])
            or any(pe.src in placed for pe in in_adj[k])
        ]
        pool = connected or list(remaining)
        # highest degree first (the anchor of the search is the most
        # constrained vertex); ties resolved by key string ascending
        nxt = sorted(pool, key=lambda k: (-degree[k], str(k)))[0]
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    return order


def subgraph_matching(
    pag: PAG,
    pattern: Any,
    candidates: Optional[Iterable[Vertex]] = None,
    limit: Optional[int] = None,
) -> List[Tuple[Dict[Any, Vertex], List[Edge]]]:
    """All embeddings of ``pattern`` in ``pag`` as ``(vertices, edges)``
    pairs (the fields of the kernel's ``Embedding``).

    One deliberate difference from the code as it shipped: ``limit=0``
    returns ``[]`` (the shipped loop tested the cap only after the first
    append and returned one embedding).
    """
    order = _pattern_search_order(pattern)
    if not order or (limit is not None and limit <= 0):
        return []
    out_adj, in_adj = _pattern_adjacency(pattern)
    results: List[Tuple[Dict[Any, Vertex], List[Edge]]] = []

    anchor_pool: Iterable[Vertex]
    pv0 = pattern._vertices[order[0]]
    if candidates is not None:
        anchor_pool = [v for v in candidates if _pv_matches(pv0, v)]
    else:
        anchor_pool = (v for v in pag.vertices() if _pv_matches(pv0, v))

    def candidates_for(key: Any, mapping: Dict[Any, Vertex]) -> Iterator[Vertex]:
        """Data vertices adjacent to already-mapped pattern neighbors."""
        pv = pattern._vertices[key]
        pools: List[List[Vertex]] = []
        for pe in out_adj[key]:
            if pe.dst in mapping:
                pool = [
                    e.src
                    for e in pag.in_edges(mapping[pe.dst].id)
                    if _pe_matches(pe, e)
                ]
                pools.append(pool)
        for pe in in_adj[key]:
            if pe.src in mapping:
                pool = [
                    e.dst
                    for e in pag.out_edges(mapping[pe.src].id)
                    if _pe_matches(pe, e)
                ]
                pools.append(pool)
        if not pools:
            yield from (v for v in pag.vertices() if _pv_matches(pv, v))
            return
        base = min(pools, key=len)
        other_ids = [{v.id for v in p} for p in pools if p is not base]
        for v in base:
            if _pv_matches(pv, v) and all(v.id in ids for ids in other_ids):
                yield v

    def check_edges(key: Any, v: Vertex, mapping: Dict[Any, Vertex]) -> Optional[List[Edge]]:
        """Verify every pattern edge between ``key`` and mapped keys."""
        matched: List[Edge] = []
        for pe in out_adj[key]:
            if pe.dst in mapping:
                hits = [
                    e
                    for e in pag.out_edges(v.id)
                    if e.dst_id == mapping[pe.dst].id and _pe_matches(pe, e)
                ]
                if not hits:
                    return None
                matched.append(hits[0])
        for pe in in_adj[key]:
            if pe.src in mapping:
                hits = [
                    e
                    for e in pag.in_edges(v.id)
                    if e.src_id == mapping[pe.src].id and _pe_matches(pe, e)
                ]
                if not hits:
                    return None
                matched.append(hits[0])
        return matched

    def backtrack(idx: int, mapping: Dict[Any, Vertex], edges: List[Edge]) -> bool:
        """Returns True when the embedding limit is reached."""
        if idx == len(order):
            results.append((dict(mapping), list(edges)))
            return limit is not None and len(results) >= limit
        key = order[idx]
        used = {v.id for v in mapping.values()}
        pool = anchor_pool if idx == 0 else candidates_for(key, mapping)
        for v in pool:
            if v.id in used:
                continue
            matched = check_edges(key, v, mapping)
            if matched is None:
                continue
            mapping[key] = v
            if backtrack(idx + 1, mapping, edges + matched):
                return True
            del mapping[key]
        return False

    backtrack(0, {}, [])
    return results


# ----------------------------------------------------------------------
# per-handle LCA reference (repro.algorithms.lca) and the causal pair loop
# ----------------------------------------------------------------------
def _ancestor_depths(
    pag: PAG, v: Vertex, edge_ok: Optional[EdgePredicate]
) -> Dict[int, Tuple[int, Optional[Edge]]]:
    """BFS upward from ``v``: ancestor id -> (hop distance, edge taken).

    The recorded edge is the one leading from the ancestor toward ``v``
    on a shortest hop path, enough to reconstruct a propagation path.
    """
    out: Dict[int, Tuple[int, Optional[Edge]]] = {v.id: (0, None)}
    queue = deque([v.id])
    while queue:
        vid = queue.popleft()
        dist = out[vid][0]
        for e in pag.in_edges(vid):
            if edge_ok is not None and not edge_ok(e):
                continue
            if e.src_id not in out:
                out[e.src_id] = (dist + 1, e)
                queue.append(e.src_id)
    return out


def _path_down(
    anc: Dict[int, Tuple[int, Optional[Edge]]], start: int
) -> List[Edge]:
    """Reconstruct the edge path from ``start`` down to the BFS origin."""
    path: List[Edge] = []
    vid = start
    while True:
        _dist, edge = anc[vid]
        if edge is None:
            break
        path.append(edge)
        vid = edge.dst_id
    return path


def lowest_common_ancestor(
    pag: PAG,
    v: Vertex,
    w: Vertex,
    edge_ok: Optional[EdgePredicate] = None,
) -> Tuple[Optional[Vertex], List[Edge]]:
    """Deepest common ancestor of ``v`` and ``w`` and the connecting path."""
    if v.id == w.id:
        return v, []
    anc_v = _ancestor_depths(pag, v, edge_ok)
    anc_w = _ancestor_depths(pag, w, edge_ok)
    common = set(anc_v) & set(anc_w)
    common.discard(v.id)
    common.discard(w.id)
    # One input being the other's ancestor is the degenerate causal case:
    # report the ancestor itself.
    if w.id in anc_v:
        return pag.vertex(w.id), _path_down(anc_v, w.id)
    if v.id in anc_w:
        return pag.vertex(v.id), _path_down(anc_w, v.id)
    if not common:
        return None, []
    best = min(common, key=lambda a: (anc_v[a][0] + anc_w[a][0], a))
    path = _path_down(anc_v, best) + _path_down(anc_w, best)
    return pag.vertex(best), path


def causal_analysis(
    V: Any,
    edge_ok: Optional[EdgePredicate] = None,
    restrict_to_input: bool = False,
    localize: bool = True,
    max_pairs: int = 2000,
) -> Tuple[List[int], List[List[str]], List[Edge]]:
    """``repro.passes.causal.causal_analysis``'s pair loop, one LCA call
    (two upward searches) per pair: ``(cause ids, their ``causes``
    column, path edges with repeats)``."""
    from repro.passes.causal import _localize

    pag = V.pag
    if pag is None:
        return [], [], []
    items: List[Vertex] = V.to_list()
    scanned = set()
    causes: Dict[int, List[str]] = {}  # ancestor id -> affected descendants
    path_edges = []
    pairs = 0
    input_ids = {v.id for v in items}
    for i, v1 in enumerate(items):
        for v2 in items[i + 1 :]:
            if v1.id == v2.id or v1.id in scanned or v2.id in scanned:
                continue
            if pairs >= max_pairs:
                break
            pairs += 1
            anc, path = lowest_common_ancestor(pag, v1, v2, edge_ok)
            if anc is None:
                continue
            scanned.add(v1.id)
            scanned.add(v2.id)
            if restrict_to_input and anc.id not in input_ids:
                continue
            if localize:
                anc = _localize(pag, anc)
            affected = causes.setdefault(anc.id, [])
            for desc in (v1, v2):
                tag = f"{desc.name}@{desc['debug-info']}"
                if tag not in affected:
                    affected.append(tag)
            path_edges.extend(path)
    return list(causes), list(causes.values()), path_edges


# ----------------------------------------------------------------------
# dense embedding reference (repro.pag.embedding.embed_samples)
# ----------------------------------------------------------------------
def embed_samples(
    static_result: Any,
    run: Any,
    pmu_rates: Optional[Dict[str, float]] = None,
) -> PAG:
    """Embed a run's performance data into the top-down view, holding
    one ``nprocs``-wide row per top-down vertex while it adds up."""
    from repro.pag.columns import _np_view
    from repro.pag.vertex import CALLKIND_CODE, VLABEL_CODE
    from repro.runtime.sampler import DEFAULT_PMU_RATES

    rates = dict(pmu_rates or DEFAULT_PMU_RATES)
    pag = static_result.pag
    nprocs = run.nprocs
    nv = pag.num_vertices
    excl = np.zeros(nv)
    wait = np.zeros(nv)
    counts = np.zeros(nv, dtype=np.int64)
    nbytes = np.zeros(nv)
    excl_per_rank = np.zeros((nv, nprocs))
    wait_per_rank = np.zeros((nv, nprocs))
    bytes_per_rank = np.zeros((nv, nprocs))

    unresolved = 0
    for path, per_unit in run.vertex_stats.items():
        v = static_result.vertex_for_path(path)
        if v is None:
            unresolved += 1
            continue
        vid = v.id
        for (rank, _thread), stat in per_unit.items():
            excl[vid] += stat.time
            wait[vid] += stat.wait
            counts[vid] += stat.count
            nbytes[vid] += stat.nbytes
            excl_per_rank[vid, rank] += stat.time
            wait_per_rank[vid, rank] += stat.wait
            bytes_per_rank[vid, rank] += stat.nbytes

    # Bottom-up inclusive aggregation.  Vertex ids are assigned in
    # pre-order by the static expander, so iterating ids in reverse visits
    # children before parents; each tree vertex has exactly one parent.
    incl = excl.copy()
    incl_per_rank = excl_per_rank.copy()
    wait_incl = wait.copy()
    wait_incl_per_rank = wait_per_rank.copy()
    parent = np.full(nv, -1, dtype=np.int64)
    if pag.num_edges:
        parent[_np_view(pag._e_dst, np.int64)] = _np_view(pag._e_src, np.int64)
    for vid in range(nv - 1, 0, -1):
        p = parent[vid]
        if p >= 0:
            incl[p] += incl[vid]
            incl_per_rank[p] += incl_per_rank[vid]
            wait_incl[p] += wait_incl[vid]
            wait_incl_per_rank[p] += wait_incl_per_rank[vid]

    # Bulk write-out: scalar metrics land in typed columns in one pass,
    # per-rank vectors and comm-info stay per-row in the spill column.
    rows = np.nonzero((incl != 0.0) | (counts != 0))[0]
    vp = pag._vprops
    vp.set_numeric_bulk("time", rows, incl[rows])
    vp.set_numeric_bulk("excl_time", rows, excl[rows])
    vp.set_numeric_bulk("wait", rows, wait_incl[rows])
    vp.set_numeric_bulk("count", rows, counts[rows], integer=True)
    vp.set_obj_bulk("time_per_rank", rows, (incl_per_rank[r].copy() for r in rows))
    vp.set_obj_bulk(
        "wait_per_rank", rows, (wait_incl_per_rank[r].copy() for r in rows)
    )
    if len(rows):
        is_comm = (
            _np_view(pag._v_label, np.int8) == VLABEL_CODE[VertexLabel.CALL]
        ) & (_np_view(pag._v_kind, np.int8) == CALLKIND_CODE[CallKind.COMM])
        comm_rows = rows[is_comm[rows]]
        vp.set_obj_bulk(
            "comm-info", comm_rows, ({"bytes": float(nbytes[r])} for r in comm_rows)
        )
        vp.set_obj_bulk(
            "bytes_per_rank", comm_rows, (bytes_per_rank[r].copy() for r in comm_rows)
        )
        compute_time = excl - wait
        pmu_rows = rows[compute_time[rows] > 0]
        for name, rate in rates.items():
            vp.set_numeric_bulk(name, pmu_rows, compute_time[pmu_rows] * rate)

    pag.metadata["nprocs"] = nprocs
    pag.metadata["nthreads"] = run.nthreads
    pag.metadata["elapsed"] = run.elapsed
    pag.metadata["unresolved_contexts"] = unresolved
    return pag


# ----------------------------------------------------------------------
# per-node interpreter reference (repro.runtime.interpreter before lowering)
# ----------------------------------------------------------------------
# One deliberate edit against the code as it shipped: a Wait whose named
# requests have nothing outstanding completes at once (MPI_REQUEST_NULL).
# The shipped loop sent the engine an empty label tuple, which the engine
# reads as "every outstanding request", so the Wait took unrelated
# requests and the interpreter's bookkeeping fell out of step.
_COLLECTIVES = {
    CommOp.BARRIER,
    CommOp.BCAST,
    CommOp.REDUCE,
    CommOp.ALLREDUCE,
    CommOp.ALLGATHER,
    CommOp.ALLTOALL,
}
MALLOC_LOCK = "__malloc__"


class UnitInterpreter:
    """Interprets IR for one execution unit (rank, thread)."""

    def __init__(
        self,
        program: Program,
        result: RunResult,
        tracer: Tracer,
        rank: int,
        thread: int,
        nthreads: int,
        start_clock: float = 0.0,
    ) -> None:
        self.program = program
        self.result = result
        self.tracer = tracer
        self.rank = rank
        self.thread = thread
        self.nthreads = nthreads
        self.clock = start_clock
        self._label_counter = itertools.count()
        #: user request label -> outstanding engine labels
        self._outstanding: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """Top-level generator for a rank's main thread."""
        ctx = ExecContext(
            rank=self.rank,
            nprocs=self.result.nprocs,
            thread=self.thread,
            nthreads=self.nthreads,
            params=self.result.params,
        )
        entry = self.program.entry_function
        path: Path = (f"f:{entry.name}",)
        yield from self._exec_body(entry.body, path, ctx)
        yield FinishReq(t=self.clock)

    def run_body(self, body: Sequence[Node], path: Path, ctx: ExecContext) -> Generator:
        """Top-level generator for a spawned thread executing ``body``."""
        yield from self._exec_body(body, path, ctx)
        yield FinishReq(t=self.clock)

    # ------------------------------------------------------------------
    def _record(self, path: Path, time: float, wait: float = 0.0, nbytes: float = 0.0, count: int = 1) -> None:
        self.result.stat(path, self.rank, self.thread).add(time, wait, nbytes, count)

    def _exec_body(self, body: Sequence[Node], path: Path, ctx: ExecContext) -> Generator:
        for node in body:
            yield from self._exec_node(node, path + (node.uid,), ctx)

    def _exec_node(self, node: Node, path: Path, ctx: ExecContext) -> Generator:
        if isinstance(node, Stmt):
            cost = float(evaluate(node.cost, ctx))
            self.clock += cost
            self._record(path, cost)
        elif isinstance(node, Loop):
            trips = int(evaluate(node.trips, ctx))
            self._record(path, 0.0, count=trips)
            for i in range(trips):
                yield from self._exec_body(node.body, path, ctx.push_iteration(i))
        elif isinstance(node, Branch):
            taken = bool(node.condition(ctx))
            self._record(path, 0.0)
            body = node.then_body if taken else node.else_body
            yield from self._exec_body(body, path, ctx)
        elif isinstance(node, Call):
            yield from self._exec_call(node, path, ctx)
        elif isinstance(node, CommCall):
            yield from self._exec_comm(node, path, ctx)
        elif isinstance(node, ThreadCall):
            yield from self._exec_thread(node, path, ctx)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown IR node {type(node).__name__}")

    # -- calls ---------------------------------------------------------------
    def _exec_call(self, node: Call, path: Path, ctx: ExecContext) -> Generator:
        if node.target is CallTarget.EXTERNAL:
            cost = float(evaluate(node.cost, ctx))
            self.clock += cost
            self._record(path, cost)
            return
        callee = evaluate(node.callee, ctx)
        if node.target is CallTarget.INDIRECT:
            self.tracer.record_indirect(node.uid, callee)
        if callee not in self.program.functions:
            # Body absent from the model: treat as opaque external work.
            cost = float(evaluate(node.cost, ctx))
            self.clock += cost
            self._record(path, cost)
            return
        self._record(path, 0.0)
        func = self.program.function(callee)
        fpath = path + (f"f:{callee}",)
        self._record(fpath, 0.0)
        yield from self._exec_body(func.body, fpath, ctx)

    # -- communication --------------------------------------------------------
    def _exec_comm(self, node: CommCall, path: Path, ctx: ExecContext) -> Generator:
        if self.thread != 0:
            raise RuntimeError(
                f"{node.name} issued from thread {self.thread}; the simulator "
                "models MPI_THREAD_FUNNELED (MPI from thread 0 only)"
            )
        t0 = self.clock
        op = node.op
        nbytes = float(evaluate(node.nbytes, ctx))
        if op in _COLLECTIVES:
            completion = yield CollReq(
                t=t0, path=path, op=op, nbytes=nbytes, root=node.root
            )
        elif op is CommOp.SEND:
            peer = int(evaluate(node.peer, ctx))
            completion = yield SendReq(
                t=t0, path=path, dst=peer, tag=node.tag, nbytes=nbytes, blocking=True
            )
        elif op is CommOp.RECV:
            peer = int(evaluate(node.peer, ctx))
            completion = yield RecvReq(
                t=t0, path=path, src=peer, tag=node.tag, nbytes=nbytes, blocking=True
            )
        elif op is CommOp.ISEND:
            peer = int(evaluate(node.peer, ctx))
            label = self._fresh(node.req or "isend")
            completion = yield SendReq(
                t=t0, path=path, dst=peer, tag=node.tag, nbytes=nbytes,
                blocking=False, label=label,
            )
        elif op is CommOp.IRECV:
            peer = int(evaluate(node.peer, ctx))
            label = self._fresh(node.req or "irecv")
            completion = yield RecvReq(
                t=t0, path=path, src=peer, tag=node.tag, nbytes=nbytes,
                blocking=False, label=label,
            )
        elif op in (CommOp.WAIT, CommOp.WAITALL):
            labels = self._collect_labels(node.requests)
            if labels:
                completion = yield WaitReq(t=t0, path=path, labels=labels, op=op)
            else:  # the deliberate edit: nothing outstanding, nothing to wait for
                completion = Completion(t0)
        elif op is CommOp.SENDRECV:
            # Deadlock-free exchange: isend + irecv + waitall.  The receive
            # side defaults to the destination (symmetric pairwise swap) but
            # honors an explicit `source` for ring shifts.
            peer = int(evaluate(node.peer, ctx))
            src = peer if node.source is None else int(evaluate(node.source, ctx))
            ls = self._fresh("srs")
            lr = self._fresh("srr")
            completion = yield SendReq(
                t=self.clock, path=path, dst=peer, tag=node.tag, nbytes=nbytes,
                blocking=False, label=ls,
            )
            self.clock = completion.t
            completion = yield RecvReq(
                t=self.clock, path=path, src=src % self.result.nprocs, tag=node.tag,
                nbytes=nbytes, blocking=False, label=lr,
            )
            self.clock = completion.t
            completion = yield WaitReq(
                t=self.clock, path=path, labels=(ls, lr), op=CommOp.WAITALL
            )
            self._drop_labels((ls, lr))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unhandled comm op {op}")
        self.clock = completion.t
        if op in (CommOp.WAIT, CommOp.WAITALL):
            self._drop_labels(labels)
        self._record(path, self.clock - t0, wait=completion.wait, nbytes=nbytes)

    def _fresh(self, user_label: str) -> str:
        label = f"{user_label}#{next(self._label_counter)}"
        self._outstanding.setdefault(user_label, []).append(label)
        return label

    def _collect_labels(self, user_labels: Sequence[str]) -> Tuple[str, ...]:
        if not user_labels:
            # Wait for everything outstanding.
            labels = tuple(
                lab for labs in self._outstanding.values() for lab in labs
            )
            return labels
        out: List[str] = []
        for ul in user_labels:
            out.extend(self._outstanding.get(ul, []))
        return tuple(out)

    def _drop_labels(self, labels: Sequence[str]) -> None:
        done = set(labels)
        for ul in list(self._outstanding):
            remaining = [lab for lab in self._outstanding[ul] if lab not in done]
            if remaining:
                self._outstanding[ul] = remaining
            else:
                del self._outstanding[ul]

    # -- threads ----------------------------------------------------------------
    def _exec_thread(self, node: ThreadCall, path: Path, ctx: ExecContext) -> Generator:
        t0 = self.clock
        if node.op is ThreadOp.CREATE:
            count = int(evaluate(node.count, ctx))
            nthreads = max(count, 1)

            def make_factory(body: Sequence[Node]):
                def factory(tid: int, t_start: float) -> Generator:
                    child = UnitInterpreter(
                        self.program, self.result, self.tracer,
                        self.rank, tid, nthreads, start_clock=t_start,
                    )
                    child_ctx = ctx.with_thread(tid, nthreads)
                    return child.run_body(body, path, child_ctx)

                return factory

            completion = yield SpawnReq(
                t=t0, path=path, factories=[make_factory(node.body) for _ in range(count)]
            )
            self.clock = completion.t
            self._record(path, self.clock - t0, count=count)
        elif node.op is ThreadOp.JOIN:
            completion = yield JoinReq(t=t0, path=path)
            self.clock = completion.t
            self._record(path, self.clock - t0, wait=completion.wait)
        elif node.op in (ThreadOp.MUTEX_LOCK, ThreadOp.ALLOC, ThreadOp.REALLOC, ThreadOp.DEALLOC):
            hold = float(evaluate(node.hold, ctx))
            lock = node.lock or (MALLOC_LOCK if node.op is not ThreadOp.MUTEX_LOCK else "mutex")
            completion = yield LockReq(t=t0, path=path, lock=lock, hold=hold, op=node.op)
            self.clock = completion.t
            self._record(path, self.clock - t0, wait=completion.wait)
        elif node.op is ThreadOp.MUTEX_UNLOCK:
            # Lock release is folded into MUTEX_LOCK's hold; the engine
            # does not block on an explicit unlock.
            self._record(path, 0.0)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unhandled thread op {node.op}")


def run_program(
    program: Program,
    nprocs: int = 1,
    nthreads: int = 1,
    params: Optional[Dict[str, Any]] = None,
    machine: Optional[MachineModel] = None,
) -> RunResult:
    """``repro.runtime.run_program`` driving one :class:`UnitInterpreter`
    per rank (spans, metrics and logging left out)."""
    run_params = dict(params or {})
    run_params.setdefault("nthreads", nthreads)
    result = RunResult(program=program, nprocs=nprocs, nthreads=nthreads, params=run_params)
    tracer = Tracer()
    engine = Engine(nprocs, machine or MachineModel(), tracer)
    for rank in range(nprocs):
        interp = UnitInterpreter(program, result, tracer, rank=rank, thread=0, nthreads=nthreads)
        engine.add_unit(rank, 0, interp.run())
    result.per_rank_elapsed = engine.run()
    result.comm_events = tracer.comm_events
    result.lock_events = tracer.lock_events
    result.indirect_targets = tracer.indirect_targets
    return result


# ----------------------------------------------------------------------
# per-vertex expander reference (repro.ir.static_analysis._Expander)
# ----------------------------------------------------------------------
MAX_RECURSION_DEPTH = 2


class _Expander:
    """Walks the IR and emits top-down-view vertices/edges."""

    def __init__(self, program: Any, indirect_targets: Dict[int, Set[str]]):
        from repro.pag.graph import PAG as RealPAG

        self.program = program
        self.indirect_targets = indirect_targets
        self.pag = RealPAG(
            f"{program.name}/top-down",
            {"view": "top-down", "program": program.name},
        )
        self.path_to_vertex: Dict[Path, int] = {}
        self.unresolved: List[int] = []

    # -- helpers -----------------------------------------------------------
    def _add(
        self,
        path: Path,
        label: VertexLabel,
        name: str,
        parent: Optional[Any],
        edge_label: EdgeLabel,
        call_kind: Optional[CallKind] = None,
        line: int = 0,
        source_file: str = "",
    ) -> Any:
        v = self.pag.add_vertex(
            label,
            name,
            call_kind,
            {"debug-info": f"{source_file}:{line}" if source_file else f"line:{line}"},
        )
        self.path_to_vertex[path] = v.id
        if parent is not None:
            self.pag.add_edge(parent, v, edge_label)
        return v

    # -- expansion -----------------------------------------------------------
    def expand_function(
        self,
        fname: str,
        path: Path,
        parent: Optional[Any],
        call_chain: Tuple[str, ...],
    ) -> Any:
        func = self.program.function(fname)
        fpath = path + (f"f:{fname}",)
        fv = self._add(
            fpath,
            VertexLabel.FUNCTION,
            fname,
            parent,
            EdgeLabel.INTER_PROCEDURAL,
            line=func.line,
            source_file=func.source_file,
        )
        self.expand_body(func.body, fpath, fv, func, call_chain + (fname,), loop_prefix="")
        return fv

    def expand_body(
        self,
        body: Sequence[Any],
        path: Path,
        parent: Vertex,
        func: Any,
        call_chain: Tuple[str, ...],
        loop_prefix: str,
    ) -> None:
        loop_index = 0
        for node in body:
            npath = path + (node.uid,)
            if isinstance(node, Loop):
                loop_index += 1
                name = node.name or (
                    f"loop_{loop_prefix}{loop_index}" if not loop_prefix
                    else f"loop_{loop_prefix}.{loop_index}"
                )
                # The hierarchical numbering in names like "loop_10.1"
                # concatenates ancestor loop ordinals within the function.
                inner_prefix = (
                    f"{loop_prefix}.{loop_index}" if loop_prefix else str(loop_index)
                )
                lv = self._add(
                    npath, VertexLabel.LOOP, name, parent,
                    EdgeLabel.INTRA_PROCEDURAL, line=node.line,
                    source_file=func.source_file,
                )
                self.expand_body(node.body, npath, lv, func, call_chain, inner_prefix)
            elif isinstance(node, Branch):
                name = node.name or "branch"
                bv = self._add(
                    npath, VertexLabel.BRANCH, name, parent,
                    EdgeLabel.INTRA_PROCEDURAL, line=node.line,
                    source_file=func.source_file,
                )
                self.expand_body(
                    list(node.then_body) + list(node.else_body),
                    npath, bv, func, call_chain, loop_prefix,
                )
            elif isinstance(node, Stmt):
                self._add(
                    npath, VertexLabel.INSTRUCTION, node.name, parent,
                    EdgeLabel.INTRA_PROCEDURAL, line=node.line,
                    source_file=func.source_file,
                )
            elif isinstance(node, CommCall):
                self._add(
                    npath, VertexLabel.CALL, node.name, parent,
                    EdgeLabel.INTRA_PROCEDURAL, CallKind.COMM,
                    line=node.line, source_file=func.source_file,
                )
            elif isinstance(node, ThreadCall):
                tv = self._add(
                    npath, VertexLabel.CALL, node.name, parent,
                    EdgeLabel.INTRA_PROCEDURAL, CallKind.THREAD,
                    line=node.line, source_file=func.source_file,
                )
                if node.op is ThreadOp.CREATE and node.body:
                    self.expand_body(node.body, npath, tv, func, call_chain, loop_prefix)
            elif isinstance(node, Call):
                self._expand_call(node, npath, parent, func, call_chain)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown IR node type {type(node).__name__}")

    def _expand_call(
        self,
        node: Any,
        npath: Path,
        parent: Vertex,
        func: Any,
        call_chain: Tuple[str, ...],
    ) -> None:
        if node.target is CallTarget.EXTERNAL:
            self._add(
                npath, VertexLabel.CALL, node.name, parent,
                EdgeLabel.INTRA_PROCEDURAL, CallKind.EXTERNAL,
                line=node.line, source_file=func.source_file,
            )
            return
        if node.target is CallTarget.INDIRECT:
            cv = self._add(
                npath, VertexLabel.CALL, node.name, parent,
                EdgeLabel.INTRA_PROCEDURAL, CallKind.INDIRECT,
                line=node.line, source_file=func.source_file,
            )
            targets = self.indirect_targets.get(node.uid, set())
            if not targets:
                self.unresolved.append(cv.id)
            for target in sorted(targets):
                if target in self.program.functions:
                    self.expand_function(target, npath, cv, call_chain)
            return
        # USER call: inline, cutting recursion at MAX_RECURSION_DEPTH.
        depth = call_chain.count(node.callee)
        kind = CallKind.RECURSIVE if depth > 0 else CallKind.USER
        cv = self._add(
            npath, VertexLabel.CALL, node.name, parent,
            EdgeLabel.INTRA_PROCEDURAL, kind,
            line=node.line, source_file=func.source_file,
        )
        if node.callee not in self.program.functions:
            # Modelled as external if the body is absent from the program.
            return
        if depth < MAX_RECURSION_DEPTH:
            self.expand_function(node.callee, npath, cv, call_chain)



def analyze(program: Any, indirect_targets: Optional[Dict[int, Set[str]]] = None) -> Any:
    """``repro.ir.static_analysis.analyze`` through ``add_vertex`` /
    ``add_edge``, one handle per vertex (timing fields left at zero)."""
    from repro.ir.static_analysis import StaticAnalysisResult

    exp = _Expander(program, indirect_targets or {})
    exp.expand_function(program.entry, (), None, ())
    return StaticAnalysisResult(
        pag=exp.pag, path_to_vertex=exp.path_to_vertex, unresolved_calls=exp.unresolved
    )


def pad_to_target(program: Any, target_vertices: int, source_file: str = "") -> Any:
    """``repro.apps._common.pad_to_target`` as it built the padding node
    by node: one registered ``Function`` of 8 ``Stmt`` per filler, one
    ``Call`` per filler and one ``Stmt`` per loose statement in an
    always-false ``Branch``."""
    if "__phase_0" in program.functions:
        return program  # already padded
    current = analyze(program).pag.num_vertices
    deficit = target_vertices - current
    if deficit <= 1:
        return program
    sf = source_file or program.entry_function.source_file
    body: List[Any] = []
    remaining = deficit - 1  # the branch vertex itself
    idx = 0
    while remaining >= 10:
        fname = f"__phase_{idx}"
        program.add_function(
            Function(
                fname,
                [Stmt(f"{fname}_s{j}", cost=0.0, line=1000 + idx * 16 + j) for j in range(8)],
                source_file=sf,
                line=1000 + idx * 16,
            )
        )
        body.append(Call(fname, line=900 + idx))
        remaining -= 10
        idx += 1
    for j in range(remaining):
        body.append(Stmt(f"__pad_s{j}", cost=0.0, line=990))
    branch = Branch(condition=lambda ctx: False, then_body=body, name="init_once", line=899)
    program.register_nodes([branch])
    program.entry_function.body.append(branch)
    return program


# ----------------------------------------------------------------------
# per-element parallel-view reference (repro.pag.views.build_parallel_view)
# ----------------------------------------------------------------------
def build_parallel_view(
    top_down: Any,
    static_result: Any,
    run: Any,
    max_ranks: Optional[int] = None,
    expand_threads: bool = False,
) -> Any:
    """The parallel view with per-unit data written one vertex handle at
    a time and one ``add_edge`` per event (flows tiled as shipped; spans
    and logging left out)."""
    from array import array

    from repro.pag.columns import NO_STRING, IntColumn, ObjColumn, StrColumn
    from repro.pag.edge import ELABEL_CODE, NO_KIND
    from repro.pag.graph import PAG as RealPAG

    nprocs = run.nprocs if max_ranks is None else min(run.nprocs, max_ranks)
    nthreads = run.nthreads + 1 if expand_threads else 1
    ntd = top_down.num_vertices
    pv = RealPAG(
        top_down.name.replace("/top-down", "") + "/parallel",
        {
            "view": "parallel",
            "program": top_down.metadata.get("program"),
            "nprocs": nprocs,
            "nthreads": nthreads,
        },
    )
    pv.strings = top_down.strings
    pv._vprops.strings = pv.strings
    pv._eprops.strings = pv.strings

    tree_parent: Dict[int, Tuple[int, int]] = {}
    td_esrc, td_edst, td_elab = top_down._e_src, top_down._e_dst, top_down._e_label
    for i in range(len(td_esrc)):
        tree_parent[td_edst[i]] = (td_esrc[i], td_elab[i])

    def flow_vid(td_vid: int, rank: int, thread: int) -> int:
        return (rank * nthreads + thread) * ntd + td_vid

    flows = nprocs * nthreads
    intra_code = ELABEL_CODE[EdgeLabel.INTRA_PROCEDURAL]
    flow_src = array("q")
    flow_dst = array("q")
    flow_lab = array("b")
    for td_vid in range(1, ntd):
        parent = tree_parent.get(td_vid)
        flow_src.append(td_vid - 1)
        flow_dst.append(td_vid)
        flow_lab.append(
            parent[1] if parent is not None and parent[0] == td_vid - 1 else intra_code
        )
    flow_kind = array("b", [NO_KIND]) * (ntd - 1)
    src_np = np.frombuffer(flow_src, dtype=np.int64) if ntd > 1 else None
    dst_np = np.frombuffer(flow_dst, dtype=np.int64) if ntd > 1 else None
    proc_col = IntColumn()
    thread_col = IntColumn()
    td_dbg = top_down.vs.values("debug-info")
    dbg_is_str = all(x is None or isinstance(x, str) for x in td_dbg)
    if dbg_is_str:
        dbg_template = array(
            "q",
            (pv.strings.intern(x) if x is not None else NO_STRING for x in td_dbg),
        )
        dbg_col: Any = StrColumn(pv.strings)
    else:
        dbg_col = ObjColumn()
    for rank in range(nprocs):
        for thread in range(nthreads):
            offset = (rank * nthreads + thread) * ntd
            pv._v_label.extend(top_down._v_label)
            pv._v_kind.extend(top_down._v_kind)
            pv._v_name.extend(top_down._v_name)
            proc_col.data.extend(array("q", [rank]) * ntd)
            thread_col.data.extend(array("q", [thread]) * ntd)
            if dbg_is_str:
                dbg_col.sids.extend(dbg_template)
            else:
                for td_vid, val in enumerate(td_dbg):
                    if val is not None:
                        dbg_col.cells[offset + td_vid] = val
            if ntd > 1:
                pv._e_src.frombytes((src_np + offset).tobytes())
                pv._e_dst.frombytes((dst_np + offset).tobytes())
                pv._e_label.extend(flow_lab)
                pv._e_kind.extend(flow_kind)
    proc_col.valid = bytearray(b"\x01" * (ntd * flows))
    thread_col.valid = bytearray(b"\x01" * (ntd * flows))
    pv._vprops.columns["process"] = proc_col
    pv._vprops.columns["thread"] = thread_col
    pv._vprops.columns["debug-info"] = dbg_col
    pv._vprops.add_rows(ntd * flows)
    pv._eprops.add_rows((ntd - 1) * flows if ntd > 1 else 0)

    for path, per_unit in run.vertex_stats.items():
        v = static_result.vertex_for_path(path)
        if v is None:
            continue
        for (rank, thread), stat in per_unit.items():
            if rank >= nprocs:
                continue
            tslot = thread if expand_threads and thread < nthreads else 0
            nv = pv.vertex(flow_vid(v.id, rank, tslot))
            nv["time"] = (nv["time"] or 0.0) + stat.time
            nv["wait"] = (nv["wait"] or 0.0) + stat.wait
            nv["count"] = (nv["count"] or 0) + stat.count

    def event_vid(path: Any, rank: int) -> Optional[int]:
        if path is None or rank < 0 or rank >= nprocs:
            return None
        v = static_result.vertex_for_path(path)
        if v is None:
            return None
        return flow_vid(v.id, rank, 0)

    for ev in run.comm_events:
        if ev.participants is not None:
            src = event_vid(ev.src_path, ev.src_rank)
            if src is None:
                continue
            for rank, path, _arrival, wait in ev.participants:
                if rank == ev.src_rank:
                    continue
                dst = event_vid(path, rank)
                if dst is None:
                    continue
                pv.add_edge(
                    src,
                    dst,
                    EdgeLabel.INTER_PROCESS,
                    CommKind.COLLECTIVE,
                    {"comm_time": ev.t_complete, "wait_time": wait, "comm_bytes": ev.nbytes},
                )
        else:
            src = event_vid(ev.src_path, ev.src_rank)
            dst = event_vid(ev.dst_path, ev.dst_rank)
            if src is None or dst is None:
                continue
            kind = CommKind.P2P_SYNC if ev.op.value == "MPI_Recv" else CommKind.P2P_ASYNC
            pv.add_edge(
                src,
                dst,
                EdgeLabel.INTER_PROCESS,
                kind,
                {
                    "comm_bytes": ev.nbytes,
                    "wait_time": ev.wait_time,
                    "comm_time": ev.t_complete,
                },
            )

    for lk in run.lock_events:
        if lk.rank >= nprocs:
            continue
        hv = static_result.vertex_for_path(lk.holder_path)
        wv = static_result.vertex_for_path(lk.waiter_path)
        if hv is None or wv is None:
            continue
        ht = lk.holder_thread if expand_threads and lk.holder_thread < nthreads else 0
        wt = lk.waiter_thread if expand_threads and lk.waiter_thread < nthreads else 0
        pv.add_edge(
            flow_vid(hv.id, lk.rank, ht),
            flow_vid(wv.id, lk.rank, wt),
            EdgeLabel.INTER_THREAD,
            properties={"wait_time": lk.wait_time, "lock": lk.lock},
        )
    return pv


def pad_to(column: Any, n: int) -> None:
    """``_TypedColumn._pad_to`` / ``StrColumn._pad_to`` as shipped: one
    list element per missing row."""
    from repro.pag.columns import NO_STRING, StrColumn

    if isinstance(column, StrColumn):
        short = n - len(column.sids)
        if short > 0:
            column._materialize()
            column.sids.extend([NO_STRING] * short)
        return
    short = n - len(column.data)
    if short > 0:
        column._materialize()
        column.data.extend([0] * short)
        column.valid.extend(b"\x00" * short)
