"""The Program Abstraction Graph container.

A :class:`PAG` is a directed multigraph with labeled, attributed vertices
and edges (paper §3.1).  It is the *environment* of every pass in a
PerFlowGraph: passes receive sets of its vertices/edges, run graph
algorithms on it, and emit new sets (§2.1).

Storage is struct-of-arrays: vertex labels/call-kinds and edge
endpoints/labels live in dense typed ``array`` buffers, names are
interned once in a shared :class:`~repro.pag.columns.StringTable`, and
properties live in typed columns (:mod:`repro.pag.columns`) with a
spill column for odd-typed values.  :class:`~repro.pag.vertex.Vertex`
and :class:`~repro.pag.edge.Edge` are flyweight handles over this
storage, so Table-2-scale graphs (10M+ vertices for LAMMPS's parallel
view at 128 ranks) cost a few dozen bytes per element instead of a full
Python object + dict.

The adjacency index is a CSR pair (``ptr``/``eids`` int64 arrays for
out- and in-edges) built lazily on first traversal access from a stable
argsort of the endpoint arrays, so set-algebra pipelines that never
walk edges (hotspot, imbalance) skip that cost entirely.  It is never
patched: structure is append-only, so an index whose element counts no
longer match the graph is stale and the next read rebuilds it.  Build
fully, then traverse.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.pag.columns import ColumnStore, StringTable, _np_view
from repro.pag.edge import (
    COMMKIND_CODE,
    ELABEL_CODE,
    ELABELS,
    CommKind,
    Edge,
    EdgeLabel,
)
from repro.pag.sets import CrossPAGError, EdgeSet, VertexSet
from repro.pag.vertex import (
    CALLKIND_CODE,
    NO_KIND,
    VLABEL_CODE,
    CallKind,
    Vertex,
    VertexLabel,
)

VertexRef = Union[int, Vertex]

#: Monotonic identity tokens — unlike ``id(pag)``, never reused after a
#: graph is garbage-collected.
_TOKENS = itertools.count()


def _csr_ptr(endpoints: np.ndarray, nv: int) -> np.ndarray:
    """Row pointers of edges grouped by ``endpoints``: vertex ``v``
    owns positions ``ptr[v]:ptr[v + 1]`` of the grouped edge list."""
    ptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=nv), out=ptr[1:])
    return ptr


def _csr_side(endpoints: np.ndarray, nv: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(ptr, eids)`` grouping edge ids by ``endpoints``: the edges of
    vertex ``v`` are ``eids[ptr[v]:ptr[v + 1]]``, ascending."""
    eids = np.argsort(endpoints, kind="stable")
    eids.setflags(write=False)  # slices of it are handed out as set ids
    return _csr_ptr(endpoints, nv), eids


class PAG:
    """A Program Abstraction Graph.

    Parameters
    ----------
    name:
        Human-readable identifier, usually the program name plus the view
        (e.g. ``"zeusmp/top-down"``).
    metadata:
        Free-form run information: ``view`` ("top-down" | "parallel"),
        ``nprocs``, ``nthreads``, ``program``, run parameters, …
    """

    def __init__(self, name: str = "pag", metadata: Optional[Dict[str, Any]] = None):
        self.name = name
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self.token = next(_TOKENS)
        self.strings = StringTable()
        # structural vertex columns
        self._v_label = array("b")
        self._v_kind = array("b")  # CallKind code, NO_KIND if none
        self._v_name = array("q")  # interned string id
        # structural edge columns
        self._e_src = array("q")
        self._e_dst = array("q")
        self._e_label = array("b")
        self._e_kind = array("b")  # CommKind code, NO_KIND if none
        # property columns
        self._vprops = ColumnStore(self.strings)
        self._eprops = ColumnStore(self.strings)
        # lazy adjacency: (nv, ne, (out_ptr, out_eids, in_ptr, in_eids))
        self._csr_cache: Optional[Tuple[int, int, Tuple[np.ndarray, ...]]] = None
        # out-of-core support: when loaded with load_pag(..., mmap=True)
        # the structural arrays above are read-only numpy views into an
        # mmap-ed file and this holds the keep-alive SegmentBacking;
        # _thaw_structure() promotes them to heap before any structural
        # mutation (property columns promote themselves per column)
        self._backing: Optional[Any] = None
        # fingerprint support: structural mutations not visible through
        # element counts or ColumnStore versions (vertex renames) bump
        # this counter; the cached content digest is keyed on all of them
        self._struct_version = 0
        self._fp_cache: Optional[Tuple[Tuple[int, ...], str]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    _STRUCT_ARRAYS = (
        ("_v_label", "b"),
        ("_v_kind", "b"),
        ("_v_name", "q"),
        ("_e_src", "q"),
        ("_e_dst", "q"),
        ("_e_label", "b"),
        ("_e_kind", "b"),
    )

    def _thaw_structure(self) -> None:
        """Promote mmap-backed structural arrays to heap before mutation.

        No-op for ordinary heap-owned graphs.  The backing file is never
        written through; property columns have their own per-column
        copy-on-write (:meth:`~repro.pag.columns._TypedColumn._materialize`).
        """
        if not isinstance(self._v_label, np.ndarray):
            return
        for attr, typecode in self._STRUCT_ARRAYS:
            heap = array(typecode)
            heap.frombytes(np.ascontiguousarray(getattr(self, attr)).tobytes())
            setattr(self, attr, heap)

    def add_vertex(
        self,
        label: VertexLabel,
        name: str,
        call_kind: Optional[CallKind] = None,
        properties: Optional[Dict[str, Any]] = None,
    ) -> Vertex:
        """Create a vertex and return it. Ids are dense and stable."""
        if label is not VertexLabel.CALL and call_kind is not None:
            raise ValueError("call_kind is only meaningful for CALL vertices")
        self._thaw_structure()
        vid = len(self._v_label)
        self._v_label.append(VLABEL_CODE[label])
        self._v_kind.append(NO_KIND if call_kind is None else CALLKIND_CODE[call_kind])
        self._v_name.append(self.strings.intern(name))
        self._vprops.add_rows(1)
        if properties:
            vset = self._vprops.set
            for key, value in properties.items():
                vset(vid, key, value)
        return Vertex._attached(self, vid)

    def _vid(self, ref: VertexRef) -> int:
        """Row id of ``ref``: an int as given, a handle only if this PAG minted it."""
        if not isinstance(ref, Vertex):
            return ref
        if ref._pag is not self:
            raise CrossPAGError(f"{ref!r} is a vertex of {ref._pag.name!r}, not of {self.name!r}")
        return ref.id

    def add_edge(
        self,
        src: VertexRef,
        dst: VertexRef,
        label: EdgeLabel,
        comm_kind: Optional[CommKind] = None,
        properties: Optional[Dict[str, Any]] = None,
    ) -> Edge:
        """Create a directed edge ``src -> dst`` and return it."""
        if label is not EdgeLabel.INTER_PROCESS and comm_kind is not None:
            raise ValueError("comm_kind is only meaningful for INTER_PROCESS edges")
        self._thaw_structure()
        sid, did = self._vid(src), self._vid(dst)
        nv = len(self._v_label)
        for vid in (sid, did):
            if not (0 <= vid < nv):
                raise KeyError(f"no vertex with id {vid}")
        eid = len(self._e_src)
        self._e_src.append(sid)
        self._e_dst.append(did)
        self._e_label.append(ELABEL_CODE[label])
        self._e_kind.append(NO_KIND if comm_kind is None else COMMKIND_CODE[comm_kind])
        self._eprops.add_rows(1)
        if properties:
            eset = self._eprops.set
            for key, value in properties.items():
                eset(eid, key, value)
        return Edge._attached(self, eid)

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def vertex(self, vid: int) -> Vertex:
        n = len(self._v_label)
        if vid < 0:
            vid += n
        if not (0 <= vid < n):
            raise IndexError("vertex id out of range")
        return Vertex._attached(self, vid)

    def edge(self, eid: int) -> Edge:
        n = len(self._e_src)
        if eid < 0:
            eid += n
        if not (0 <= eid < n):
            raise IndexError("edge id out of range")
        return Edge._attached(self, eid)

    @property
    def num_vertices(self) -> int:
        return len(self._v_label)

    @property
    def num_edges(self) -> int:
        return len(self._e_src)

    def __len__(self) -> int:
        return len(self._v_label)

    def vertices(self) -> Iterator[Vertex]:
        attached = Vertex._attached
        for vid in range(len(self._v_label)):
            yield attached(self, vid)

    def edges(self) -> Iterator[Edge]:
        attached = Edge._attached
        for eid in range(len(self._e_src)):
            yield attached(self, eid)

    @property
    def vs(self):
        """All vertices as a :class:`~repro.pag.sets.VertexSet` (paper's ``pag.vs``)."""
        return VertexSet._from_ids(self, np.arange(len(self._v_label), dtype=np.int64))

    @property
    def V(self):
        """Alias of :attr:`vs` (Listing 1 uses ``pag.V``)."""
        return self.vs

    @property
    def es_all(self):
        """All edges as an :class:`~repro.pag.sets.EdgeSet`."""
        return EdgeSet._from_ids(self, np.arange(len(self._e_src), dtype=np.int64))

    @property
    def E(self):
        """Alias of :attr:`es_all`."""
        return self.es_all

    # ------------------------------------------------------------------
    # adjacency (CSR index, built lazily, rebuilt after structural growth)
    # ------------------------------------------------------------------
    def _csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(out_ptr, out_eids, in_ptr, in_eids)`` int64 arrays.

        Reads the endpoint arrays through zero-copy views, so it works
        on mmap- and buffer-backed graphs without thawing them.
        """
        nv, ne = len(self._v_label), len(self._e_src)
        cached = self._csr_cache
        if cached is None or cached[0] != nv or cached[1] != ne:
            index = _csr_side(_np_view(self._e_src, np.int64), nv) + _csr_side(
                _np_view(self._e_dst, np.int64), nv
            )
            self._csr_cache = cached = (nv, ne, index)
        return cached[2]

    def _out_eids(self, vid: int) -> np.ndarray:
        ptr, eids, _, _ = self._csr()
        return eids[ptr.item(vid) : ptr.item(vid + 1)]

    def _in_eids(self, vid: int) -> np.ndarray:
        _, _, ptr, eids = self._csr()
        return eids[ptr.item(vid) : ptr.item(vid + 1)]

    def out_edges(self, v: VertexRef):
        return EdgeSet._from_ids(self, self._out_eids(self._vid(v)))

    def in_edges(self, v: VertexRef):
        return EdgeSet._from_ids(self, self._in_eids(self._vid(v)))

    def incident(self, v: VertexRef):
        vid = self._vid(v)
        return EdgeSet._from_ids(
            self, np.concatenate((self._in_eids(vid), self._out_eids(vid)))
        )

    def successors(self, v: VertexRef) -> List[Vertex]:
        dst = _np_view(self._e_dst, np.int64)[self._out_eids(self._vid(v))]
        return [Vertex._attached(self, d) for d in dst.tolist()]

    def predecessors(self, v: VertexRef) -> List[Vertex]:
        src = _np_view(self._e_src, np.int64)[self._in_eids(self._vid(v))]
        return [Vertex._attached(self, s) for s in src.tolist()]

    def neighbors(self, v: VertexRef) -> List[Vertex]:
        seen: Dict[int, None] = {}
        for u in self.predecessors(v):
            seen.setdefault(u.id)
        for u in self.successors(v):
            seen.setdefault(u.id)
        return [Vertex._attached(self, vid) for vid in seen]

    def out_degree(self, v: VertexRef) -> int:
        vid, ptr = self._vid(v), self._csr()[0]
        return ptr.item(vid + 1) - ptr.item(vid)

    def in_degree(self, v: VertexRef) -> int:
        vid, ptr = self._vid(v), self._csr()[2]
        return ptr.item(vid + 1) - ptr.item(vid)

    def degree(self, v: VertexRef) -> int:
        return self.out_degree(v) + self.in_degree(v)

    # ------------------------------------------------------------------
    # whole-graph operations
    # ------------------------------------------------------------------
    def copy(self) -> "PAG":
        """Deep structural copy (properties shallow-copied per element).

        The string table is shared with the original — it is append-only,
        so both graphs can keep interning without affecting each other's
        existing ids.
        """
        g = PAG(self.name, dict(self.metadata))
        g.strings = self.strings
        # frombytes works on heap arrays and mmap-backed numpy views
        # alike, so a copy is always heap-owned
        for attr, typecode in self._STRUCT_ARRAYS:
            heap = array(typecode)
            heap.frombytes(np.ascontiguousarray(getattr(self, attr)).tobytes())
            setattr(g, attr, heap)
        g._vprops = self._vprops.copy()
        g._eprops = self._eprops.copy()
        return g

    def subgraph(self, vertex_ids: Iterable[int]) -> Tuple["PAG", Dict[int, int]]:
        """Induced subgraph on ``vertex_ids``.

        Returns the new PAG and a mapping old-id -> new-id.  Edges are kept
        iff both endpoints are in the vertex set.
        """
        keep = sorted(set(int(v) for v in vertex_ids))
        g = PAG(f"{self.name}/sub", dict(self.metadata))
        g.strings = self.strings
        g._v_label = array("b", (self._v_label[i] for i in keep))
        g._v_kind = array("b", (self._v_kind[i] for i in keep))
        g._v_name = array("q", (self._v_name[i] for i in keep))
        g._vprops = self._vprops.gather(keep)
        remap = {old: new for new, old in enumerate(keep)}
        e_src, e_dst = self._e_src, self._e_dst
        kept_eids = [
            eid
            for eid in range(len(e_src))
            if e_src[eid] in remap and e_dst[eid] in remap
        ]
        g._e_src = array("q", (remap[e_src[eid]] for eid in kept_eids))
        g._e_dst = array("q", (remap[e_dst[eid]] for eid in kept_eids))
        g._e_label = array("b", (self._e_label[eid] for eid in kept_eids))
        g._e_kind = array("b", (self._e_kind[eid] for eid in kept_eids))
        g._eprops = self._eprops.gather(kept_eids)
        return g, remap

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Deterministic content fingerprint of this graph (hex string).

        Equal fingerprints mean equal content: structure, labels/kinds,
        names, property columns, graph name, and metadata — independent
        of string intern order, column layout, or identity ``token``.
        Floats count bit for bit, and every format stores them exactly,
        so the fingerprint survives a ``save_pag``/``load_pag``
        round-trip (with ``include_per_rank=True`` for per-rank
        vectors).  It is the input key of the pass-result cache
        (:mod:`repro.cache`).

        The expensive content digest is cached and recomputed only
        after a mutation (tracked via element counts, the property
        stores' version counters, and vertex renames); the metadata
        dict is untracked, so its (cheap) digest is refreshed on every
        call.
        """
        from repro.cache.fingerprint import (
            combine_digests,
            content_digest,
            metadata_digest,
        )

        key = (
            len(self._v_label),
            len(self._e_src),
            self._struct_version,
            self._vprops.version,
            self._eprops.version,
        )
        if self._fp_cache is None or self._fp_cache[0] != key:
            self._fp_cache = (key, content_digest(self))
        return combine_digests(self._fp_cache[1], metadata_digest(self.metadata))

    def memory_stats(self) -> Dict[str, Any]:
        """Per-column memory footprint in bytes (``repro pag stats``)."""
        structural = {
            "v_label": len(self._v_label),
            "v_kind": len(self._v_kind),
            "v_name": 8 * len(self._v_name),
            "e_src": 8 * len(self._e_src),
            "e_dst": 8 * len(self._e_dst),
            "e_label": len(self._e_label),
            "e_kind": len(self._e_kind),
        }
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "structural": structural,
            "strings": self.strings.nbytes,
            "vertex_columns": self._vprops.memory_stats(),
            "edge_columns": self._eprops.memory_stats(),
        }

    def __repr__(self) -> str:
        return f"PAG({self.name!r}, |V|={self.num_vertices}, |E|={self.num_edges})"
