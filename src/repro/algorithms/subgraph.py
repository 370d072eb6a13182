"""Labeled subgraph matching — the contention-detection kernel.

Paper §4.3.2-D: resource-contention misbehaviours have characteristic
shapes on the parallel view; contention detection searches the
embeddings of small candidate pattern graphs.  The matcher backtracks
over the pattern vertices in a fixed, connected-first order, on integer
ids over the PAG's CSR adjacency index and label columns.  A data vertex
is considered for a pattern vertex only if it meets its label / call
kind / name constraints and has, per incident pattern edge, a data edge
of that label in that direction (label/degree pruning, one array pass
each); candidates are the neighbours of already-matched vertices over
fitting data edges; a partial match is dropped as soon as the pattern
vertices joined to it cannot each get a distinct unused candidate.
Handles exist only while a ``predicate`` looks at one, and in the result.

Pattern vertices may constrain the data-graph vertex by ``label``
(VertexLabel), ``call_kind``, ``name`` glob, or an arbitrary predicate;
pattern edges may constrain by ``label`` (EdgeLabel) or predicate.
Unconstrained pattern elements match anything, so Listing 6's abstract
A..E pattern is expressible directly.  A pattern edge from a vertex to
itself constrains nothing.

Returned is one embedding per *walk* of the search, not per distinct
embedding: a pattern vertex is tried once per data edge reaching it from
the vertices matched before it, so parallel data edges repeat an
embedding (two parallel ``a -> b`` edges give the pattern ``x -> y``
twice), each time with the same matched edge — the lowest-id data edge
fitting the pattern edge.  Repeats count against ``limit``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.algorithms.traversal import _passing
from repro.pag.columns import _np_view
from repro.pag.edge import ELABEL_CODE, Edge, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import CallKind, Vertex, VertexLabel


@dataclass
class _PatternVertex:
    key: Any
    label: Optional[VertexLabel] = None
    call_kind: Optional[CallKind] = None
    name: Optional[str] = None
    predicate: Optional[Callable[[Vertex], bool]] = None


@dataclass
class _PatternEdge:
    src: Any
    dst: Any
    label: Optional[EdgeLabel] = None
    predicate: Optional[Callable[[Edge], bool]] = None


class PatternGraph:
    """A small labeled pattern (the ``sub_pag`` of Listing 6)."""

    def __init__(self) -> None:
        self._vertices: Dict[Any, _PatternVertex] = {}
        self._edges: List[_PatternEdge] = []

    def add_vertex(
        self,
        key: Any,
        label: Optional[VertexLabel] = None,
        call_kind: Optional[CallKind] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[Vertex], bool]] = None,
    ) -> "PatternGraph":
        if key in self._vertices:
            raise ValueError(f"duplicate pattern vertex {key!r}")
        self._vertices[key] = _PatternVertex(key, label, call_kind, name, predicate)
        return self

    def add_vertices(self, items: Iterable[Tuple[Any, str]]) -> "PatternGraph":
        """Listing-6 style bulk add: ``[(1, "A"), (2, "B"), ...]``.

        The second element is a display tag only (the paper's pattern
        vertices are abstract); it imposes no constraint.
        """
        for key, _tag in items:
            self.add_vertex(key)
        return self

    def add_edge(
        self,
        src: Any,
        dst: Any,
        label: Optional[EdgeLabel] = None,
        predicate: Optional[Callable[[Edge], bool]] = None,
    ) -> "PatternGraph":
        for key in (src, dst):
            if key not in self._vertices:
                raise KeyError(f"pattern vertex {key!r} not declared")
        self._edges.append(_PatternEdge(src, dst, label, predicate))
        return self

    def add_edges(self, pairs: Iterable[Tuple[Any, Any]]) -> "PatternGraph":
        for src, dst in pairs:
            self.add_edge(src, dst)
        return self

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    def _search_order(self) -> List[Any]:
        """Connected-first ordering: each vertex after the first shares an
        edge with an earlier one when possible (cuts the search space)."""
        ends = [(pe.src, pe.dst) for pe in self._edges]
        degree = {k: sum((k == a) + (k == b) for a, b in ends) for k in self._vertices}
        order: List[Any] = []
        remaining = set(self._vertices)
        while remaining:
            connected = [
                k
                for k in remaining
                if any((k == a and b in order) or (k == b and a in order) for a, b in ends)
            ]
            # highest degree first (the anchor of the search is the most
            # constrained vertex); ties resolved by key string ascending
            nxt = min(connected or remaining, key=lambda k: (-degree[k], str(k)))
            order.append(nxt)
            remaining.remove(nxt)
        return order


@dataclass
class Embedding:
    """One match: pattern key -> data vertex, plus the matched edges."""

    vertices: Dict[Any, Vertex] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)


#: data vertex ids of consecutive search positions, matched data edge ids
_Walk = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _assignable(pools: Sequence[Set[int]]) -> bool:
    """Whether each pool can be given a member of its own (augmenting
    paths; the pools are a pattern's handful of vertices)."""
    owner: Dict[int, int] = {}

    def place(i: int, seen: Set[int]) -> bool:
        for v in pools[i]:
            if v not in seen:
                seen.add(v)
                if v not in owner or place(owner[v], seen):
                    owner[v] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(pools)))


class _Search:
    """One ``subgraph_matching`` call: the pattern laid out in search
    order against one PAG's index and label columns."""

    def __init__(
        self,
        pag: PAG,
        pattern: PatternGraph,
        order: List[Any],
        candidates: Optional[Iterable[Vertex]],
    ) -> None:
        self.pag = pag
        self.pvs = [pattern._vertices[key] for key in order]
        self.pes = pes = pattern._edges
        at = {key: i for i, key in enumerate(order)}
        # links[i]: the pattern edges joining position i to an earlier one,
        # as (edge index, earlier position, the data edge's far end is its
        # source); i's out-edges first — the order matched edges are listed in
        self.links = [
            [(j, at[pe.dst], True) for j, pe in enumerate(pes) if pe.src == key and at[pe.dst] < i]
            + [(j, at[pe.src], False) for j, pe in enumerate(pes) if pe.dst == key and at[pe.src] < i]
            for i, key in enumerate(order)
        ]
        nv = pag.num_vertices
        self.src = src = _np_view(pag._e_src, np.int64)
        self.dst = dst = _np_view(pag._e_dst, np.int64)
        elabel = _np_view(pag._e_label, np.int8)
        by_label = {pe.label: elabel == ELABEL_CODE[pe.label] for pe in pes if pe.label}
        self.emask = [by_label.get(pe.label) for pe in pes]  # None: any edge fits
        # allowed[i]: the data vertices meeting position i's label / kind /
        # name constraints (None: it has none; predicates wait until a
        # vertex is a candidate).  A position joined to no earlier one
        # draws from the whole graph, so there also: having an edge of the
        # right label for each of its pattern edges.
        self.allowed: List[Optional[np.ndarray]] = []
        for i, pv in enumerate(self.pvs):
            ok = None
            if (pv.name, pv.label, pv.call_kind) != (None, None, None):
                meets = pag.vs.select(name=pv.name, label=pv.label, call_kind=pv.call_kind)
                ok = np.zeros(nv, dtype=bool)
                ok[meets._ids] = True
            if not self.links[i]:
                ok = np.ones(nv, dtype=bool) if ok is None else ok
                for pe, mask in zip(pes, self.emask):
                    for end, ends in ((pe.src, src), (pe.dst, dst)):
                        if end == pv.key and pe.src != pe.dst:
                            has = np.zeros(nv, dtype=bool)
                            has[ends if mask is None else ends[mask]] = True
                            ok &= has
            self.allowed.append(ok)
        # the first position draws from ``candidates`` when given (their
        # handles are kept: one drawn from a set carries that set's row)
        self.free = {
            i: np.flatnonzero(ok).tolist()
            for i, ok in enumerate(self.allowed)
            if not self.links[i]
        }
        self.given: Dict[int, Vertex] = {}
        if candidates is not None:
            given = list(candidates)
            self.free[0] = [v.id for v in given if self.allowed[0][v.id]]
            self.given = {v.id: v for v in reversed(given)}
        self.pools: Dict[Tuple[int, int, bool], Tuple[List[int], Dict[int, int]]] = {}

    def handle(self, i: int, vid: int) -> Vertex:
        return (self.given.get(vid) if i == 0 else None) or Vertex._attached(self.pag, vid)

    def pool(self, j: int, w: int, toward_src: bool) -> Tuple[List[int], Dict[int, int]]:
        """The data edges fitting pattern edge ``j`` that enter
        (``toward_src``) or leave ``w``: their far ends in edge-id order,
        one per edge, and per far end the first such edge."""
        hit = self.pools.get((j, w, toward_src))
        if hit is None:
            eids = self.pag._in_eids(w) if toward_src else self.pag._out_eids(w)
            if self.emask[j] is not None:
                eids = eids[self.emask[j][eids]]
            fit = _passing(self.pag, eids, self.pes[j].predicate)
            ends = (self.src if toward_src else self.dst)[fit].tolist()
            hit = self.pools[j, w, toward_src] = (ends, dict(zip(reversed(ends), reversed(fit))))
        return hit

    def candidates(self, i: int, vids: Tuple[int, ...]) -> Tuple[List[int], List[Dict[int, int]]]:
        """Position ``i``'s candidates under the partial match ``vids``
        (it must be joined to it): the shortest pool's far ends that lie
        in every other pool, are allowed and unused, repeats kept — and
        the first-edge table of each pool."""
        pools = [
            self.pool(j, vids[p], toward_src)
            for j, p, toward_src in self.links[i]
            if p < len(vids)
        ]
        ends = min(pools, key=lambda pool: len(pool[0]))[0]
        firsts = [first for _, first in pools]
        ok = self.allowed[i]
        return [
            v
            for v in ends
            if (ok is None or ok[v]) and v not in vids and all(v in first for first in firsts)
        ], firsts

    def extend(self, vids: Tuple[int, ...], budget: int) -> List[_Walk]:
        """The completions of the partial match ``vids``, in search order,
        cut off after ``budget``."""
        i = len(vids)
        if i == len(self.pvs):
            return [((), ())]
        joined = {
            p: self.candidates(p, vids)
            for p in range(i, len(self.pvs))
            if any(q < i for _, q, _ in self.links[p])
        }
        if not _assignable([set(seq) for seq, _ in joined.values()]):
            return []
        seq, firsts = joined.get(i) or (self.free[i], [])
        predicate = self.pvs[i].predicate
        out: List[_Walk] = []
        # a vertex met again (a parallel edge) replays what it led to
        found: Dict[int, List[_Walk]] = {}
        for v in seq:
            if v not in found:
                found[v] = []
                if v not in vids and (predicate is None or predicate(self.handle(i, v))):
                    matched = tuple(first[v] for first in firsts)
                    found[v] = [
                        ((v,) + more_vids, matched + more_eids)
                        for more_vids, more_eids in self.extend(vids + (v,), budget - len(out))
                    ]
            out += found[v][: budget - len(out)]
            if len(out) >= budget:
                break
        return out


def subgraph_matching(
    pag: PAG,
    pattern: PatternGraph,
    candidates: Optional[Iterable[Vertex]] = None,
    limit: Optional[int] = None,
) -> List[Embedding]:
    """The embeddings of ``pattern`` in ``pag`` (injective on vertices),
    one per walk of the search (module docstring: when one repeats).

    ``candidates`` restricts the anchor (first pattern vertex in search
    order) to the given vertices — the contention pass searches "around"
    its input set this way instead of over the whole graph.  ``limit``
    caps the number of embeddings returned, repeats included; ``0``
    returns none.
    """
    order = pattern._search_order()
    budget = sys.maxsize if limit is None else limit
    if not order or budget <= 0:
        return []
    search = _Search(pag, pattern, order, candidates)
    edge = Edge._attached
    return [
        Embedding(
            {key: search.handle(i, v) for i, (key, v) in enumerate(zip(order, vids))},
            [edge(pag, e) for e in eids],
        )
        for vids, eids in search.extend((), budget)
    ]
