"""Differential tests: array-native matching and LCA kernels vs per-handle reference.

``repro.algorithms.subgraph`` and ``repro.algorithms.lca`` (and the
``causal_analysis`` pair loop over the latter) run on integer ids over
the PAG's CSR adjacency index and label columns.  The per-handle
implementations they replaced live on in :mod:`tests.reference_shim`;
hypothesis builds random multigraphs — parallel edges and self-loops
welcome, labels, names and flags drawn from tiny pools so most pattern
constraints are met by several vertices — and every result must agree
exactly: the same embedding list (order, repeats, pattern-key order,
matched edge per pattern edge, the point where ``limit`` cuts), the same
LCA and path, the same causes, ``causes`` column and path edges.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algorithms import PatternGraph, lowest_common_ancestor, subgraph_matching
from repro.pag.edge import CommKind, Edge, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet
from repro.pag.vertex import CallKind, Vertex, VertexLabel
from repro.passes.causal import causal_analysis
from repro.passes.contention import contention_detection, default_contention_pattern

from tests import reference_shim as ref

#: (label, call kind) pairs a data vertex is drawn from
SHAPES = (
    (VertexLabel.INSTRUCTION, None),
    (VertexLabel.LOOP, None),
    (VertexLabel.CALL, CallKind.COMM),
    (VertexLabel.CALL, CallKind.USER),
)
NAMES = ("a", "ab", "b", "MPI_Send", "MPI_Recv")
GLOBS = ("a*", "MPI_*", "b", "*")
ELABELS = (EdgeLabel.INTRA_PROCEDURAL, EdgeLabel.INTER_THREAD, EdgeLabel.INTER_PROCESS)

VERTEX_PREDICATES = {
    "flag": lambda v: bool(v["flag"]),
    "even-id": lambda v: v.id % 2 == 0,
    "timed": lambda v: (v["time"] or 0.0) > 0.0,
}
EDGE_FILTERS = {
    "none": None,
    "keep-flag": lambda e: bool(e["keep"]),
    "even-eids": lambda e: e.id % 2 == 0,
    "no-loops": lambda e: e.src_id != e.dst_id,
    "waiting": lambda e: (e["wait_time"] or 0.0) > 0.0,
    "nothing": lambda e: False,
}
edge_filters = st.sampled_from(sorted(EDGE_FILTERS))


@st.composite
def graphs(draw, acyclic=False, max_vertices=7, max_edges=24):
    """A small PAG; unless ``acyclic``, parallel edges and self-loops abound."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    g = PAG("random")
    for i in range(n):
        label, kind = draw(st.sampled_from(SHAPES))
        g.add_vertex(
            label,
            draw(st.sampled_from(NAMES)),
            kind,
            properties={
                "flag": draw(st.booleans()),
                "time": draw(st.sampled_from((0.0, 0.5, 1.0))),
                "debug-info": f"f.c:{i}",
            },
        )
    vid = st.integers(min_value=0, max_value=n - 1)
    edges = st.lists(
        st.tuples(vid, vid, st.sampled_from(ELABELS), st.booleans(), st.sampled_from((0.0, 0.25, 2.0))),
        max_size=max_edges,
    )
    for a, b, label, keep, wait in draw(edges):
        if acyclic:
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
        comm = CommKind.P2P_SYNC if label is EdgeLabel.INTER_PROCESS else None
        g.add_edge(a, b, label, comm, properties={"keep": keep, "wait_time": wait})
    return g


@st.composite
def patterns(draw):
    """A 1-5 vertex pattern: any mix of constraints, any edges between its
    keys (so: disconnected parts, parallel pattern edges, self-loops)."""
    keys = draw(st.lists(st.sampled_from([1, 2, 3, 10, "x", "y", "1"]), min_size=1, max_size=5, unique=True))
    pat = PatternGraph()
    for key in keys:
        label, kind = draw(st.sampled_from(((None, None),) * 3 + SHAPES))
        if draw(st.booleans()):  # a call kind alone is a constraint too
            label = None
        pred = draw(st.sampled_from([None, None, None] + sorted(VERTEX_PREDICATES)))
        pat.add_vertex(
            key,
            label=label,
            call_kind=kind,
            name=draw(st.sampled_from((None, None) + GLOBS)),
            predicate=VERTEX_PREDICATES[pred] if pred else None,
        )
    key = st.sampled_from(keys)
    for src, dst, label, filt in draw(
        st.lists(
            st.tuples(key, key, st.sampled_from((None,) + ELABELS), st.sampled_from(["none", "none", "keep-flag", "even-eids"])),
            max_size=6,
        )
    ):
        pat.add_edge(src, dst, label=label, predicate=EDGE_FILTERS[filt])
    return pat


def embedding_ids(found):
    return [
        ([(key, v.id) for key, v in vertices.items()], [e.id for e in edges])
        for vertices, edges in found
    ]


def matched(g, pat, candidates=None, limit=None):
    found = subgraph_matching(g, pat, candidates=candidates, limit=limit)
    return embedding_ids((emb.vertices, emb.edges) for emb in found)


def matched_ref(g, pat, candidates=None, limit=None):
    return embedding_ids(ref.subgraph_matching(g, pat, candidates=candidates, limit=limit))


# ---------------------------------------------------------------- matching
@settings(max_examples=400, deadline=None)
@given(
    g=graphs(),
    pat=patterns(),
    data=st.data(),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
)
def test_subgraph_matching_matches_reference(g, pat, data, limit):
    candidates = None
    if data.draw(st.booleans()):
        ids = data.draw(st.lists(st.integers(min_value=0, max_value=g.num_vertices - 1), max_size=6))
        candidates = [g.vertex(i) for i in ids]  # order and duplicates kept
    assert matched(g, pat, candidates, limit) == matched_ref(g, pat, candidates, limit)


@settings(max_examples=150, deadline=None)
@given(g=graphs(max_vertices=6, max_edges=40), limit=st.one_of(st.none(), st.integers(0, 60)))
def test_contention_pattern_on_dense_multigraphs_matches_reference(g, limit):
    """Listing 6's star over graphs dense enough to hold it many times."""
    pat = default_contention_pattern()
    assert matched(g, pat, None, limit) == matched_ref(g, pat, None, limit)


@st.composite
def closed_patterns(draw):
    """3-4 unconstrained vertices, 3-6 unlabeled edges: most positions
    are joined to two or more earlier ones, so several pools meet."""
    keys = ["p", "q", "r", "s"][: draw(st.integers(min_value=3, max_value=4))]
    pat = PatternGraph()
    for key in keys:
        pat.add_vertex(key)
    key = st.sampled_from(keys)
    for src, dst in draw(st.lists(st.tuples(key, key), min_size=3, max_size=6)):
        pat.add_edge(src, dst)
    return pat


@settings(max_examples=300, deadline=None)
@given(
    g=graphs(max_vertices=5, max_edges=40),
    pat=closed_patterns(),
    limit=st.one_of(st.none(), st.integers(0, 40)),
)
def test_closed_patterns_on_dense_multigraphs_match_reference(g, pat, limit):
    assert matched(g, pat, None, limit) == matched_ref(g, pat, None, limit)


def test_limit_cuts_at_the_same_walk_repeats_included():
    g = PAG()
    for name in "abcd":
        g.add_vertex(VertexLabel.INSTRUCTION, name)
    for a, b in ((0, 1), (1, 2), (0, 1), (1, 3), (1, 2)):  # a->b and b->c twice
        g.add_edge(a, b, EdgeLabel.INTRA_PROCEDURAL)
    pat = PatternGraph()
    pat.add_vertex("y").add_vertex("x").add_vertex("z").add_edge("x", "y").add_edge("y", "z")
    # searched y, x, z: one walk per data edge into and out of b; a repeat
    # names the first of the parallel edges
    once = [
        ([("y", 1), ("x", 0), ("z", 2)], [0, 1]),
        ([("y", 1), ("x", 0), ("z", 3)], [0, 3]),
        ([("y", 1), ("x", 0), ("z", 2)], [0, 1]),
    ]
    everything = matched(g, pat)
    assert everything == once + once
    for limit in range(8):  # 4 and 5 cut inside the replayed second half
        assert matched(g, pat, limit=limit) == everything[:limit] == matched_ref(g, pat, limit=limit)


def test_anchor_handles_given_as_candidates_come_back_in_the_embedding():
    """A candidate drawn from a set with result columns keeps its row."""
    g = PAG()
    g.add_vertex(VertexLabel.INSTRUCTION, "a")
    g.add_vertex(VertexLabel.INSTRUCTION, "b")
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    pat = PatternGraph()
    pat.add_vertex("x", predicate=lambda v: v["score"] == 7).add_vertex("y").add_edge("x", "y")
    scored = g.vs.with_columns(score=[7, 7])
    (emb,) = subgraph_matching(g, pat, candidates=scored)
    assert emb.vertices["x"]["score"] == 7 and emb.vertices["y"]["score"] is None


def _count_handles(monkeypatch):
    calls = {"n": 0}
    for cls in (Vertex, Edge):
        original = cls._attached.__func__

        def counted(klass, *args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "_attached", classmethod(counted))
    return calls


def test_parallel_edges_onto_few_neighbours_cost_nothing(monkeypatch):
    """The shape measured on Vite's allocator-lock vertices: every hub
    candidate has 30 wait edges in and 30 out, onto 3 distinct neighbours
    plus itself — too few for the 5-vertex star, which the per-handle
    search finds out one parallel-edge combination at a time."""
    g = PAG()
    for name in ("allocate", "_M_realloc_insert", "_M_emplace", "deallocate"):
        g.add_vertex(VertexLabel.CALL, name, CallKind.USER, properties={"debug-info": "x.cpp:1"})
    for _ in range(10):
        for a in range(4):
            for b in range(4):
                if a != b:
                    g.add_edge(a, b, EdgeLabel.INTER_THREAD)
    for a in range(4):
        for _ in range(3):
            g.add_edge(a, a, EdgeLabel.INTER_THREAD)
    pat = default_contention_pattern()
    anchors = g.vs.to_list()

    calls = _count_handles(monkeypatch)
    assert subgraph_matching(g, pat, candidates=anchors) == []
    V_ebd, E_ebd = contention_detection(g.vs)
    assert len(V_ebd) == 0 and len(E_ebd) == 0
    assert calls["n"] <= 2 * len(anchors)  # the pass's own anchor handles

    calls["n"] = 0
    assert ref.subgraph_matching(g, pat, candidates=anchors) == []
    assert calls["n"] > 10**5


def test_a_hub_short_of_distinct_neighbours_is_dropped_at_once(monkeypatch):
    """12 waiters in, one (5 parallel edges) out: the star needs two
    distinct out-neighbours, so no pair of in-neighbours is ever tried."""
    from repro.algorithms import subgraph

    g = PAG()
    for i in range(14):
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}")
    for i in range(1, 13):
        g.add_edge(i, 0, EdgeLabel.INTER_THREAD)
    for _ in range(5):
        g.add_edge(0, 13, EdgeLabel.INTER_THREAD)
    partial = []
    original = subgraph._Search.extend
    monkeypatch.setattr(
        subgraph._Search,
        "extend",
        lambda self, vids, budget: partial.append(vids) or original(self, vids, budget),
    )
    assert subgraph_matching(g, default_contention_pattern()) == []
    # only vertex 0 has wait edges both ways, and it is given up as a whole
    assert partial == [(), (0,)]


# ---------------------------------------------------------------- LCA
def lca_ids(result):
    anc, path = result
    return (None if anc is None else anc.id), [e.id for e in path]


@settings(max_examples=400, deadline=None)
@given(g=graphs(acyclic=True, max_vertices=10, max_edges=30), data=st.data(), filt=edge_filters)
def test_lowest_common_ancestor_matches_reference(g, data, filt):
    vid = st.integers(min_value=0, max_value=g.num_vertices - 1)
    v, w = g.vertex(data.draw(vid)), g.vertex(data.draw(vid))
    edge_ok = EDGE_FILTERS[filt]
    assert lca_ids(lowest_common_ancestor(g, v, w, edge_ok)) == lca_ids(
        ref.lowest_common_ancestor(g, v, w, edge_ok)
    )


@settings(max_examples=100, deadline=None)
@given(g=graphs(max_vertices=8), data=st.data(), filt=edge_filters)
def test_lowest_common_ancestor_on_cyclic_multigraphs(g, data, filt):
    vid = st.integers(min_value=0, max_value=g.num_vertices - 1)
    v, w = g.vertex(data.draw(vid)), g.vertex(data.draw(vid))
    edge_ok = EDGE_FILTERS[filt]
    assert lca_ids(lowest_common_ancestor(g, v, w, edge_ok)) == lca_ids(
        ref.lowest_common_ancestor(g, v, w, edge_ok)
    )


@settings(max_examples=300, deadline=None)
@given(
    g=graphs(acyclic=True, max_vertices=10, max_edges=30),
    data=st.data(),
    filt=edge_filters,
    restrict=st.booleans(),
    localize=st.booleans(),
    max_pairs=st.sampled_from([0, 1, 2, 5, 2000]),
)
def test_causal_analysis_matches_reference(g, data, filt, restrict, localize, max_pairs):
    ids = data.draw(st.lists(st.integers(min_value=0, max_value=g.num_vertices - 1), max_size=8))
    V = VertexSet.from_ids(g, ids)
    kwargs = dict(
        edge_ok=EDGE_FILTERS[filt],
        restrict_to_input=restrict,
        localize=localize,
        max_pairs=max_pairs,
    )
    V_res, E_res = causal_analysis(V, **kwargs)
    want_ids, want_causes, want_path = ref.causal_analysis(V, **kwargs)
    assert V_res.ids().tolist() == want_ids
    assert (V_res.values("causes") if want_ids else []) == want_causes
    assert E_res.ids().tolist() == EdgeSet(want_path).ids().tolist()


def test_causal_analysis_searches_upward_once_per_input(monkeypatch):
    """A chain of inputs with no common ancestor pairs every vertex with
    every other; each still gets one upward search."""
    from repro.passes import causal

    g = PAG()
    for i in range(12):
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}", properties={"time": 1.0})
    searched = []
    original = causal._ancestry
    monkeypatch.setattr(
        causal, "_ancestry", lambda pag, vid, ok: searched.append(vid) or original(pag, vid, ok)
    )
    V_res, _ = causal_analysis(g.vs)
    assert len(V_res) == 0
    assert sorted(searched) == list(range(12))
