"""Differential tests: array-native traversal kernels vs per-handle reference.

``repro.algorithms.traversal`` and ``repro.algorithms.critical_path``
run on integer ids over the PAG's CSR adjacency index.  The per-handle
implementations they replaced live on, verbatim, in
:mod:`tests.reference_shim`; hypothesis builds random graphs — DAGs,
multigraphs with parallel edges, cyclic graphs, weights drawn from a
tiny pool so ties are the norm — and every result must agree exactly:
the same ``topological_order`` list, the same path vertex and edge ids,
a bit-equal weight, the same ``ValueError``.
"""

from __future__ import annotations

import importlib
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algorithms import (
    ancestors,
    bfs,
    critical_path,
    descendants,
    dfs_preorder,
    id_increasing,
    topological_order,
)
from repro.apps import registry
from repro.dataflow.api import PerFlow
from repro.pag.edge import EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import VertexLabel
from repro.passes import critical_path_analysis

from tests import reference_shim as ref

#: few distinct values, so equal-weight candidates meet at most vertices
TIMES = (None, 0.0, 0.25, 0.5, 1.0)
WAITS = (None, 0.0, 0.25, 2.0)
#: an int in a float column spills it to the object column, which takes
#: the default weight off its columnar gather and onto the callable
TIMES_SPILLING = TIMES + (1, 3)
EDGE_W = (None, 0.0, 0.5, 1.0, -0.5)

EDGE_FILTERS = {
    "none": None,
    "id-increasing": lambda e: e.src_id < e.dst_id,
    "keep-flag": lambda e: e["keep"],
    "even-eids": lambda e: e.id % 2 == 0,
    "nothing": lambda e: False,
}


@st.composite
def graphs(draw, acyclic=None, times=TIMES):
    """A PAG of up to 12 vertices and 30 edges, parallel edges welcome."""
    n = draw(st.integers(min_value=0, max_value=12))
    g = PAG("random")
    for i in range(n):
        props = {}
        for key, pool in (("time", times), ("wait", WAITS)):
            value = draw(st.sampled_from(pool))
            if value is not None:
                props[key] = value
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}", properties=props)
    if n == 0:
        return g
    if acyclic is None:
        acyclic = draw(st.booleans())
    vid = st.integers(min_value=0, max_value=n - 1)
    for a, b, w, keep in draw(
        st.lists(
            st.tuples(vid, vid, st.sampled_from(EDGE_W), st.booleans()), max_size=30
        )
    ):
        if acyclic:
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
        props = {"keep": keep}
        if w is not None:
            props["w"] = w
        g.add_edge(a, b, EdgeLabel.INTRA_PROCEDURAL, properties=props)
    return g


def outcome(fn):
    """The call's value, or its ``ValueError`` as a comparable token."""
    try:
        return fn()
    except ValueError as exc:
        return ("ValueError", str(exc))


def path_ids(result):
    if isinstance(result, tuple) and result[:1] == ("ValueError",):
        return result
    vertices, edges, weight = result
    return [v.id for v in vertices], [e.id for e in edges], float(weight).hex()


edge_filters = st.sampled_from(sorted(EDGE_FILTERS))


# ---------------------------------------------------------------- topological
@settings(max_examples=300, deadline=None)
@given(g=graphs(), filt=edge_filters)
def test_topological_order_matches_reference(g, filt):
    edge_ok = EDGE_FILTERS[filt]
    assert outcome(lambda: topological_order(g, edge_ok)) == outcome(
        lambda: ref.topological_order(g, edge_ok)
    )


def test_topological_order_reports_the_same_cycle_error():
    g = PAG()
    g.add_vertex(VertexLabel.INSTRUCTION, "x")
    g.add_edge(0, 0, EdgeLabel.INTRA_PROCEDURAL)  # self-loop
    got, want = outcome(lambda: topological_order(g)), outcome(
        lambda: ref.topological_order(g)
    )
    assert got == want and got[0] == "ValueError"
    assert topological_order(g, lambda e: False) == [0]


# ---------------------------------------------------------------- critical path
@settings(max_examples=300, deadline=None)
@given(g=graphs(), filt=edge_filters)
def test_critical_path_default_weights_match_reference(g, filt):
    edge_ok = EDGE_FILTERS[filt]
    got = outcome(lambda: critical_path(g, edge_ok=edge_ok))
    want = outcome(lambda: ref.critical_path(g, edge_ok=edge_ok))
    assert path_ids(got) == path_ids(want)


@settings(max_examples=150, deadline=None)
@given(g=graphs(times=TIMES_SPILLING))
def test_critical_path_default_weights_on_spilled_columns(g):
    got = outcome(lambda: critical_path(g))
    want = outcome(lambda: ref.critical_path(g))
    assert path_ids(got) == path_ids(want)


@settings(max_examples=300, deadline=None)
@given(
    g=graphs(times=TIMES_SPILLING),
    filt=edge_filters,
    with_edge_weight=st.booleans(),
    int_weights=st.booleans(),
)
def test_critical_path_custom_callables_match_reference(
    g, filt, with_edge_weight, int_weights
):
    edge_ok = EDGE_FILTERS[filt]
    if int_weights:  # ints stay ints until they meet a float
        vertex_weight = lambda v: int((v["time"] or 0) * 4)  # noqa: E731
    else:
        vertex_weight = lambda v: (v["time"] or 0.0) - (v["wait"] or 0.0)  # noqa: E731
    edge_weight = (lambda e: e["w"] or 0.0) if with_edge_weight else None
    got = outcome(lambda: critical_path(g, vertex_weight, edge_weight, edge_ok))
    want = outcome(lambda: ref.critical_path(g, vertex_weight, edge_weight, edge_ok))
    assert path_ids(got) == path_ids(want)


def _weighted(times, edges):
    g = PAG()
    for i, t in enumerate(times):
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}", properties={"time": t})
    for a, b in edges:
        g.add_edge(a, b, EdgeLabel.INTRA_PROCEDURAL)
    return g


def test_tie_break_rules_one_by_one():
    # a zero candidate never beats the initial 0.0, so it sets no
    # predecessor and the path is the smallest-id vertex alone
    g = _weighted([0.0, 0.0, 0.0], [(1, 2), (0, 2)])
    assert path_ids(critical_path(g)) == path_ids(ref.critical_path(g))
    assert path_ids(critical_path(g)) == ([0], [], (0.0).hex())

    # equal candidates: the smaller source wins even when it arrives
    # later (Kahn visits source 2 before vertex 1, which waits for 0)
    g = _weighted([0.5, 0.5, 1.0, 0.25], [(0, 1), (2, 3), (1, 3)])
    assert topological_order(g) == [0, 2, 1, 3]
    got = path_ids(critical_path(g))
    assert got == path_ids(ref.critical_path(g))
    assert got[:2] == ([0, 1, 3], [0, 2])

    # equal candidates from the same source: the first parallel edge stays
    g = _weighted([1.0, 1.0], [(0, 1), (0, 1)])
    got = path_ids(critical_path(g))
    assert got == path_ids(ref.critical_path(g))
    assert got[:2] == ([0, 1], [0])


def test_callables_see_each_element_once_and_only_surviving_edges():
    g = PAG()
    for i in range(4):
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}", properties={"time": 1.0})
    for a, b in ((0, 1), (1, 2), (2, 3), (0, 3), (3, 1)):  # 3->1 closes a cycle
        g.add_edge(a, b, EdgeLabel.INTRA_PROCEDURAL)
    seen = {"ok": [], "vw": [], "ew": []}

    def edge_ok(e):
        seen["ok"].append(e.id)
        return e.src_id < e.dst_id

    def vertex_weight(v):
        seen["vw"].append(v.id)
        return 1.0

    def edge_weight(e):
        seen["ew"].append(e.id)
        return 0.0

    vertices, _edges, weight = critical_path(g, vertex_weight, edge_weight, edge_ok)
    assert [v.id for v in vertices] == [0, 1, 2, 3] and weight == 4.0
    assert seen["ok"] == [0, 1, 2, 3, 4]
    assert sorted(seen["vw"]) == [0, 1, 2, 3]
    assert sorted(seen["ew"]) == [0, 1, 2, 3]  # never the filtered edge
    # on a cycle nothing is weighed: the error comes first
    seen["vw"].clear()
    with pytest.raises(ValueError, match="cycle"):
        critical_path(g, vertex_weight)
    assert seen["vw"] == []


# ---------------------------------------------------------------- chains
@st.composite
def chain_graphs(draw, times=TIMES):
    """2–6 id-contiguous runs of up to 15 vertices, the shape of a
    parallel view's flows, plus sparse cross edges — forward, backward
    (cycles), parallel to a run edge, self-loops — in a drawn edge order."""
    runs = draw(st.lists(st.integers(min_value=1, max_value=15), min_size=2, max_size=6))
    n = sum(runs)
    g = PAG("chains")
    for i in range(n):
        props = {}
        for key, pool in (("time", times), ("wait", WAITS)):
            value = draw(st.sampled_from(pool))
            if value is not None:
                props[key] = value
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}", properties=props)
    heads = [sum(runs[:k]) for k in range(len(runs))]
    pairs = [(v, v + 1) for h, r in zip(heads, runs) for v in range(h, h + r - 1)]
    vid = st.integers(min_value=0, max_value=n - 1)
    pairs += draw(st.lists(st.tuples(vid, vid), max_size=4))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=2))
    for a, b in draw(st.permutations(pairs)):
        props = {"keep": draw(st.booleans())}
        w = draw(st.sampled_from(EDGE_W))
        if w is not None:
            props["w"] = w
        g.add_edge(a, b, EdgeLabel.INTRA_PROCEDURAL, properties=props)
    return g


CP = importlib.import_module("repro.algorithms.critical_path")
#: 1 sends every chain without a negative or NaN weight down the cumsum
#: sweep; the default sends runs of up to 15 vertices down the Python one
chain_sweeps = st.sampled_from([1, CP._SHORT_CHAIN])


@settings(max_examples=300, deadline=None)
@given(g=chain_graphs(), filt=edge_filters, short_chain=chain_sweeps)
def test_critical_path_on_chains_default_weights_match_reference(g, filt, short_chain):
    edge_ok = EDGE_FILTERS[filt]
    with mock.patch.object(CP, "_SHORT_CHAIN", short_chain):
        got = outcome(lambda: critical_path(g, edge_ok=edge_ok))
    want = outcome(lambda: ref.critical_path(g, edge_ok=edge_ok))
    assert path_ids(got) == path_ids(want)


@settings(max_examples=150, deadline=None)
@given(g=chain_graphs(times=TIMES_SPILLING), short_chain=chain_sweeps)
def test_critical_path_on_chains_spilled_columns(g, short_chain):
    with mock.patch.object(CP, "_SHORT_CHAIN", short_chain):
        got = outcome(lambda: critical_path(g))
    assert path_ids(got) == path_ids(outcome(lambda: ref.critical_path(g)))


@settings(max_examples=300, deadline=None)
@given(
    g=chain_graphs(times=TIMES_SPILLING),
    filt=edge_filters,
    with_edge_weight=st.booleans(),
    int_weights=st.booleans(),
    short_chain=chain_sweeps,
)
def test_critical_path_on_chains_custom_callables_match_reference(
    g, filt, with_edge_weight, int_weights, short_chain
):
    edge_ok = EDGE_FILTERS[filt]
    if int_weights:  # ints stay ints until they meet a float
        vertex_weight = lambda v: int((v["time"] or 0) * 4)  # noqa: E731
    else:
        vertex_weight = lambda v: (v["time"] or 0.0) - (v["wait"] or 0.0)  # noqa: E731
    edge_weight = (lambda e: e["w"] or 0.0) if with_edge_weight else None
    with mock.patch.object(CP, "_SHORT_CHAIN", short_chain):
        got = outcome(lambda: critical_path(g, vertex_weight, edge_weight, edge_ok))
    want = outcome(lambda: ref.critical_path(g, vertex_weight, edge_weight, edge_ok))
    assert path_ids(got) == path_ids(want)


def test_id_increasing_is_read_off_the_arrays():
    g = _weighted([1.0, 1.0, 1.0], [(0, 1), (1, 2), (2, 0), (1, 1)])
    with mock.patch.object(PAG, "edges", side_effect=AssertionError("handles")):
        got = path_ids(critical_path(g, edge_ok=id_increasing))
    assert got == path_ids(ref.critical_path(g, edge_ok=EDGE_FILTERS["id-increasing"]))
    assert topological_order(g, id_increasing) == [0, 1, 2]


# ---------------------------------------------------------------- all apps
@pytest.mark.parametrize("app", sorted(registry("S")))
def test_critical_path_analysis_matches_reference_on_every_app(app):
    """The pass on each app's parallel view at 8 ranks (Vite with 3
    threads, one flow per thread) against the per-handle sweep, which
    takes the same id-increasing fallback on a cyclic view."""
    threads = 3 if app == "vite" else 1
    pflow = PerFlow()
    pag = pflow.run(bin=registry("S")[app](), nprocs=8, nthreads=threads)
    pv = pflow.parallel_view(pag, expand_threads=threads > 1)
    vertices, edges, weight = critical_path_analysis(pv.vs)
    try:
        want = ref.critical_path(pv)
    except ValueError:
        want = ref.critical_path(pv, edge_ok=EDGE_FILTERS["id-increasing"])
    assert path_ids((list(vertices), list(edges), weight)) == path_ids(want)
    assert len(vertices) > 1


# ---------------------------------------------------------------- bfs family
@settings(max_examples=300, deadline=None)
@given(
    g=graphs(),
    data=st.data(),
    direction=st.sampled_from(["out", "in", "both"]),
    filt=edge_filters,
    max_depth=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
def test_bfs_matches_reference(g, data, direction, filt, max_depth):
    if g.num_vertices == 0:
        assert list(bfs(g, [])) == []
        return
    edge_ok = EDGE_FILTERS[filt]
    source_ids = data.draw(
        st.lists(st.integers(min_value=0, max_value=g.num_vertices - 1), max_size=4)
    )
    sources = [g.vertex(i) for i in source_ids]  # duplicates included
    got = [v.id for v in bfs(g, sources, direction, edge_ok, max_depth)]
    want = [v.id for v in ref.bfs(g, sources, direction, edge_ok, max_depth)]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    g=graphs(),
    data=st.data(),
    filt=edge_filters,
    max_depth=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
def test_ancestors_descendants_dfs_match_reference(g, data, filt, max_depth):
    if g.num_vertices == 0:
        return
    edge_ok = EDGE_FILTERS[filt]
    v = g.vertex(data.draw(st.integers(min_value=0, max_value=g.num_vertices - 1)))
    assert ancestors(g, v, edge_ok, max_depth) == ref.ancestors(g, v, edge_ok, max_depth)
    assert descendants(g, v, edge_ok, max_depth) == ref.descendants(
        g, v, edge_ok, max_depth
    )
    for direction in ("out", "in", "both"):
        assert [u.id for u in dfs_preorder(g, v, direction, edge_ok)] == [
            u.id for u in ref.dfs_preorder(g, v, direction, edge_ok)
        ]


def test_bfs_sees_edges_added_between_steps():
    """The walk holds no view of the endpoint arrays across a yield, so
    growing the graph mid-iteration neither fails nor is missed."""
    g = PAG()
    for name in "abc":
        g.add_vertex(VertexLabel.INSTRUCTION, name)
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    walk = bfs(g, [g.vertex(0)])
    assert next(walk).id == 0
    assert next(walk).id == 1
    g.add_edge(1, 2, EdgeLabel.INTRA_PROCEDURAL)
    assert [v.id for v in walk] == [2]
