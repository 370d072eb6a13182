"""Tests for the graph algorithm library."""

import pytest

from repro.algorithms import (
    ancestors,
    bfs,
    critical_path,
    descendants,
    dfs_preorder,
    graph_difference,
    label_propagation,
    louvain_communities,
    lowest_common_ancestor,
    modularity,
    PatternGraph,
    subgraph_matching,
    topological_order,
)
from repro.pag.edge import EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import CallKind, VertexLabel


def diamond():
    r"""a -> b, a -> c, b -> d, c -> d."""
    g = PAG("diamond")
    for name in "abcd":
        g.add_vertex(VertexLabel.INSTRUCTION, name)
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(0, 2, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(1, 3, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(2, 3, EdgeLabel.INTRA_PROCEDURAL)
    return g


# ---------------------------------------------------------------- traversal
def test_bfs_order_and_membership():
    g = diamond()
    order = [v.name for v in bfs(g, [g.vertex(0)])]
    assert order[0] == "a"
    assert set(order) == {"a", "b", "c", "d"}
    assert order.index("d") == 3


def test_bfs_direction_in():
    g = diamond()
    order = {v.name for v in bfs(g, [g.vertex(3)], direction="in")}
    assert order == {"a", "b", "c", "d"}


def test_bfs_max_depth():
    g = diamond()
    names = {v.name for v in bfs(g, [g.vertex(0)], max_depth=1)}
    assert names == {"a", "b", "c"}


def test_bfs_edge_filter():
    g = diamond()
    names = {v.name for v in bfs(g, [g.vertex(0)], edge_ok=lambda e: e.dst_id != 1)}
    assert "b" not in names


def test_bfs_invalid_direction():
    g = diamond()
    with pytest.raises(ValueError):
        list(bfs(g, [g.vertex(0)], direction="sideways"))


def test_dfs_preorder():
    g = diamond()
    order = [v.name for v in dfs_preorder(g, g.vertex(0))]
    assert order[0] == "a"
    assert len(order) == 4


def test_topological_order():
    g = diamond()
    order = topological_order(g)
    pos = {vid: i for i, vid in enumerate(order)}
    for e in g.edges():
        assert pos[e.src_id] < pos[e.dst_id]


def test_topological_cycle_raises():
    g = PAG()
    g.add_vertex(VertexLabel.INSTRUCTION, "x")
    g.add_vertex(VertexLabel.INSTRUCTION, "y")
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(1, 0, EdgeLabel.INTRA_PROCEDURAL)
    with pytest.raises(ValueError, match="cycle"):
        topological_order(g)


def test_ancestors_descendants():
    g = diamond()
    assert ancestors(g, g.vertex(3)) == {0, 1, 2}
    assert descendants(g, g.vertex(0)) == {1, 2, 3}
    assert ancestors(g, g.vertex(0)) == set()


# ---------------------------------------------------------------- LCA
def test_lca_simple_diamond():
    g = diamond()
    anc, path = lowest_common_ancestor(g, g.vertex(1), g.vertex(2))
    assert anc.name == "a"
    assert len(path) == 2
    assert {e.dst.name for e in path} == {"b", "c"}


def test_lca_same_vertex():
    g = diamond()
    anc, path = lowest_common_ancestor(g, g.vertex(1), g.vertex(1))
    assert anc.id == 1
    assert path == []


def test_lca_ancestor_case():
    g = diamond()
    anc, path = lowest_common_ancestor(g, g.vertex(3), g.vertex(1))
    assert anc.name == "b"
    assert [e.src.name for e in path] == ["b"]


def test_lca_no_common_ancestor():
    g = PAG()
    g.add_vertex(VertexLabel.INSTRUCTION, "x")
    g.add_vertex(VertexLabel.INSTRUCTION, "y")
    anc, path = lowest_common_ancestor(g, g.vertex(0), g.vertex(1))
    assert anc is None and path == []


def test_lca_picks_deepest():
    # a -> m -> b, a -> m -> c: LCA(b, c) must be m, not a
    g = PAG()
    for name in "ambc":
        g.add_vertex(VertexLabel.INSTRUCTION, name)
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(1, 2, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(1, 3, EdgeLabel.INTRA_PROCEDURAL)
    anc, _ = lowest_common_ancestor(g, g.vertex(2), g.vertex(3))
    assert anc.name == "m"


def test_lca_edge_filter():
    g = diamond()
    # forbid the a->b edge: b becomes rootless, no common ancestor
    anc, _ = lowest_common_ancestor(
        g, g.vertex(1), g.vertex(2), edge_ok=lambda e: not (e.src_id == 0 and e.dst_id == 1)
    )
    assert anc is None


# ---------------------------------------------------------------- matching
def test_subgraph_matching_triangle_pattern():
    g = diamond()
    pat = PatternGraph()
    pat.add_vertex("x").add_vertex("y").add_vertex("z")
    pat.add_edge("x", "y").add_edge("x", "z")
    found = subgraph_matching(g, pat)
    # only 'a' (children b, c) and the symmetric swap
    anchors = {emb.vertices["x"].name for emb in found}
    assert anchors == {"a"}
    assert len(found) == 2  # (y,z)=(b,c) and (c,b)


def test_subgraph_matching_with_labels():
    g = PAG()
    g.add_vertex(VertexLabel.CALL, "MPI_Send", CallKind.COMM)
    g.add_vertex(VertexLabel.LOOP, "loop_1")
    g.add_edge(1, 0, EdgeLabel.INTRA_PROCEDURAL)
    pat = PatternGraph()
    pat.add_vertex("l", label=VertexLabel.LOOP)
    pat.add_vertex("c", call_kind=CallKind.COMM, name="MPI_*")
    pat.add_edge("l", "c", label=EdgeLabel.INTRA_PROCEDURAL)
    assert len(subgraph_matching(g, pat)) == 1
    pat2 = PatternGraph()
    pat2.add_vertex("l", label=VertexLabel.LOOP)
    pat2.add_vertex("c", name="MPI_Recv")
    pat2.add_edge("l", "c")
    assert subgraph_matching(g, pat2) == []


def test_subgraph_matching_injective():
    # pattern x->y on a single self-loop-free edge cannot map x and y to
    # the same data vertex
    g = PAG()
    g.add_vertex(VertexLabel.INSTRUCTION, "a")
    g.add_vertex(VertexLabel.INSTRUCTION, "b")
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    pat = PatternGraph()
    pat.add_vertex("x").add_vertex("y")
    pat.add_edge("x", "y")
    found = subgraph_matching(g, pat)
    assert len(found) == 1
    emb = found[0]
    assert emb.vertices["x"].id != emb.vertices["y"].id


def test_subgraph_matching_candidates_and_limit():
    g = diamond()
    pat = PatternGraph()
    pat.add_vertex("x").add_vertex("y")
    pat.add_edge("x", "y")
    all_matches = subgraph_matching(g, pat)
    assert len(all_matches) == 4
    limited = subgraph_matching(g, pat, limit=2)
    assert len(limited) == 2
    anchored = subgraph_matching(g, pat, candidates=[g.vertex(1)])
    assert all(emb.vertices["x"].id == 1 for emb in anchored)


def test_subgraph_matching_limit_is_a_cap_from_zero_up():
    g = diamond()
    pat = PatternGraph()
    pat.add_vertex("x").add_vertex("y")
    pat.add_edge("x", "y")
    everything = subgraph_matching(g, pat)
    count = len(everything)
    assert count == 4
    for limit, want in ((0, 0), (1, 1), (count, count), (count + 1, count)):
        found = subgraph_matching(g, pat, limit=limit)
        assert len(found) == want
        assert [e.vertices for e in found] == [e.vertices for e in everything[:want]]


def test_pattern_listing6_api():
    pat = PatternGraph()
    pat.add_vertices([(1, "A"), (2, "B"), (3, "C"), (4, "D"), (5, "E")])
    pat.add_edges([(1, 3), (2, 3), (3, 4), (3, 5)])
    assert pat.num_vertices == 5
    with pytest.raises(ValueError):
        pat.add_vertex(1)
    with pytest.raises(KeyError):
        pat.add_edge(1, 99)


# ---------------------------------------------------------------- community
def two_cliques():
    g = PAG()
    for i in range(8):
        g.add_vertex(VertexLabel.INSTRUCTION, f"n{i}")
    for group in (range(0, 4), range(4, 8)):
        group = list(group)
        for i in group:
            for j in group:
                if i < j:
                    g.add_edge(i, j, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(3, 4, EdgeLabel.INTRA_PROCEDURAL)  # weak bridge
    return g


def test_label_propagation_two_cliques():
    g = two_cliques()
    comms = label_propagation(g)
    assert len({comms[i] for i in range(4)}) == 1
    assert len({comms[i] for i in range(4, 8)}) == 1
    assert comms[0] != comms[7]


def test_louvain_two_cliques():
    g = two_cliques()
    comms = louvain_communities(g)
    assert comms[0] == comms[1] == comms[2] == comms[3]
    assert comms[4] == comms[5] == comms[6] == comms[7]
    assert comms[0] != comms[4]


def test_modularity_good_partition_beats_trivial():
    g = two_cliques()
    good = louvain_communities(g)
    trivial = {i: 0 for i in range(8)}
    assert modularity(g, good) > modularity(g, trivial)


def test_community_determinism():
    g = two_cliques()
    assert label_propagation(g) == label_propagation(g)
    assert louvain_communities(g) == louvain_communities(g)


# ---------------------------------------------------------------- critical path
def test_critical_path_weighted():
    g = diamond()
    g.vertex(0)["time"] = 1.0
    g.vertex(1)["time"] = 5.0
    g.vertex(2)["time"] = 2.0
    g.vertex(3)["time"] = 1.0
    vertices, edges, weight = critical_path(g)
    assert [v.name for v in vertices] == ["a", "b", "d"]
    assert weight == pytest.approx(7.0)
    assert len(edges) == 2


def test_critical_path_excludes_wait():
    g = diamond()
    g.vertex(0)["time"] = 1.0
    g.vertex(1)["time"] = 5.0
    g.vertex(1)["wait"] = 5.0  # all wait: contributes nothing
    g.vertex(2)["time"] = 2.0
    g.vertex(3)["time"] = 1.0
    vertices, _, weight = critical_path(g)
    assert [v.name for v in vertices] == ["a", "c", "d"]
    assert weight == pytest.approx(4.0)


def test_critical_path_empty_graph():
    assert critical_path(PAG()) == ([], [], 0.0)


# ---------------------------------------------------------------- difference
def _metric_graph(times):
    g = PAG()
    for i, t in enumerate(times):
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}", properties={"time": t})
    for i in range(1, len(times)):
        g.add_edge(0, i, EdgeLabel.INTRA_PROCEDURAL)
    return g


def test_graph_difference_basic():
    g1 = _metric_graph([5.0, 3.0])
    g2 = _metric_graph([2.0, 3.0])
    d = graph_difference(g1, g2)
    assert d.vertex(0)["time"] == pytest.approx(3.0)
    assert d.vertex(1)["time"] == pytest.approx(0.0)
    assert d.num_edges == g1.num_edges


def test_graph_difference_scale():
    g1 = _metric_graph([10.0])
    g2 = _metric_graph([3.0])
    d = graph_difference(g1, g2, scale2=2.0)
    assert d.vertex(0)["time"] == pytest.approx(4.0)


def test_graph_difference_structure_mismatch():
    with pytest.raises(ValueError, match="structurally identical"):
        graph_difference(_metric_graph([1.0]), _metric_graph([1.0, 2.0]))


def test_graph_difference_name_mismatch():
    g1 = _metric_graph([1.0])
    g2 = PAG()
    g2.add_vertex(VertexLabel.INSTRUCTION, "other", properties={"time": 1.0})
    with pytest.raises(ValueError, match="mismatch"):
        graph_difference(g1, g2)
    d = graph_difference(g1, g2, strict=False)
    assert d.vertex(0)["time"] == pytest.approx(0.0)


def test_graph_difference_per_rank_vectors():
    import numpy as np

    g1 = _metric_graph([4.0])
    g2 = _metric_graph([2.0])
    g1.vertex(0)["time_per_rank"] = np.array([1.0, 3.0])
    g2.vertex(0)["time_per_rank"] = np.array([1.0, 1.0])
    d = graph_difference(g1, g2)
    assert np.allclose(d.vertex(0)["time_per_rank"], [0.0, 2.0])
    # mismatched rank counts: subtract the ideal-scaling projection
    # (mean(b) * n_b / n_a = 2.0 * 1/2 = 1.0 per rank)
    g2.vertex(0)["time_per_rank"] = np.array([2.0])
    d2 = graph_difference(g1, g2)
    assert np.allclose(d2.vertex(0)["time_per_rank"], [0.0, 2.0])
