"""Unit tests for the PAG container."""

import numpy as np
import pytest

from repro.pag.edge import CommKind, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import CallKind, VertexLabel


@pytest.fixture
def small_pag():
    g = PAG("test")
    main = g.add_vertex(VertexLabel.FUNCTION, "main")
    loop = g.add_vertex(VertexLabel.LOOP, "loop_1")
    call = g.add_vertex(VertexLabel.CALL, "MPI_Send", CallKind.COMM, {"time": 1.5})
    g.add_edge(main, loop, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(loop, call, EdgeLabel.INTRA_PROCEDURAL)
    return g


def test_vertex_ids_dense(small_pag):
    assert [v.id for v in small_pag.vertices()] == [0, 1, 2]
    assert small_pag.num_vertices == 3
    assert len(small_pag) == 3


def test_edge_endpoints(small_pag):
    e = small_pag.edge(1)
    assert e.src.name == "loop_1"
    assert e.dst.name == "MPI_Send"
    assert e.other(e.src_id) == e.dst_id
    assert e.other(e.dst_id) == e.src_id
    with pytest.raises(ValueError):
        e.other(99)


def test_add_edge_by_id_and_object(small_pag):
    e = small_pag.add_edge(0, 2, EdgeLabel.INTER_PROCEDURAL)
    assert e.src_id == 0 and e.dst_id == 2
    assert small_pag.num_edges == 3


def test_add_edge_invalid_vertex(small_pag):
    with pytest.raises(KeyError):
        small_pag.add_edge(0, 42, EdgeLabel.INTRA_PROCEDURAL)


def test_adjacency(small_pag):
    assert [v.name for v in small_pag.successors(0)] == ["loop_1"]
    assert [v.name for v in small_pag.predecessors(2)] == ["loop_1"]
    assert small_pag.out_degree(1) == 1
    assert small_pag.in_degree(1) == 1
    assert small_pag.degree(1) == 2
    names = {v.name for v in small_pag.neighbors(1)}
    assert names == {"main", "MPI_Send"}


def test_neighbors_deduplicated():
    g = PAG()
    a = g.add_vertex(VertexLabel.FUNCTION, "a")
    b = g.add_vertex(VertexLabel.FUNCTION, "b")
    g.add_edge(a, b, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(b, a, EdgeLabel.INTRA_PROCEDURAL)
    assert [v.id for v in g.neighbors(a)] == [b.id]


def test_in_out_edge_sets(small_pag):
    assert len(small_pag.out_edges(1)) == 1
    assert len(small_pag.in_edges(1)) == 1
    assert len(small_pag.incident(1)) == 2


def test_copy_is_deep_structurally(small_pag):
    g2 = small_pag.copy()
    assert g2.num_vertices == small_pag.num_vertices
    assert g2.num_edges == small_pag.num_edges
    g2.vertex(2)["time"] = 99.0
    assert small_pag.vertex(2)["time"] == 1.5
    g2.add_vertex(VertexLabel.INSTRUCTION, "new")
    assert small_pag.num_vertices == 3


def test_subgraph_induced(small_pag):
    sub, remap = small_pag.subgraph([1, 2])
    assert sub.num_vertices == 2
    assert sub.num_edges == 1  # only loop->call survives
    assert sub.vertex(remap[2]).name == "MPI_Send"
    assert sub.vertex(remap[2])["time"] == 1.5


def test_vs_select_by_label_name_kind_and_property(small_pag):
    vs = small_pag.vs
    assert [v.id for v in vs.select(label=VertexLabel.LOOP)] == [1]
    assert [v.id for v in vs.select(name="MPI_Send")] == [2]
    assert vs.select(call_kind=CallKind.COMM)[0].name == "MPI_Send"
    assert vs.select(time=1.5)[0].id == 2
    assert list(vs.select(name="nope")) == []


def test_vs_and_es_aliases(small_pag):
    assert len(small_pag.vs) == 3
    assert len(small_pag.V) == 3
    assert len(small_pag.es_all) == 2
    assert len(small_pag.E) == 2


def test_comm_kind_only_on_inter_process():
    g = PAG()
    a = g.add_vertex(VertexLabel.CALL, "x", CallKind.COMM)
    b = g.add_vertex(VertexLabel.CALL, "y", CallKind.COMM)
    with pytest.raises(ValueError):
        g.add_edge(a, b, EdgeLabel.INTRA_PROCEDURAL, CommKind.P2P_SYNC)
    e = g.add_edge(a, b, EdgeLabel.INTER_PROCESS, CommKind.P2P_ASYNC)
    assert e.comm_kind is CommKind.P2P_ASYNC


def test_repr(small_pag):
    assert "|V|=3" in repr(small_pag)
    assert "MPI_Send" in repr(small_pag.vertex(2))
    assert "->" in repr(small_pag.edge(0))


def test_one_vertex_pags_equal_only_themselves(small_pag):
    """Listing 4 builds many ``pflow.vertex()`` results, each vertex 0
    of its own PAG: they must stay distinct in a ``set``/``dict``."""
    from repro.dataflow import lowlevel

    a, b = lowlevel.vertex("a"), lowlevel.vertex("b")
    assert a.id == b.id == 0
    assert a == a and a != b
    assert len({a, b}) == 2 and len({a: 1, b: 2}) == 2
    assert a != small_pag.vertex(0) and small_pag.vertex(0) != a
    # handles compare by (graph, id), not by object
    assert small_pag.vertex(1) == small_pag.vertex(1)
    assert hash(small_pag.vertex(1)) == hash(small_pag.vertex(1))
    assert small_pag.edge(0) == small_pag.edge(0)
    assert small_pag.vertex(1) != small_pag.copy().vertex(1)


def test_elements_have_no_public_constructor():
    from repro.pag.edge import Edge
    from repro.pag.vertex import Vertex

    with pytest.raises(TypeError):
        Vertex(0, VertexLabel.LOOP, "x")
    with pytest.raises(TypeError):
        Edge(0, 0, 1, EdgeLabel.INTRA_PROCEDURAL)


def test_one_vertex_pag_reads_and_writes_columns():
    from repro.dataflow import lowlevel

    v = lowlevel.vertex("diff")
    assert "time" not in v and v["time"] is None
    v["time"] = 2.0
    assert v["time"] == 2.0 and v.properties == {"time": 2.0}
    assert v.pag.vertex(0)["time"] == 2.0
    assert len(v.es) == 0 and v.pag.num_vertices == 1


def test_foreign_handle_is_refused(small_pag):
    """A handle of another PAG is never read as this PAG's row of the
    same id: the adjacency queries and ``add_edge`` refuse it."""
    from repro.pag.sets import CrossPAGError

    other = small_pag.copy()
    v, w = other.vertex(1), other.vertex(2)
    for query in (
        small_pag.in_edges,
        small_pag.out_edges,
        small_pag.incident,
        small_pag.successors,
        small_pag.predecessors,
        small_pag.neighbors,
        small_pag.in_degree,
        small_pag.out_degree,
        small_pag.degree,
    ):
        with pytest.raises(CrossPAGError, match="not of 'test'"):
            query(v)
    with pytest.raises(CrossPAGError):
        small_pag.add_edge(v, w, EdgeLabel.INTRA_PROCEDURAL)
    assert small_pag.num_edges == 2
    # ints and the graph's own handles are unaffected
    assert [u.id for u in small_pag.successors(1)] == [2]
    assert [u.id for u in small_pag.successors(small_pag.vertex(1))] == [2]


# ----------------------------------------------------------------------
# adjacency index contract (lazy CSR, rebuilt after structural growth)
# ----------------------------------------------------------------------
def multigraph():
    """5 vertices; parallel edges, a self-loop, edges added out of
    endpoint order so only a stable grouping keeps them ascending."""
    g = PAG("multi")
    for i in range(5):
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}")
    for src, dst in ((3, 1), (0, 1), (3, 1), (1, 1), (0, 4), (3, 0), (0, 1)):
        g.add_edge(src, dst, EdgeLabel.INTRA_PROCEDURAL)
    return g


def adjacency(g):
    return {
        v: ([e.id for e in g.out_edges(v)], [e.id for e in g.in_edges(v)])
        for v in range(g.num_vertices)
    }


def test_per_vertex_edge_order_is_ascending_eid():
    g = multigraph()
    assert adjacency(g) == {
        0: ([1, 4, 6], [5]),
        1: ([3], [0, 1, 2, 3, 6]),
        2: ([], []),
        3: ([0, 2, 5], []),
        4: ([], [4]),
    }
    assert [e.id for e in g.incident(1)] == [0, 1, 2, 3, 6, 3]  # in, then out
    assert [v.id for v in g.successors(0)] == [1, 4, 1]  # one per edge
    assert [v.id for v in g.predecessors(1)] == [3, 0, 3, 1, 0]
    assert (g.out_degree(0), g.in_degree(1), g.degree(1)) == (3, 5, 6)
    assert g.degree(2) == 0 and len(g.incident(2)) == 0


def test_growth_after_a_read_shows_on_the_next_read():
    g = multigraph()
    assert [e.id for e in g.out_edges(2)] == []
    e = g.add_edge(2, 0, EdgeLabel.INTRA_PROCEDURAL)
    assert [x.id for x in g.out_edges(2)] == [e.id]
    assert [x.id for x in g.in_edges(0)] == [5, e.id]
    v = g.add_vertex(VertexLabel.INSTRUCTION, "late")
    assert g.degree(v) == 0
    e2 = g.add_edge(v, 2, EdgeLabel.INTRA_PROCEDURAL)
    assert [x.id for x in g.in_edges(2)] == [e2.id]
    assert [u.id for u in g.successors(v)] == [2]


def test_sets_handed_out_cannot_write_into_the_index():
    g = multigraph()
    # edge sets borrow slices of the index rather than copying them
    assert not g.out_edges(0)._ids.flags.writeable
    assert not g.in_edges(1)._ids.flags.writeable
    ids = g.out_edges(0).ids()  # the public bulk read is a private copy
    ids[0] = 99
    assert [e.id for e in g.out_edges(0)] == [1, 4, 6]


def test_copy_and_subgraph_build_their_own_index():
    g = multigraph()
    g.out_edges(0)  # index built on the original
    dup = g.copy()
    sub, remap = g.subgraph([0, 1, 3])
    assert dup._csr_cache is None and sub._csr_cache is None
    dup.add_edge(2, 4, EdgeLabel.INTRA_PROCEDURAL)
    assert [e.id for e in dup.out_edges(2)] == [7]
    assert [e.id for e in g.out_edges(2)] == []
    assert adjacency(sub) == {
        remap[0]: ([1, 5], [4]),
        remap[1]: ([3], [0, 1, 2, 3, 5]),
        remap[3]: ([0, 2, 4], []),
    }
    assert g._csr() is not dup._csr() and g._csr() is not sub._csr()


def _structure_is_borrowed(pag) -> bool:
    return all(
        isinstance(getattr(pag, attr), np.ndarray) and not getattr(pag, attr).flags.writeable
        for attr, _typecode in PAG._STRUCT_ARRAYS
    )


def test_index_builds_over_mmap_backed_structure_without_thawing(tmp_path):
    from repro.pag.formats import load_pag, save_pag

    g = multigraph()
    save_pag(g, tmp_path / "multi.pag3", format=3)
    lazy = load_pag(tmp_path / "multi.pag3", mmap=True)
    assert _structure_is_borrowed(lazy)
    assert adjacency(lazy) == adjacency(g)
    assert [v.id for v in lazy.successors(0)] == [1, 4, 1]
    assert all(type(v.id) is int for v in lazy.predecessors(1))
    assert _structure_is_borrowed(lazy)  # reads never promote to heap
    # growth thaws the structure; the stale index is not reused
    lazy.add_edge(2, 0, EdgeLabel.INTRA_PROCEDURAL)
    assert not _structure_is_borrowed(lazy)
    assert [e.id for e in lazy.out_edges(2)] == [7]


def test_index_builds_over_shm_attached_structure_without_thawing():
    """The read-only twin over an in-memory format-3 image is indexed
    through its views, like the mmap-ed file above."""
    from repro.pag.formats.format3 import load_format3_buffer, write_format3

    g = multigraph()
    image = bytearray()
    write_format3(g, image.extend, include_per_rank=True)
    twin = load_format3_buffer(image)
    assert _structure_is_borrowed(twin)
    assert adjacency(twin) == adjacency(g)
    assert _structure_is_borrowed(twin)


def test_golden_paradigms_build_each_index_at_most_once(monkeypatch):
    """No pipeline interleaves structural growth with adjacency reads:
    every PAG the golden paradigms touch is built fully, then traversed,
    so its index is computed at most once (a rebuild per appended edge
    would be quadratic)."""
    from collections import Counter

    from repro.apps import microbench
    from repro.dataflow.api import PerFlow
    from repro.paradigms import (
        critical_path_paradigm,
        mpi_profiler_paradigm,
        scalability_analysis_paradigm,
    )

    builds: Counter = Counter()
    real_csr = PAG._csr

    def counting_csr(self):
        before = self._csr_cache
        out = real_csr(self)
        if self._csr_cache is not before:
            builds[(self.token, self.name)] += 1
        return out

    monkeypatch.setattr(PAG, "_csr", counting_csr)
    pflow = PerFlow()
    prog = microbench.build()
    small = pflow.run(bin=prog, nprocs=4, nthreads=4)
    large = pflow.run(bin=prog, nprocs=16, nthreads=4)
    mpi_profiler_paradigm(PerFlow(jobs=1), small, top=10)
    scalability_analysis_paradigm(pflow, small, large, top=5, max_ranks=8)
    critical_path_paradigm(pflow, small, max_ranks=4, expand_threads=True)
    assert builds, "the paradigms never read adjacency: the probe is not wired"
    assert max(builds.values()) == 1, builds
