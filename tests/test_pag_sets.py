"""Unit tests for VertexSet/EdgeSet (the §4.3.1 set operations)."""

import fnmatch
import os
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ir.model import Function, Program, Stmt
from repro.pag.edge import EdgeLabel
from repro.pag.formats import load_pag, save_pag
from repro.pag.graph import PAG
from repro.pag.sets import IN_EDGE, OUT_EDGE, EdgeSet, VertexSet
from repro.pag.vertex import CallKind, VertexLabel
from repro.pag.views import build_parallel_view, build_top_down_view
from repro.runtime.executor import run_program


@pytest.fixture
def pag():
    g = PAG("sets")
    g.add_vertex(VertexLabel.FUNCTION, "main", properties={"time": 10.0})
    g.add_vertex(VertexLabel.CALL, "MPI_Send", CallKind.COMM, {"time": 3.0})
    g.add_vertex(VertexLabel.CALL, "MPI_Recv", CallKind.COMM, {"time": 5.0})
    g.add_vertex(VertexLabel.CALL, "istream::read", CallKind.EXTERNAL, {"time": 1.0})
    g.add_vertex(VertexLabel.LOOP, "loop_1", properties={"time": 7.0})
    g.add_edge(0, 4, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(4, 1, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(4, 2, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(1, 2, EdgeLabel.INTER_PROCESS, properties={"wait_time": 0.5})
    return g


def test_select_name_glob(pag):
    comm = pag.vs.select(name="MPI_*")
    assert {v.name for v in comm} == {"MPI_Send", "MPI_Recv"}


def test_select_label_and_kind(pag):
    assert len(pag.vs.select(label=VertexLabel.LOOP)) == 1
    assert len(pag.vs.select(call_kind=CallKind.COMM)) == 2
    assert len(pag.vs.select(call_kind=CallKind.COMM, name="MPI_Send")) == 1


def test_select_property(pag):
    assert [v.name for v in pag.vs.select(time=7.0)] == ["loop_1"]


def test_sort_by_and_top(pag):
    ordered = pag.vs.sort_by("time")
    assert [v.name for v in ordered][:2] == ["main", "loop_1"]
    assert len(ordered.top(2)) == 2
    assert ordered.top(0).to_list() == []
    with pytest.raises(ValueError):
        ordered.top(-1)


def test_sort_by_missing_metric_treated_as_zero(pag):
    ordered = pag.vs.sort_by("nonexistent")
    assert len(ordered) == len(pag.vs)


def test_set_algebra(pag):
    comm = pag.vs.select(name="MPI_*")
    loops = pag.vs.select(label=VertexLabel.LOOP)
    u = comm.union(loops)
    assert len(u) == 3
    assert comm.intersection(u) == comm
    assert u.difference(comm) == loops
    assert comm.complement(pag.vs) == pag.vs.difference(comm)
    # operator forms
    assert (comm | loops) == u
    assert (u & comm) == comm
    assert (u - loops) == comm


def test_dedup_preserves_first_occurrence(pag):
    v = pag.vertex(1)
    s = VertexSet([v, pag.vertex(2), v])
    assert len(s) == 2
    assert s[0].id == 1


def test_classify(pag):
    groups = pag.vs.classify(lambda v: v.label)
    assert len(groups[VertexLabel.CALL]) == 3
    assert len(groups[VertexLabel.LOOP]) == 1


def test_map_property_and_sum(pag):
    comm = pag.vs.select(name="MPI_*")
    assert sorted(comm.map_property("time")) == [3.0, 5.0]
    assert comm.sum("time") == 8.0


def test_contains_and_bool(pag):
    s = pag.vs.select(name="MPI_*")
    assert pag.vertex(1) in s
    assert pag.vertex(0) not in s
    assert bool(s)
    assert not bool(VertexSet([]))


def test_slicing_returns_set(pag):
    s = pag.vs[1:3]
    assert isinstance(s, VertexSet)
    assert len(s) == 2


def test_unhashable(pag):
    with pytest.raises(TypeError):
        hash(pag.vs)


def test_vertexset_pag_property(pag):
    assert pag.vs.pag is pag
    assert VertexSet([]).pag is None


def test_edgeset_select_direction(pag):
    v = pag.vertex(2)
    in_es = v.es.select(IN_EDGE, of=v)
    assert len(in_es) == 2
    out_es = v.es.select(OUT_EDGE, of=v)
    assert len(out_es) == 0


def test_edgeset_select_type_and_property(pag):
    es = pag.es_all
    comm = es.select(type=EdgeLabel.INTER_PROCESS)
    assert len(comm) == 1
    assert comm[0]["wait_time"] == 0.5
    assert len(es.select(wait_time=0.5)) == 1


def test_edgeset_sources_destinations(pag):
    comm = pag.es_all.select(type=EdgeLabel.INTER_PROCESS)
    assert [v.name for v in comm.sources()] == ["MPI_Send"]
    assert [v.name for v in comm.destinations()] == ["MPI_Recv"]


# ----------------------------------------------------------------------
# one PAG per set
# ----------------------------------------------------------------------
@pytest.fixture
def other():
    g = PAG("other")
    g.add_vertex(VertexLabel.FUNCTION, "main", properties={"time": 2.0})
    g.add_vertex(VertexLabel.LOOP, "loop_1", properties={"time": 1.0})
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    return g


def test_constructor_refuses_mixed_pags(pag, other):
    with pytest.raises(ValueError, match="'sets' and 'other'"):
        VertexSet([pag.vertex(0), other.vertex(0)])
    with pytest.raises(ValueError, match="'other' and 'sets'"):
        EdgeSet([other.edge(0), pag.edge(0)])


def test_constructor_refuses_two_one_vertex_pags(pag):
    from repro.dataflow.api import PerFlow
    from repro.pag.sets import CrossPAGError

    pflow = PerFlow()
    a, b = pflow.vertex("a"), pflow.vertex("b")
    # both are vertex 0, each of its own PAG
    with pytest.raises(CrossPAGError, match="'a' and 'b'"):
        VertexSet([a, b])
    with pytest.raises(CrossPAGError):
        VertexSet([pag.vertex(0), b])
    assert len(VertexSet([a])) == 1 and VertexSet([a]).pag is a.pag


def test_cross_pag_algebra(pag, other):
    a, b = pag.vs, other.vs
    with pytest.raises(ValueError, match="'sets' and 'other'"):
        a | b
    with pytest.raises(ValueError, match="'sets' and 'other'"):
        a.union(a, b)
    assert len(a & b) == 0
    assert (a - b) == a
    assert [v.id for v in a - b] == [v.id for v in a]
    assert a != b
    assert a[:2] != b  # same ids, same length, different graphs
    assert other.vertex(0) not in a
    assert pag.edge(0) not in other.es_all
    assert len(pag.es_all & other.es_all) == 0


def test_union_with_empty_keeps_the_nonempty_pag(pag, other):
    empties = [VertexSet(), other.vs.select(name="no-such-vertex")]
    for empty in empties:
        assert len(empty) == 0
        for u in (pag.vs | empty, empty | pag.vs, empty.union(empty, pag.vs)):
            assert u == pag.vs
            assert u.pag is pag
        assert (empty | empty).pag is None
    assert VertexSet() == other.vs.select(name="no-such-vertex")


def test_from_ids_validates_range(pag):
    n = pag.num_vertices
    for bad in ([-1], [n], [1, 99, -1]):
        with pytest.raises(ValueError, match=r"outside \[0, 5\)"):
            VertexSet.from_ids(pag, bad)
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        EdgeSet.from_ids(pag, [pag.num_edges])
    assert [v.id for v in VertexSet.from_ids(pag, [n - 1, 0, n - 1])] == [n - 1, 0]
    assert len(VertexSet.from_ids(pag, [])) == 0


# ----------------------------------------------------------------------
# select(name=...) against a per-vertex fnmatchcase filter
# ----------------------------------------------------------------------
NAME_CHARS = "abAB_-\\[]!*?"
names_st = st.text(alphabet=NAME_CHARS, max_size=5)
pattern_st = st.one_of(
    st.lists(
        st.sampled_from(["a", "b", "A", "_", "-", "\\", "*", "?", "[ab]", "[!a_]", "[a-b]", "["]),
        max_size=5,
    ).map("".join),
    st.sampled_from(["a\\b", "\\", "MPI_*", ""]),  # literals with a backslash, and the empty one
)


def expected_ids(V, pattern):
    return [v.id for v in V if fnmatch.fnmatchcase(v.name, pattern)]


def glob_pag(names):
    g = PAG("globs")
    for i, name in enumerate(names):
        g.add_vertex(VertexLabel.CALL if i % 2 else VertexLabel.INSTRUCTION, name)
        # debug strings share the table but are no vertex's name
        g.vertex(i)["debug-info"] = f"x.c:{i}{name}"
    for i in range(1, len(names)):
        g.add_edge(i - 1, i, EdgeLabel.INTRA_PROCEDURAL)
    return g


@settings(max_examples=80, deadline=None)
@given(
    names=st.lists(names_st, min_size=1, max_size=12),
    patterns=st.lists(pattern_st, min_size=1, max_size=4),
    data=st.data(),
)
def test_select_name_equals_fnmatchcase_on_heap_and_mmap(names, patterns, data):
    heap = glob_pag(names)
    keep = data.draw(st.lists(st.integers(0, len(names) - 1), unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.pag3")
        save_pag(heap, path, format=3)
        mapped = load_pag(path, mmap=True)
        for pag in (heap, mapped):
            for V in (pag.vs, VertexSet.from_ids(pag, keep)):
                for pattern in patterns + data.draw(st.lists(st.sampled_from(names), max_size=2)):
                    got = V.select(name=pattern).ids().tolist()
                    assert got == expected_ids(V, pattern), pattern


@settings(max_examples=30, deadline=None)
@given(
    names=st.lists(names_st, min_size=1, max_size=6),
    patterns=st.lists(pattern_st, min_size=1, max_size=4),
)
def test_select_name_equals_fnmatchcase_on_parallel_view(names, patterns):
    """A parallel view's name ids point into its top-down view's table."""
    p = Program(name="globs")
    p.add_function(Function("main", [Stmt(name, cost=1e-3) for name in names]))
    run = run_program(p, nprocs=2)
    td, sr = build_top_down_view(p, run)
    pv = build_parallel_view(td, sr, run)
    for pattern in patterns + names[:2]:
        for V in (pv.vs, pv.vs[1::2]):
            assert V.select(name=pattern).ids().tolist() == expected_ids(V, pattern), pattern
