"""Property-based equivalence: columnar PAG vs dict-backed reference.

Hypothesis generates random graph builds — vertices with mixed-typed
properties (exercising every column kind, including type migration to
the spill column), edges, property mutations and deletions — and random
id subsets.  The same sequence is applied to the real columnar
:class:`~repro.pag.graph.PAG` and to the independent dict-backed
:class:`tests.reference_shim.RefPAG`; every public Vertex/Edge/
VertexSet/EdgeSet operation must agree element-for-element, in order.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.pag.edge import CommKind, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import IN_EDGE, OUT_EDGE, EdgeSet, VertexSet
from repro.pag.vertex import CallKind, VertexLabel

from tests.reference_shim import RefPAG

NAMES = ("main", "MPI_Send", "MPI_Recv", "compute", "loop_body", "MPI_Allreduce")
PROP_KEYS = ("time", "count", "tag", "flag")

# values deliberately mix types per key so columns migrate to the spill
# dict mid-build (floats then strings in "time", ints then bools, ...)
prop_values = {
    "time": st.one_of(
        st.sampled_from([0.0, 1.5, 2.5, 2.5, 100.0, -3.25]),
        st.integers(min_value=-5, max_value=5),
    ),
    "count": st.one_of(
        st.integers(min_value=0, max_value=10),
        st.booleans(),
        st.integers(min_value=2**63, max_value=2**63 + 4),  # beyond int64
    ),
    "tag": st.one_of(st.sampled_from(["a", "b", "halo", ""]), st.none()),
    "flag": st.booleans(),
}

vertex_spec = st.tuples(
    st.sampled_from(tuple(VertexLabel)),
    st.sampled_from(NAMES),
    st.sampled_from(tuple(CallKind)),
    st.fixed_dictionaries(
        {}, optional={k: prop_values[k] for k in PROP_KEYS}
    ),
)

edge_spec = st.tuples(
    st.integers(min_value=0, max_value=10**6),  # src (mod nv)
    st.integers(min_value=0, max_value=10**6),  # dst (mod nv)
    st.sampled_from(tuple(EdgeLabel)),
    st.sampled_from(tuple(CommKind)),
    st.fixed_dictionaries(
        {}, optional={"comm_time": prop_values["time"], "bytes": prop_values["count"]}
    ),
)

# (vertex index, key, new value or None-marker for deletion)
mutation_spec = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(PROP_KEYS),
    st.one_of(st.just("__delete__"), *prop_values.values()),
)

graph_spec = st.tuples(
    st.lists(vertex_spec, min_size=1, max_size=10),
    st.lists(edge_spec, max_size=12),
    st.lists(mutation_spec, max_size=8),
)

subset = st.lists(st.integers(min_value=0, max_value=10**6), max_size=14)


def build(spec):
    """Apply one spec to both implementations."""
    vspecs, especs, mutations = spec
    pag = PAG("equiv")
    ref = RefPAG()
    for label, name, kind, props in vspecs:
        call_kind = kind if label is VertexLabel.CALL else None
        pag.add_vertex(label, name, call_kind, properties=dict(props))
        vid = ref.add_vertex(label, name, call_kind)
        ref.vertices[vid].props.update(props)
    nv = pag.num_vertices
    for src, dst, label, kind, props in especs:
        comm_kind = kind if label is EdgeLabel.INTER_PROCESS else None
        pag.add_edge(src % nv, dst % nv, label, comm_kind, properties=dict(props))
        eid = ref.add_edge(src % nv, dst % nv, label, comm_kind)
        ref.edges[eid].props.update(props)
    for vidx, key, value in mutations:
        vid = vidx % nv
        if value == "__delete__":
            pag.vertex(vid).properties.pop(key, None)
            ref.vertices[vid].props.pop(key, None)
        else:
            pag.vertex(vid)[key] = value
            ref.vertices[vid].props[key] = value
    return pag, ref


def ids_of(s):
    return [int(i) for i in s.ids()]


@settings(max_examples=60, deadline=None)
@given(graph_spec)
def test_element_accessors_match(spec):
    pag, ref = build(spec)
    for rv in ref.vertices:
        v = pag.vertex(rv.id)
        assert v.label is rv.label
        assert v.call_kind is rv.call_kind
        assert v.name == rv.name
        assert dict(v.properties) == rv.props
        for key in PROP_KEYS + ("name", "type", "no-such-key"):
            assert v[key] == rv.get(key), key
    for re_ in ref.edges:
        e = pag.edge(re_.id)
        assert (e.src_id, e.dst_id) == (re_.src, re_.dst)
        assert e.label is re_.label
        assert e.comm_kind is re_.comm_kind
        assert dict(e.properties) == re_.props


@settings(max_examples=60, deadline=None)
@given(graph_spec, subset)
def test_bulk_values_sort_top_sum_match(spec, raw_ids):
    pag, ref = build(spec)
    nv = pag.num_vertices
    ids = [i % nv for i in raw_ids]
    V = VertexSet.from_ids(pag, ids)
    ref_ids = RefPAG.union(ids, [])  # first-occurrence dedup
    assert ids_of(V) == ref_ids
    for key in PROP_KEYS + ("name", "type", "no-such-key"):
        assert V.values(key) == ref.vertex_values(ref_ids, key), key
    for reverse in (True, False):
        assert ids_of(V.sort_by("time", reverse=reverse)) == ref.sort_vertices(
            ref_ids, "time", reverse=reverse
        )
    assert ids_of(V.sort_by("time").top(3)) == ref.sort_vertices(ref_ids, "time")[:3]
    assert V.sum("time") == ref.vertex_sum(ref_ids, "time")
    want = [i for i in ref_ids if ref.vertices[i].get("time") == 2.5]
    assert ids_of(V.filter(lambda v: v["time"] == 2.5)) == want


@settings(max_examples=60, deadline=None)
@given(graph_spec, subset, subset)
def test_set_algebra_matches(spec, raw_a, raw_b):
    pag, ref = build(spec)
    nv = pag.num_vertices
    a = [i % nv for i in raw_a]
    b = [i % nv for i in raw_b]
    A = VertexSet.from_ids(pag, a)
    B = VertexSet.from_ids(pag, b)
    da, db = RefPAG.union(a, []), RefPAG.union(b, [])
    assert ids_of(A.union(B)) == RefPAG.union(da, db)
    assert ids_of(A.intersection(B)) == RefPAG.intersection(da, db)
    assert ids_of(A.difference(B)) == RefPAG.difference(da, db)
    assert ids_of(A.complement(pag.vs)) == RefPAG.difference(list(range(nv)), da)
    assert (A == B) == (set(da) == set(db))


@settings(max_examples=60, deadline=None)
@given(graph_spec, graph_spec, subset, subset)
def test_cross_pag_algebra_matches(spec_a, spec_b, raw_a, raw_b):
    """Across two graphs a set still behaves as a set of (pag, id) pairs."""
    pag_a, pag_b = build(spec_a)[0], build(spec_b)[0]
    A = VertexSet.from_ids(pag_a, [i % pag_a.num_vertices for i in raw_a])
    B = VertexSet.from_ids(pag_b, [i % pag_b.num_vertices for i in raw_b])

    def pairs(s):
        tag = "a" if s.pag is pag_a else "b"
        return [(tag, i) for i in ids_of(s)]

    ra, rb = pairs(A), pairs(B)
    assert pairs(A.intersection(B)) == RefPAG.intersection(ra, rb) == []
    assert pairs(A.difference(B)) == RefPAG.difference(ra, rb) == ra
    assert (A == B) == (set(ra) == set(rb))
    assert [v in A for v in B] == [p in ra for p in rb]
    if ra and rb:
        with pytest.raises(ValueError, match="'equiv' and 'equiv'"):
            A.union(B)
    else:
        assert pairs(A.union(B)) == RefPAG.union(ra, rb)
        assert pairs(VertexSet().union(A, B)) == RefPAG.union(ra, rb)


@settings(max_examples=60, deadline=None)
@given(graph_spec, subset)
def test_select_matches(spec, raw_ids):
    pag, ref = build(spec)
    nv = pag.num_vertices
    ids = RefPAG.union([i % nv for i in raw_ids], [])
    V = VertexSet.from_ids(pag, ids)
    cases = [
        dict(name="MPI_*"),
        dict(label=VertexLabel.CALL),
        dict(call_kind=CallKind.COMM),
        dict(name="compute", label=VertexLabel.FUNCTION),
        dict(time=2.5),
        dict(count=3),
        dict(tag="halo"),
        dict(tag=None),
        dict(flag=True),
        {"no-such-key": None},
        dict(type="mpi"),
    ]
    for kwargs in cases:
        assert ids_of(V.select(**kwargs)) == ref.select_vertices(ids, **kwargs), kwargs


@settings(max_examples=60, deadline=None)
@given(graph_spec)
def test_traversal_and_edge_sets_match(spec):
    pag, ref = build(spec)
    for rv in ref.vertices:
        v = pag.vertex(rv.id)
        assert [e.id for e in v.out_edges()] == ref.out_edges(rv.id)
        assert [e.id for e in v.in_edges()] == ref.in_edges(rv.id)
        assert [s.id for s in pag.successors(v)] == ref.successors(rv.id)
        assert [p.id for p in pag.predecessors(v)] == ref.predecessors(rv.id)
        assert [n.id for n in pag.neighbors(v)] == ref.neighbors(rv.id)
    E = pag.es_all
    eids = [e.id for e in ref.edges]
    assert ids_of(E) == eids
    assert E.values("comm_time") == ref.edge_values(eids, "comm_time")
    for kwargs in (
        dict(type=EdgeLabel.INTER_PROCESS),
        dict(comm_kind=CommKind.COLLECTIVE),
        dict(comm_time=2.5),
    ):
        assert ids_of(E.select(**kwargs)) == ref.select_edges(eids, **kwargs), kwargs
    if ref.vertices:
        of = pag.vertex(0)
        assert ids_of(E.select(IN_EDGE, of=of)) == ref.select_edges(
            eids, direction="in", of=0
        )
        assert ids_of(E.select(OUT_EDGE, of=of)) == ref.select_edges(
            eids, direction="out", of=0
        )
    src_ref, dst_ref = ref.edge_endpoints(eids)
    assert ids_of(E.sources()) == src_ref
    assert ids_of(E.destinations()) == dst_ref


column_value = st.one_of(
    st.none(), st.integers(min_value=-3, max_value=3), st.sampled_from([0.5, 2.5, "x"])
)


def _numeric(value):
    return float(value) if isinstance(value, (int, float)) else 0.0


@settings(max_examples=60, deadline=None)
@given(graph_spec, subset, subset, st.data())
def test_result_columns_follow_the_rows(spec, raw_a, raw_b, data):
    """The carry rule against a dict-of-rows reference: a set with result
    columns is ``{id: {column: value}}`` in order; row-choosing operations
    keep the chosen rows, ``&``/``-`` keep the left's, ``|`` takes per id
    and column the first operand holding a value, else the PAG's."""
    pag, ref = build(spec)
    nv = pag.num_vertices

    def carrying(raw, keys):
        ids = RefPAG.union([i % nv for i in raw], [])
        cols = {
            k: data.draw(st.lists(column_value, min_size=len(ids), max_size=len(ids)))
            for k in keys
        }
        rows = {i: {k: cols[k][n] for k in keys} for n, i in enumerate(ids)}
        return VertexSet.from_ids(pag, ids).with_columns(**cols), rows

    def rows_of(S):
        return {i: {k: S.values(k)[n] for k in S.columns} for n, i in enumerate(ids_of(S))}

    def picked(rows, ids):
        return {i: rows[i] for i in ids}

    # "time" shadows a PAG column; "score"/"mark" exist only on the sets
    A, rows_a = carrying(raw_a, ("score", "time"))
    B, rows_b = carrying(raw_b, ("score", "mark"))
    ids_a, ids_b = list(rows_a), list(rows_b)
    assert A.columns == ("score", "time") and pag.vs.columns == ()
    assert rows_of(A) == rows_a

    # one read path: values(), iteration and indexing answer from the row
    # first, from the PAG for a column the set does not carry
    for key in ("score", "time"):
        assert [v[key] for v in A] == A.values(key) == [rows_a[i][key] for i in ids_a]
        assert [A[n][key] for n in range(len(A))] == A.values(key)
    assert A.values("count") == ref.vertex_values(ids_a, "count")
    assert [v["count"] for v in A] == ref.vertex_values(ids_a, "count")
    assert [v["time"] for v in pag.vs] == ref.vertex_values(list(range(nv)), "time")

    # row-choosing derivations carry the chosen rows
    for reverse, sign in ((True, -1.0), (False, 1.0)):
        # stable either way: ties keep set order
        order = sorted(ids_a, key=lambda i: sign * _numeric(rows_a[i]["score"]))
        got = A.sort_by("score", reverse=reverse)
        assert ids_of(got) == order and rows_of(got) == picked(rows_a, order)
    assert rows_of(A.sort_by("score").top(2)) == picked(
        rows_a, sorted(ids_a, key=lambda i: -_numeric(rows_a[i]["score"]))[:2]
    )
    assert rows_of(A[1:]) == picked(rows_a, ids_a[1:])
    assert A.sum("score") == sum(_numeric(rows_a[i]["score"]) for i in ids_a)
    want = [i for i in ids_a if rows_a[i]["score"] == 2.5]
    assert rows_of(A.select(score=2.5)) == picked(rows_a, want)
    assert rows_of(A.filter(lambda v: v["score"] == 2.5)) == picked(rows_a, want)
    want = [i for i in ids_a if ref.vertices[i].name.startswith("MPI_")]
    assert rows_of(A.select(name="MPI_*")) == picked(rows_a, want)
    classes = A.classify(lambda v: v["time"])
    assert {k: rows_of(s) for k, s in classes.items()} == {
        k: picked(rows_a, [i for i in ids_a if rows_a[i]["time"] == k])
        for k in {rows_a[i]["time"] for i in ids_a}
    }

    # algebra
    assert rows_of(A & B) == picked(rows_a, RefPAG.intersection(ids_a, ids_b))
    assert rows_of(A - B) == picked(rows_a, RefPAG.difference(ids_a, ids_b))
    if ids_a and ids_b:
        plain = VertexSet.from_ids(pag, ids_b)
        for left, right, rows_r in ((A, B, rows_b), (A, plain, {})):
            union = left | right
            assert ids_of(union) == RefPAG.union(ids_a, ids_b)
            want = {}
            for i in ids_of(union):
                want[i] = {}
                for key in union.columns:
                    held = [r[i][key] for r in (rows_a, rows_r) if i in r and key in r[i]]
                    held = [value for value in held if value is not None]
                    want[i][key] = held[0] if held else ref.vertices[i].get(key)
            assert rows_of(union) == want
        assert (plain | A).columns == A.columns
    # equality is about membership, not about what a pass said of the members
    assert A == VertexSet.from_ids(pag, ids_a)


@settings(max_examples=40, deadline=None)
@given(graph_spec, subset)
def test_legacy_handle_sets_agree_with_columnar(spec, raw_ids):
    """Handle-list (legacy-constructed) sets behave like columnar ones."""
    pag, ref = build(spec)
    nv = pag.num_vertices
    ids = [i % nv for i in raw_ids]
    columnar = VertexSet.from_ids(pag, ids)
    legacy = VertexSet(pag.vertex(i) for i in ids)
    assert ids_of(legacy) == ids_of(columnar)
    assert legacy == columnar
    assert legacy.values("time") == columnar.values("time")
    assert ids_of(legacy.sort_by("time")) == ids_of(columnar.sort_by("time"))
    assert ids_of(legacy.select(name="MPI_*")) == ids_of(columnar.select(name="MPI_*"))
