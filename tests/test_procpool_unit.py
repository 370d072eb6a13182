"""In-process unit tests for the procpool machinery.

The integration tier (`test_procpool_faults.py`, the cross-backend
property suite) exercises forked pools end to end; these tests call the
worker-side functions — publish, attach, transfer encode/decode,
`_worker_run`, span merge — directly in the test process, where
failures are debuggable and line coverage is visible to the CI
coverage gate (coverage.py cannot see into forked children).
"""

from __future__ import annotations

import gc

import pytest

from repro.dataflow import procpool
from repro.dataflow.graph import PerFlowGraph
from repro.dataflow.procpool import (
    NotTransferable,
    ShmAttachError,
    _AttachRegistry,
    _Payload,
    _PAYLOADS,
    _WORKER_STATES,
    _merge_spans,
    _worker_run,
    collect_pags,
    decode_transfer,
    encode_transfer,
    publish_pags,
    unpublish_pags,
)
from repro.obs import trace as obs_trace
from repro.pag.edge import EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet
from repro.pag.vertex import VertexLabel


def make_pag(name: str = "g", n: int = 6) -> PAG:
    pag = PAG(name)
    for i in range(n):
        pag.add_vertex(
            VertexLabel.FUNCTION,
            f"f{i}",
            None,
            {"time": float(i), "debug-info": f"s.c:{i}"},
        )
    for i in range(n - 1):
        pag.add_edge(i, i + 1, EdgeLabel.INTRA_PROCEDURAL, None, {"weight": 1.0})
    return pag


@pytest.fixture
def published():
    """One published PAG; yields (pag, fp, segments) and always unlinks."""
    pag = make_pag()
    fp = pag.fingerprint()
    segments = publish_pags({fp: pag})
    assert list(segments) == [fp]
    try:
        yield pag, fp, segments
    finally:
        unpublish_pags(segments)


# ----------------------------------------------------------------- collect
def test_collect_pags_walks_containers():
    a, b = make_pag("a"), make_pag("b", n=3)
    found = collect_pags({"x": (a.vs, [b]), "y": a})
    assert set(found) == {a.fingerprint(), b.fingerprint()}
    assert found[a.fingerprint()] is a


def test_mixed_pag_set_is_refused_at_construction():
    """Every set has one backing graph, so there is no set the publish
    walk or the transfer encoder would have to skip or refuse."""
    a, b = make_pag("a"), make_pag("b", n=3)
    with pytest.raises(ValueError, match="'a' and 'b'"):
        VertexSet(list(a.vs) + list(b.vs))
    with pytest.raises(ValueError, match="'a' and 'b'"):
        a.vs | b.vs


# ------------------------------------------------------------------ attach
def test_attach_roundtrip_zero_copy_readonly(published):
    pag, fp, segments = published
    shm, twin = procpool._attach_segment(segments[fp].name, fp)
    try:
        assert twin.fingerprint() == fp
        assert twin.num_vertices == pag.num_vertices
        assert [v.name for v in twin.vs] == [v.name for v in pag.vs]
        # a write promotes the column copy-on-write, locally only
        twin.vertex(0)["time"] = 99.0
        assert twin.vertex(0)["time"] == 99.0
        assert pag.vertex(0)["time"] == 0.0
    finally:
        # in-process only: the twin's views point into shm.buf, so they
        # must be gone before close() (real workers just exit instead)
        del twin
        gc.collect()
        shm.close()


def test_attach_rejects_fingerprint_mismatch(published):
    _, fp, segments = published
    with pytest.raises(ShmAttachError) as exc:
        procpool._attach_segment(segments[fp].name, "0" * len(fp))
    assert "fingerprint" in str(exc.value)


def test_attach_rejects_missing_segment():
    with pytest.raises(ShmAttachError):
        procpool._attach_segment("psm_does_not_exist_xyzzy", "00")


def test_attach_registry_is_lazy_and_memoizing(published):
    _, fp, segments = published
    reg = _AttachRegistry({fp: segments[fp].name})
    assert reg.get("unknown-fingerprint") is None
    first = reg.get(fp)
    assert first is not None and first.fingerprint() == fp
    assert reg.get(fp) is first  # attached once, cached
    shms = reg._shms
    del first, reg  # drop the twins' buffer views before closing
    gc.collect()
    for shm in shms:
        shm.close()


# ---------------------------------------------------------------- transfer
def test_transfer_roundtrip_rebinds_sets_and_pags(published):
    pag, fp, _ = published
    fps = frozenset([fp])
    value = {"hot": pag.vs, "graph": pag, "names": ["a", "b"]}
    entry = encode_transfer(value, fps)
    back = decode_transfer(entry, {fp: pag})
    assert back["graph"] is pag  # marker resolved to the live object
    assert list(back["hot"].ids()) == list(pag.vs.ids())
    assert back["hot"]._pag is pag
    assert back["names"] == ["a", "b"]


def test_transfer_refuses_unpublished_pag():
    pag = make_pag()
    with pytest.raises(NotTransferable):
        encode_transfer(pag, frozenset())
    with pytest.raises(NotTransferable):
        encode_transfer(pag.vs, frozenset())


def test_decode_refuses_unknown_fingerprint(published):
    pag, fp, _ = published
    entry = encode_transfer(pag.vs, frozenset([fp]))
    with pytest.raises(NotTransferable):
        decode_transfer(entry, {})  # no live graph to rebind against


# -------------------------------------------------------------- worker run
@pytest.fixture
def worker_token(published):
    """A fake fork: install a payload slot as the coordinator would."""
    pag, fp, segments = published
    g = PerFlowGraph("unit")
    V = g.input("V", VertexSet)
    hot = g.add_pass(
        lambda s: VertexSet([v for v in s if (v["time"] or 0.0) > 2.0]),
        V,
        name="hot",
    )
    g.add_fixpoint(lambda s: s, hot, max_iters=4, name="settle")
    token = next(procpool._TOKENS)
    _PAYLOADS[token] = _Payload(g, {fp: segments[fp].name})
    try:
        yield token, g, pag, fp
    finally:
        state = _WORKER_STATES.pop(token, None)
        _PAYLOADS.pop(token, None)
        if state is not None:
            shms = state.registry._shms
            del state  # drop the twins' buffer views before closing
            gc.collect()
            for shm in shms:
                shm.close()


def test_worker_run_executes_and_reencodes(worker_token):
    token, g, pag, fp = worker_token
    nid = next(n.node_id for n in g._nodes if n.name == "hot")
    entry = encode_transfer((pag.vs,), frozenset([fp]))
    result, meta = _worker_run(token, nid, entry, want_spans=False)
    value = decode_transfer(result, {fp: pag})
    assert [v.name for v in value] == ["f3", "f4", "f5"]
    assert value._pag is pag  # rebound against the live graph
    assert meta["extra"] == {}
    assert meta["pid"] > 0


def test_worker_run_fixpoint_reports_convergence(worker_token):
    token, g, pag, fp = worker_token
    nid = next(n.node_id for n in g._nodes if n.name == "settle")
    entry = encode_transfer((pag.vs,), frozenset([fp]))
    _result, meta = _worker_run(token, nid, entry, want_spans=False)
    assert meta["extra"]["converged"] is True
    assert meta["extra"]["iterations"] >= 1


def test_worker_run_degrades_when_a_closure_graph_meets_its_twin(worker_token):
    """The argument arrives bound to the attached twin while the pass
    closed over the original graph: their union is a mixed-PAG error
    only in the worker, so the node must rerun on the coordinator."""
    token, g, pag, fp = worker_token
    grow = g.add_pass(lambda s: s | pag.vs[:1], g.input("W", VertexSet), name="grow")
    entry = encode_transfer((pag.vs[1:],), frozenset([fp]))
    with pytest.raises(NotTransferable, match="'grow' mixed graph identities"):
        _worker_run(token, grow.node_id, entry, want_spans=False)
    # end to end the run still matches serial
    want = [v.id for v in g.run(V=pag.vs, W=pag.vs[1:])["grow"]]
    got = g.run(V=pag.vs, W=pag.vs[1:], jobs=2, backend="process")["grow"]
    assert [v.id for v in got] == want == [1, 2, 3, 4, 5, 0]


def test_worker_run_span_batch_merges_into_parent(worker_token):
    token, g, pag, fp = worker_token
    nid = next(n.node_id for n in g._nodes if n.name == "hot")
    entry = encode_transfer((pag.vs,), frozenset([fp]))
    _result, meta = _worker_run(token, nid, entry, want_spans=True)
    batch = meta["spans"]
    assert [s["name"] for s in batch] == ["node:hot"]
    assert batch[0]["args"]["worker"].startswith("pid-")

    rec = obs_trace.enable()
    try:
        with obs_trace.span("pipeline:unit", category="dataflow"):
            parent = obs_trace.current_span()
            merged = _merge_spans(batch, parent, pid=4242)
    finally:
        obs_trace.disable()
    assert len(merged) == 1
    span = rec.find("node:hot")[0]
    assert span.tid == 4242
    assert span in rec.find("pipeline:unit")[0].children


def test_merge_spans_noop_without_recorder():
    assert _merge_spans([{"name": "x"}], None, pid=1) == []
