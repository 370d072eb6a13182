"""In-process unit tests for the procpool machinery.

The integration tier (`test_procpool_faults.py`, the cross-backend
property suite) exercises forked pools end to end; these tests call the
worker-side functions — transfer encode/decode, `_worker_init`,
`_worker_run`, span merge — directly in the test process, where
failures are debuggable and line coverage is visible to the CI
coverage gate (coverage.py cannot see into forked children).  The last
section runs real forked pools over the graphs only a fork can serve:
passes that close over the live input PAG, a PAG no file format holds
exactly, a pass that writes.
"""

from __future__ import annotations

import pytest

from repro.apps import registry
from repro.dataflow import procpool
from repro.dataflow.api import PerFlow
from repro.dataflow.graph import PerFlowGraph
from repro.dataflow.procpool import (
    NotTransferable,
    _merge_spans,
    _worker_init,
    _worker_run,
    collect_pags,
    decode_transfer,
    encode_transfer,
)
from repro.obs import metrics as obs_metrics
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


# ----------------------------------------------------------------- collect
def test_collect_pags_walks_containers():
    a, b = make_pag("a"), make_pag("b", n=3)
    found = collect_pags({"x": (a.vs, [b]), "y": a})
    assert set(found) == {a.fingerprint(), b.fingerprint()}
    assert found[a.fingerprint()] is a


def test_mixed_pag_set_is_refused_at_construction():
    """Every set has one backing graph, so there is no set the registry
    walk or the transfer encoder would have to skip or refuse."""
    a, b = make_pag("a"), make_pag("b", n=3)
    with pytest.raises(ValueError, match="'a' and 'b'"):
        VertexSet(list(a.vs) + list(b.vs))
    with pytest.raises(ValueError, match="'a' and 'b'"):
        a.vs | b.vs


# ---------------------------------------------------------------- transfer
def test_transfer_roundtrip_rebinds_sets_and_pags():
    pag = make_pag()
    reg = collect_pags(pag)
    value = {"hot": pag.vs, "graph": pag, "names": ["a", "b"]}
    back = decode_transfer(encode_transfer(value, reg), reg)
    assert back["graph"] is pag  # marker resolved to the live object
    assert list(back["hot"].ids()) == list(pag.vs.ids())
    assert back["hot"]._pag is pag
    assert back["names"] == ["a", "b"]


def test_transfer_refuses_unpublished_pag():
    """A PAG that is not one of the run's inputs has no counterpart to
    rebind against on the other side."""
    pag = make_pag()
    with pytest.raises(NotTransferable):
        encode_transfer(pag, {})
    with pytest.raises(NotTransferable):
        encode_transfer(pag.vs, {})


def test_decode_refuses_unknown_fingerprint():
    pag = make_pag()
    entry = encode_transfer(pag.vs, collect_pags(pag))
    with pytest.raises(NotTransferable):
        decode_transfer(entry, {})  # no live graph to rebind against


# -------------------------------------------------------------- worker run
@pytest.fixture
def worker():
    """A fake fork: install ``(graph, registry)`` as the pool initializer
    does in a real worker."""
    pag = make_pag()
    g = PerFlowGraph("unit")
    V = g.input("V", VertexSet)
    hot = g.add_pass(
        lambda s: VertexSet([v for v in s if (v["time"] or 0.0) > 2.0]),
        V,
        name="hot",
    )
    g.add_fixpoint(lambda s: s, hot, max_iters=4, name="settle")
    reg = collect_pags(pag)
    _worker_init((g, reg))
    try:
        yield g, pag, reg
    finally:
        procpool._WORKER = None


def test_worker_run_executes_and_reencodes(worker):
    g, pag, reg = worker
    nid = next(n.node_id for n in g._nodes if n.name == "hot")
    result, meta = _worker_run(nid, encode_transfer((pag.vs,), reg), want_spans=False)
    value = decode_transfer(result, reg)
    assert [v.name for v in value] == ["f3", "f4", "f5"]
    assert value._pag is pag  # rebound against the live graph
    assert meta["extra"] == {}
    assert meta["pid"] > 0


def test_worker_run_fixpoint_reports_convergence(worker):
    g, pag, reg = worker
    nid = next(n.node_id for n in g._nodes if n.name == "settle")
    _result, meta = _worker_run(nid, encode_transfer((pag.vs,), reg), want_spans=False)
    assert meta["extra"]["converged"] is True
    assert meta["extra"]["iterations"] >= 1


def test_worker_run_span_batch_merges_into_parent(worker):
    g, pag, reg = worker
    nid = next(n.node_id for n in g._nodes if n.name == "hot")
    _result, meta = _worker_run(nid, encode_transfer((pag.vs,), reg), want_spans=True)
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


# ------------------------------------------------- what only a fork serves
def _process_run(g, **inputs):
    """Run uncached on two forked workers; (outputs, tasks, inline)."""
    obs_metrics.registry.reset()
    out = g.run(jobs=2, backend="process", cache=False, **inputs)
    return (
        out,
        obs_metrics.counter("dataflow.procpool.tasks").value,
        obs_metrics.counter("dataflow.procpool.inline").value,
    )


def test_passes_closing_over_the_live_pag_match_serial_on_workers():
    """The PAG a pass closed over and the PAG its argument rebinds to are
    one object in a worker, as on the coordinator: no set operation
    between them is empty, a no-op or an error there."""
    pag = PerFlow().run(bin=registry("W")["cg"](), nprocs=4)
    g = PerFlowGraph("closures")
    V = g.input("V", VertexSet)
    g.add_pass(lambda s: s & pag.vs, V, name="meet")
    g.add_pass(lambda s: s - pag.vs[:3], V, name="minus")
    g.add_pass(lambda s: s | pag.vs[:1], V, name="grow")
    want = g.run(jobs=1, cache=False, V=pag.vs[1:])
    assert len(want["meet"]) == len(pag.vs) - 1 > 0
    got, tasks, inline = _process_run(g, V=pag.vs[1:])
    for name in ("meet", "minus", "grow"):
        assert got[name].ids().tolist() == want[name].ids().tolist(), name
    assert (tasks, inline) == (3, 1)  # only the input node stayed home


@pytest.mark.parametrize("inexact", ["metadata", "object-cell"])
def test_pag_no_file_format_holds_exactly_runs_on_workers(inexact):
    pag = make_pag()
    if inexact == "metadata":
        pag.metadata["opaque"] = object()
    else:
        pag.vertex(0)["payload"] = {1, 2, 3}
    g = PerFlowGraph("inexact")
    V = g.input("V", VertexSet)
    g.add_pass(lambda s: VertexSet([v for v in s if v["time"] > 2.0]), V, name="hot")
    g.add_pass(lambda s: [v.name for v in s], V, name="names")
    want = g.run(jobs=1, cache=False, V=pag.vs)
    got, tasks, inline = _process_run(g, V=pag.vs)
    assert got["hot"].ids().tolist() == want["hot"].ids().tolist() == [3, 4, 5]
    assert got["names"] == want["names"]
    assert (tasks, inline) == (2, 1)


def test_worker_side_write_does_not_reach_the_coordinator():
    pag = make_pag()

    def scribble(s):
        for v in s:
            v["x"] = 1.0
        return len(s)

    g = PerFlowGraph("writer")
    g.add_pass(scribble, g.input("V", VertexSet), name="scribble")
    state = (pag.fingerprint(), pag._vprops.version, pag._eprops.version)
    got, tasks, _inline = _process_run(g, V=pag.vs)
    assert got["scribble"] == 6 and tasks == 1
    assert (pag.fingerprint(), pag._vprops.version, pag._eprops.version) == state
    assert pag.vertex(0)["x"] is None
