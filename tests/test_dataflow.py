"""Tests for the PerFlowGraph dataflow executor and the PerFlow facade."""

import io

import pytest

from repro.dataflow.api import PerFlow, _parse_np
from repro.dataflow.graph import PerFlowGraph
from repro.pag.sets import VertexSet

from tests.conftest import make_ring_program


# ------------------------------------------------------------- PerFlowGraph
def test_linear_pipeline():
    g = PerFlowGraph("p")
    x = g.input("x")
    doubled = g.add_pass(lambda v: v * 2, x, name="double")
    plus = g.add_pass(lambda v: v + 1, doubled, name="inc")
    out = g.run(x=10)
    assert out["double"] == 20
    assert out["inc"] == 21
    assert plus.node_id > doubled.node_id


def test_multi_input_pass():
    g = PerFlowGraph()
    a, b = g.input("a"), g.input("b")
    g.add_pass(lambda x, y: x - y, a, b, name="sub")
    assert g.run(a=5, b=3)["sub"] == 2


def test_multi_output_with_out():
    g = PerFlowGraph()
    x = g.input("x")
    pair = g.add_pass(lambda v: (v, v * 10), x, name="fan")
    g.add_pass(lambda v: v + 1, pair.out(1), name="pick")
    assert g.run(x=2)["pick"] == 21


def test_unbound_and_unknown_inputs():
    g = PerFlowGraph()
    g.input("x")
    with pytest.raises(ValueError, match="unbound"):
        g.run()
    with pytest.raises(ValueError, match="unknown"):
        g.run(x=1, y=2)


def test_bad_node_reference():
    g = PerFlowGraph()
    from repro.dataflow.graph import NodeRef

    with pytest.raises(ValueError, match="unknown node"):
        g.add_pass(lambda v: v, NodeRef(99))


def test_fixpoint_converges():
    g = PerFlowGraph()
    x = g.input("x")
    # collatz-ish: halve until odd — stabilizes
    g.add_fixpoint(lambda v: v // 2 if v % 2 == 0 else v, x, max_iters=20, name="fix")
    assert g.run(x=48)["fix"] == 3


def test_fixpoint_respects_max_iters():
    g = PerFlowGraph()
    x = g.input("x")
    g.add_fixpoint(lambda v: v + 1, x, max_iters=3, name="fix")
    assert g.run(x=0)["fix"] == 3


def test_fixpoint_on_vertex_sets():
    from repro.pag.graph import PAG
    from repro.pag.vertex import VertexLabel

    pag = PAG()
    for i in range(5):
        pag.add_vertex(VertexLabel.INSTRUCTION, f"v{i}")

    def grow(s: VertexSet) -> VertexSet:
        if len(s) >= 3:
            return s
        return s.union(VertexSet([pag.vertex(len(s))]))

    g = PerFlowGraph()
    s0 = g.input("s")
    g.add_fixpoint(grow, s0, max_iters=10, name="grow")
    out = g.run(s=VertexSet([pag.vertex(0)]))["grow"]
    assert len(out) == 3


def test_duplicate_names_suffixed():
    g = PerFlowGraph()
    x = g.input("x")
    g.add_pass(lambda v: v + 1, x, name="p")
    g.add_pass(lambda v: v + 2, x, name="p")
    out = g.run(x=0)
    assert out["p"] == 1
    assert out["p#2"] == 2


def test_input_declared_once():
    g = PerFlowGraph()
    a1 = g.input("a")
    a2 = g.input("a")
    assert a1 == a2
    assert g.num_nodes == 1


def test_to_dot():
    g = PerFlowGraph("viz")
    x = g.input("V")
    g.add_pass(lambda v: v, x, name="hotspot")
    dot = g.to_dot()
    assert "hotspot" in dot and "rankdir=LR" in dot


# ------------------------------------------------------------- PerFlow facade
def test_parse_np():
    assert _parse_np("mpirun -np 4 ./a.out") == 4
    assert _parse_np("mpiexec -n 128 ./x") == 128
    assert _parse_np("./a.out") is None
    assert _parse_np(None) is None


@pytest.fixture
def pflow_and_pag():
    pflow = PerFlow()
    pag = pflow.run(bin=make_ring_program(imbalanced_rank=1), cmd="mpirun -np 4 ./a.out")
    return pflow, pag


def test_run_parses_cmd(pflow_and_pag):
    pflow, pag = pflow_and_pag
    assert pag.metadata["nprocs"] == 4
    assert pag.metadata["dynamic_overhead_pct"] > 0


def test_context_registry(pflow_and_pag):
    pflow, pag = pflow_and_pag
    ctx = pflow.context(pag)
    assert ctx.run.nprocs == 4
    from repro.pag.graph import PAG

    with pytest.raises(KeyError):
        pflow.context(PAG("other"))


def test_parallel_view_cached(pflow_and_pag):
    pflow, pag = pflow_and_pag
    pv1 = pflow.parallel_view(pag)
    pv2 = pflow.parallel_view(pag)
    assert pv1 is pv2
    pv3 = pflow.parallel_view(pag, max_ranks=2)
    assert pv3 is not pv1
    assert pv3.metadata["nprocs"] == 2


def test_instances_mapping(pflow_and_pag):
    pflow, pag = pflow_and_pag
    comm = pflow.filter(pag.V, name="MPI_Waitall")
    inst = pflow.instances(comm, pag, all_ranks=True)
    assert len(inst) == 4
    assert sorted(v["process"] for v in inst) == [0, 1, 2, 3]
    assert all(v.name == "MPI_Waitall" for v in inst)


def test_instances_uses_imbalanced_ranks(pflow_and_pag):
    pflow, pag = pflow_and_pag
    comm = pflow.filter(pag.V, name="MPI_Waitall")
    v = comm[0]
    v["imbalanced_ranks"] = [3]
    inst = pflow.instances(comm, pag)
    assert [i["process"] for i in inst] == [3]


def test_listing1_flow_end_to_end(pflow_and_pag):
    pflow, pag = pflow_and_pag
    V_comm = pflow.filter(pag.V, name="MPI_*")
    V_hot = pflow.hotspot_detection(V_comm)
    V_imb = pflow.imbalance_analysis(V_hot)
    V_bd = pflow.breakdown_analysis(V_imb)
    buf = io.StringIO()
    rep = pflow.report(
        V_imb, V_bd, attrs=["name", "comm-info", "debug-info", "time"], file=buf
    )
    assert "MPI_" in buf.getvalue()
    assert rep.to_text()
    assert len(V_imb) >= 1  # rank 1's imbalance is detected


def test_set_operations(pflow_and_pag):
    pflow, pag = pflow_and_pag
    a = pflow.filter(pag.V, name="MPI_Isend")
    b = pflow.filter(pag.V, name="MPI_Irecv")
    assert len(pflow.union(a, b)) == 2
    assert len(pflow.intersection(a, b)) == 0
    assert pflow.difference(pflow.union(a, b), b) == a
    assert len(pflow.union()) == 0


def test_lowlevel_reexports(pflow_and_pag):
    pflow, _ = pflow_and_pag
    assert pflow.MPI == "mpi"
    assert "MPI_Allreduce" in pflow.COLL_COMM
    v = pflow.vertex("tmp")
    assert v.id == 0
    assert v.pag.num_vertices == 1
    pat = pflow.graph()
    pat.add_vertices([(1, "A"), (2, "B")])
    assert pat.num_vertices == 2


def test_lowlevel_lca_requires_same_pag(pflow_and_pag):
    pflow, pag = pflow_and_pag
    v = pag.vertex(0)
    with pytest.raises(ValueError):
        pflow.lowest_common_ancestor(v, pflow.vertex("lone"))


def test_report_accepts_nested_lists(pflow_and_pag):
    pflow, pag = pflow_and_pag
    s = pflow.filter(pag.V, name="MPI_*")
    rep = pflow.report([s, s], attrs=["name"])
    assert rep.to_text().count("## set") == 2


# ------------------------------------------------------- observability hooks
def test_pipeline_error_truncates_to_five_diagnostics():
    from repro.dataflow.graph import PipelineError

    g = PerFlowGraph("wired-wrong")
    x = g.input("x", VertexSet)
    # Seven arity-mismatched passes: each declares two inputs but gets one.
    for i in range(7):
        g.add_pass(
            lambda a: a, x, name=f"bad{i}",
            signature=((VertexSet, VertexSet), (VertexSet,)),
        )
    with pytest.raises(PipelineError) as exc:
        g.run(x=VertexSet([]))
    err = exc.value
    assert len(err.diagnostics) == 7
    msg = str(err)
    assert "(+2 more)" in msg
    # Only the first five diagnostics are spelled out in the message.
    assert msg.count("PF802") == 5


def test_pipeline_error_no_suffix_under_six():
    from repro.dataflow.graph import PipelineError

    g = PerFlowGraph("wired-wrong")
    x = g.input("x", VertexSet)
    g.add_pass(
        lambda a: a, x, name="bad",
        signature=((VertexSet, VertexSet), (VertexSet,)),
    )
    with pytest.raises(PipelineError) as exc:
        g.run(x=VertexSet([]))
    assert "more)" not in str(exc.value)


def test_run_records_per_node_spans():
    from repro.obs import trace as obs_trace

    g = PerFlowGraph("traced")
    x = g.input("x")
    sq = g.add_pass(lambda v: [i * i for i in v], x, name="square")
    g.add_pass(lambda v: v[:2], sq, name="head")
    rec = obs_trace.enable()
    try:
        g.run(jobs=1, x=[1, 2, 3])
    finally:
        obs_trace.disable()
    pipeline = rec.find("pipeline:traced")
    assert len(pipeline) == 1
    child_names = [c.name for c in pipeline[0].children]
    assert child_names == ["pipeline.check", "node:x", "node:square", "node:head"]
    square = rec.find("node:square")[0]
    assert square.category == "dataflow.pass"
    assert square.args["in_size"] == 3 and square.args["out_size"] == 3
    head = rec.find("node:head")[0]
    assert head.args["in_size"] == 3 and head.args["out_size"] == 2
    assert rec.find("node:x")[0].category == "dataflow.input"


def test_parallel_run_records_worker_tagged_spans():
    """jobs>1: one span per node, nested under the pipeline span across
    threads, tagged with the executing worker, plus scheduler metrics."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    g = PerFlowGraph("traced-par")
    x = g.input("x")
    mids = [
        g.add_pass(lambda v, k=k: [i + k for i in v], x, name=f"p{k}")
        for k in range(4)
    ]
    g.add_pass(lambda *vs: sum(len(v) for v in vs), *mids, name="join")
    rec = obs_trace.enable()
    try:
        out = g.run(jobs=4, backend="thread", x=[1, 2, 3])
    finally:
        obs_trace.disable()
    assert out["join"] == 12
    pipeline = rec.find("pipeline:traced-par")[0]
    assert pipeline.args["jobs"] == 4
    child_names = {c.name for c in pipeline.children}
    # every node span is a child of the pipeline span despite running
    # on pool threads, and carries the worker id that executed it
    assert child_names == {
        "pipeline.check", "node:x", "node:p0", "node:p1", "node:p2",
        "node:p3", "node:join",
    }
    for c in pipeline.children:
        if c.name.startswith("node:"):
            assert "worker" in c.args
    assert rec.find("node:join")[0].args["out_size"] is None  # scalar
    assert obs_metrics.gauge("dataflow.scheduler.jobs").value == 4
    assert obs_metrics.gauge("dataflow.scheduler.ready_max").value >= 4
    assert obs_metrics.counter("dataflow.scheduler.nodes_parallel").value == 6


def test_fixpoint_span_reports_iterations():
    from repro.obs import trace as obs_trace

    g = PerFlowGraph()
    x = g.input("x")
    g.add_fixpoint(lambda v: v // 2 if v % 2 == 0 else v, x, max_iters=20, name="fix")
    rec = obs_trace.enable()
    try:
        g.run(x=16)
    finally:
        obs_trace.disable()
    sp = rec.find("node:fix")[0]
    assert sp.category == "dataflow.fixpoint"
    assert sp.args["converged"] is True
    assert sp.args["iterations"] == 5  # 16->8->4->2->1, +1 to observe stability


def test_fixpoint_nonconvergence_warns_and_counts(caplog):
    import logging

    from repro.obs import metrics as obs_metrics

    counter = obs_metrics.counter("dataflow.fixpoint.nonconverged")
    before = counter.value
    g = PerFlowGraph("runaway")
    x = g.input("x")
    g.add_fixpoint(lambda v: v + 1, x, max_iters=3, name="fix")
    # configure_logging (run by any earlier CLI test) stops propagation
    # at the "repro" root; caplog needs it back on to capture.
    root = logging.getLogger("repro")
    prev_propagate = root.propagate
    root.propagate = True
    try:
        with caplog.at_level(logging.WARNING, logger="repro.dataflow.graph"):
            out = g.run(x=0)
    finally:
        root.propagate = prev_propagate
    assert out["fix"] == 3  # last iterate still returned
    assert counter.value == before + 1
    [record] = [r for r in caplog.records if "did not converge" in r.message]
    assert record.levelno == logging.WARNING
    assert "'fix'" in record.getMessage()
    assert "max_iters=3" in record.getMessage()
    assert record.graph == "runaway"
