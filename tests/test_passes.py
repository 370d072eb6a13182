"""Unit tests for the built-in pass library."""

import json

import numpy as np
import pytest

from repro.pag.edge import EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet
from repro.pag.vertex import CallKind, VertexLabel
from repro.passes import (
    backtracking_analysis,
    breakdown_analysis,
    causal_analysis,
    comm_filter,
    contention_detection,
    critical_path_analysis,
    default_contention_pattern,
    differential_analysis,
    filter_set,
    format_table,
    hotspot_detection,
    imbalance_analysis,
    io_filter,
    Report,
    to_dot,
)


def metric_pag(times, names=None):
    g = PAG("m")
    for i, t in enumerate(times):
        name = names[i] if names else f"v{i}"
        g.add_vertex(VertexLabel.INSTRUCTION, name, properties={"time": t})
    for i in range(1, len(times)):
        g.add_edge(0, i, EdgeLabel.INTRA_PROCEDURAL)
    return g


# -------------------------------------------------------------- hotspot/filter
def test_hotspot_detection_listing3():
    g = metric_pag([1.0, 9.0, 5.0, 7.0])
    hot = hotspot_detection(g.vs, metric="time", n=2)
    assert [v.name for v in hot] == ["v1", "v3"]


def test_hotspot_other_metric():
    g = metric_pag([1.0, 2.0])
    g.vertex(0)["l1_misses"] = 100.0
    g.vertex(1)["l1_misses"] = 5.0
    assert hotspot_detection(g.vs, metric="l1_misses", n=1)[0].id == 0


def test_filters():
    g = PAG()
    g.add_vertex(VertexLabel.CALL, "MPI_Send", CallKind.COMM)
    g.add_vertex(VertexLabel.CALL, "mpi_waitall_", CallKind.COMM)
    g.add_vertex(VertexLabel.CALL, "istream::read", CallKind.EXTERNAL)
    g.add_vertex(VertexLabel.LOOP, "loop_1")
    assert len(comm_filter(g.vs)) == 2
    assert [v.name for v in io_filter(g.vs)] == ["istream::read"]
    assert len(filter_set(g.vs, label=VertexLabel.LOOP)) == 1


# -------------------------------------------------------------- differential
def test_differential_analysis_listing4():
    g1 = metric_pag([10.0, 5.0, 1.0])
    g2 = metric_pag([9.0, 1.0, 1.0])
    diff = differential_analysis(g1.vs, g2.vs)
    times = {v.name: v["time"] for v in diff}
    assert times["v1"] == pytest.approx(4.0)
    assert times["v2"] == pytest.approx(0.0)
    # Fig. 7's point: v1 is not the hotspot in either run but dominates the diff
    assert hotspot_detection(diff, n=1)[0].name == "v1"


def test_differential_min_delta():
    g1 = metric_pag([10.0, 5.0])
    g2 = metric_pag([9.5, 1.0])
    diff = differential_analysis(g1.vs, g2.vs, min_delta=1.0)
    assert [v.name for v in diff] == ["v1"]


def test_differential_empty_inputs():
    assert len(differential_analysis(VertexSet([]), VertexSet([]))) == 0


# -------------------------------------------------------------- imbalance
def test_imbalance_per_rank_mode():
    g = metric_pag([10.0, 8.0])
    g.vertex(0)["time_per_rank"] = np.array([1.0, 1.0, 1.0, 7.0])
    g.vertex(1)["time_per_rank"] = np.array([2.0, 2.0, 2.0, 2.0])
    out = imbalance_analysis(g.vs, threshold=1.5)
    assert [v.name for v in out] == ["v0"]
    assert out[0]["imbalance"] == pytest.approx(2.8)
    assert out[0]["imbalanced_ranks"] == [3]


def test_imbalance_ignores_negligible_vertices():
    g = metric_pag([100.0, 0.001])
    g.vertex(0)["time_per_rank"] = np.array([50.0, 50.0])
    g.vertex(1)["time_per_rank"] = np.array([0.001, 0.0])
    out = imbalance_analysis(g.vs, threshold=1.5, min_time_fraction=0.01)
    assert len(out) == 0


def test_imbalance_instance_mode():
    g = PAG()
    for rank, t in enumerate([1.0, 1.0, 5.0, 1.0]):
        g.add_vertex(
            VertexLabel.CALL,
            "MPI_Wait",
            CallKind.COMM,
            {"time": t, "debug-info": "x.c:10", "process": rank},
        )
    out = imbalance_analysis(g.vs, threshold=1.5)
    assert len(out) == 1
    assert out[0]["process"] == 2


@pytest.mark.parametrize("fmt", [1, 3])
def test_imbalance_names_the_missing_per_rank_column(tmp_path, fmt):
    """A top-down PAG saved without per-rank vectors is an error, not an
    empty answer; empty and parallel-view inputs are unchanged."""
    from repro.apps import registry
    from repro.dataflow.api import PerFlow
    from repro.pag.formats import load_pag, pag_to_dict, save_pag
    from repro.passes.imbalance import MissingPerRankError

    pflow = PerFlow()
    pag = pflow.run(bin=registry("S")["cg"](), nprocs=4)
    for per_rank in (True, False):
        path = tmp_path / f"{per_rank}.pag"
        if fmt == 1:  # the JSON document, as uploaded to the server
            path.write_text(json.dumps(pag_to_dict(pag, include_per_rank=per_rank)))
        else:
            save_pag(pag, path, include_per_rank=per_rank)
    assert len(imbalance_analysis(load_pag(tmp_path / "True.pag").vs)) == 3
    with pytest.raises(MissingPerRankError, match="'time_per_rank'"):
        imbalance_analysis(load_pag(tmp_path / "False.pag").vs)
    assert len(imbalance_analysis(VertexSet([]))) == 0
    assert len(imbalance_analysis(pflow.parallel_view(pag).vs)) == 4


# -------------------------------------------------------------- breakdown
def test_breakdown_message_size_imbalance():
    g = metric_pag([4.0])
    v = g.vertex(0)
    v["wait"] = 2.0
    v["bytes_per_rank"] = np.array([100.0, 100.0, 10000.0, 100.0])
    out = breakdown_analysis(g.vs)
    assert out[0]["breakdown"]["cause"] == "message-size imbalance"


def test_breakdown_load_imbalance():
    g = metric_pag([4.0])
    v = g.vertex(0)
    v["wait"] = 3.0
    v["bytes_per_rank"] = np.array([100.0, 100.0, 100.0, 100.0])
    v["wait_per_rank"] = np.array([0.0, 0.1, 2.8, 0.1])
    out = breakdown_analysis(g.vs)
    bd = out[0]["breakdown"]
    assert bd["cause"] == "load imbalance before communication"
    assert bd["wait"] == pytest.approx(3.0)
    assert bd["transfer"] == pytest.approx(1.0)


def test_breakdown_transfer_bound():
    g = metric_pag([4.0])
    g.vertex(0)["wait"] = 0.1
    out = breakdown_analysis(g.vs)
    assert out[0]["breakdown"]["cause"] == "transfer-bound"


# -------------------------------------------------------------- causal / LCA
def causal_pag():
    r"""cause -> w1, cause -> w2 (two buggy vertices share an ancestor)."""
    g = PAG("causal")
    g.add_vertex(VertexLabel.LOOP, "cause", properties={"debug-info": "c:1"})
    g.add_vertex(VertexLabel.CALL, "w1", CallKind.COMM, {"debug-info": "c:2"})
    g.add_vertex(VertexLabel.CALL, "w2", CallKind.COMM, {"debug-info": "c:3"})
    g.add_edge(0, 1, EdgeLabel.INTER_PROCESS)
    g.add_edge(0, 2, EdgeLabel.INTER_PROCESS)
    return g


def test_causal_analysis_listing5():
    g = causal_pag()
    buggy = VertexSet([g.vertex(1), g.vertex(2)])
    causes, paths = causal_analysis(buggy)
    assert [v.name for v in causes] == ["cause"]
    assert len(paths) == 2
    assert len(causes[0]["causes"]) == 2


def test_causal_restrict_to_input():
    g = causal_pag()
    buggy = VertexSet([g.vertex(1), g.vertex(2)])
    causes, _ = causal_analysis(buggy, restrict_to_input=True)
    assert len(causes) == 0  # 'cause' is not in the input set


def test_causal_empty():
    causes, paths = causal_analysis(VertexSet([]))
    assert len(causes) == 0 and len(paths) == 0


# -------------------------------------------------------------- contention
def contention_pag():
    """A hub with 2 in- and 2 out- inter-thread edges (Listing 6 shape)."""
    g = PAG("cont")
    names = ["a", "b", "hub", "d", "e"]
    for i, n in enumerate(names):
        g.add_vertex(VertexLabel.CALL, n, CallKind.THREAD, {"debug-info": f"t:{i}", "thread": i})
    g.add_edge(0, 2, EdgeLabel.INTER_THREAD, properties={"wait_time": 0.1})
    g.add_edge(1, 2, EdgeLabel.INTER_THREAD, properties={"wait_time": 0.2})
    g.add_edge(2, 3, EdgeLabel.INTER_THREAD, properties={"wait_time": 0.3})
    g.add_edge(2, 4, EdgeLabel.INTER_THREAD, properties={"wait_time": 0.4})
    return g


def test_contention_detection_listing6():
    g = contention_pag()
    V_ebd, E_ebd = contention_detection(VertexSet([g.vertex(2)]))
    assert len(V_ebd) == 5
    assert len(E_ebd) == 4
    assert all(v["contention_hub"] == "hub@t:2" for v in V_ebd)


def test_contention_detection_limit_zero_finds_nothing():
    g = contention_pag()
    V_ebd, E_ebd = contention_detection(VertexSet([g.vertex(2)]), limit=0)
    assert len(V_ebd) == 0 and len(E_ebd) == 0
    assert V_ebd.values("contention_hub") == []


def test_contention_no_pattern_without_interthread_edges():
    g = metric_pag([1.0, 2.0, 3.0])
    V_ebd, E_ebd = contention_detection(g.vs)
    assert len(V_ebd) == 0


def test_default_pattern_shape():
    pat = default_contention_pattern()
    assert pat.num_vertices == 5


# -------------------------------------------------------------- backtracking
def backtrack_pag():
    r"""flow: root -> loop -> comm; cross edge: remote -> comm."""
    g = PAG("bt")
    g.add_vertex(VertexLabel.FUNCTION, "root")
    g.add_vertex(VertexLabel.LOOP, "loop_1")
    g.add_vertex(VertexLabel.CALL, "MPI_Waitall", CallKind.COMM)
    g.add_vertex(VertexLabel.INSTRUCTION, "remote_work")
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(1, 2, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(3, 2, EdgeLabel.INTER_PROCESS, properties={"wait_time": 1.0})
    return g


def test_backtracking_follows_comm_edge_at_mpi_vertex():
    g = backtrack_pag()
    V_bt, E_bt = backtracking_analysis(VertexSet([g.vertex(2)]))
    names = [v.name for v in V_bt]
    assert names[0] == "MPI_Waitall"
    assert "remote_work" in names
    roots = [v for v in V_bt if v["backtrack_root"]]
    assert [v.name for v in roots] == ["remote_work"]
    assert any(e.label is EdgeLabel.INTER_PROCESS for e in E_bt)


def test_backtracking_collective_semantics():
    """Flow-reached collectives stop the walk; a collective reached over a
    communication edge is the late participant's instance, and the walk
    continues into the code that made it late."""
    g = PAG()
    g.add_vertex(VertexLabel.INSTRUCTION, "remote_pre")
    g.add_vertex(VertexLabel.CALL, "MPI_Allreduce", CallKind.COMM)  # late rank
    g.add_vertex(VertexLabel.CALL, "MPI_Wait", CallKind.COMM)  # victim
    g.add_vertex(VertexLabel.INSTRUCTION, "local_pre")
    g.add_vertex(VertexLabel.CALL, "MPI_Barrier", CallKind.COMM)
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)  # remote flow
    g.add_edge(1, 2, EdgeLabel.INTER_PROCESS, properties={"wait_time": 0.5})
    g.add_edge(3, 4, EdgeLabel.INTRA_PROCEDURAL)  # local flow into barrier
    g.add_edge(4, 2, EdgeLabel.INTRA_PROCEDURAL)

    # comm arrival: Wait -> Allreduce (crossed) -> remote_pre (continued)
    V_bt, _ = backtracking_analysis(VertexSet([g.vertex(2)]))
    names = [v.name for v in V_bt]
    assert "MPI_Allreduce" in names
    assert "remote_pre" in names

    # flow arrival: a walk that meets MPI_Barrier along its own flow stops
    g2 = PAG()
    g2.add_vertex(VertexLabel.INSTRUCTION, "before")
    g2.add_vertex(VertexLabel.CALL, "MPI_Barrier", CallKind.COMM)
    g2.add_vertex(VertexLabel.INSTRUCTION, "after")
    g2.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    g2.add_edge(1, 2, EdgeLabel.INTRA_PROCEDURAL)
    V_bt2, _ = backtracking_analysis(VertexSet([g2.vertex(2)]))
    names2 = [v.name for v in V_bt2]
    assert "MPI_Barrier" in names2
    assert "before" not in names2


def test_backtracking_deduplicates_shared_paths():
    g = backtrack_pag()
    V_bt, _ = backtracking_analysis(VertexSet([g.vertex(2), g.vertex(2)]))
    ids = [v.id for v in V_bt]
    assert len(ids) == len(set(ids))


# -------------------------------------------------------------- critical path
def test_critical_path_pass():
    g = backtrack_pag()
    g.vertex(0)["time"] = 1.0
    g.vertex(1)["time"] = 2.0
    g.vertex(2)["time"] = 0.5
    g.vertex(3)["time"] = 10.0
    vs, es, w = critical_path_analysis(g.vs)
    assert [v.name for v in vs] == ["remote_work", "MPI_Waitall"]
    # the returned set *is* the path: nothing is written onto the graph
    assert not any("on_critical_path" in v for v in g.vertices())
    assert w == pytest.approx(10.5)


# -------------------------------------------------------------- report
def test_format_table_and_report():
    g = metric_pag([1.5, 2.5], names=["alpha", "beta"])
    table = format_table(g.vs, ["name", "time"])
    assert "alpha" in table and "2.5" in table
    rep = Report("t").add_set(g.vs, ["name", "time"], heading="hot")
    text = rep.to_text()
    assert "=== t ===" in text and "## hot" in text


def test_report_edge_section():
    g = backtrack_pag()
    rep = Report().add_set(EdgeSet(list(g.edges())), [])
    assert "->" in rep.to_text()


def test_to_dot_highlights_and_styles():
    g = backtrack_pag()
    g.vertex(3)["time"] = 5.0
    g.vertex(3)["process"] = 2
    dot = to_dot(g.vertices(), g.edges(), highlight=[g.vertex(3)])
    assert "digraph" in dot
    assert "penwidth=3" in dot
    assert 'color="red"' in dot  # inter-process edge style
    assert "p2" in dot
