"""One drive loop, three executors: what the merge must not change.

``PerFlowGraph.run`` picks an executor (inline / thread / process) and
hands it to the single loop in :mod:`repro.dataflow.scheduler`.  These
tests pin the observable contract across that choice on the two golden
paradigm graphs: same canonical output, same first error, same node
spans — for every cache state, whether the cell is selected per
``run()`` or on the ``PerFlow`` facade — and that ``jobs=1`` really is
the serial sweep (node-id order, no pool, no scheduler metrics).
"""

from __future__ import annotations

import dataclasses
import io
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.apps import microbench, registry, vite
from repro.cache import PassCache
from repro.dataflow.api import PerFlow, RunContext
from repro.dataflow.graph import PerFlowGraph
from repro.dataflow.scheduler import ThreadExecutor, WavefrontState, drive
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
import repro.paradigms
from repro.pag import Edge, EdgeSet, Vertex, VertexSet
from repro.pag.formats import load_pag, save_pag
from repro.pag.formats.format3 import load_format3_buffer, write_format3
from repro.paradigms import (
    branching_diagnosis_paradigm,
    communication_analysis_paradigm,
    critical_path_paradigm,
    differential_paradigm,
    loop_causal_paradigm,
    mpi_profiler_paradigm,
    scalability_analysis_paradigm,
)
from repro.paradigms.mpi_profiler import build_mpi_profiler_graph
from repro.paradigms.scalability import build_scalability_graph
from repro.passes import (
    backtracking_analysis,
    comm_filter,
    critical_path_analysis,
    differential_analysis,
    hotspot_detection,
    imbalance_analysis,
)
from repro.passes.report import Report
from tests.test_goldens import (
    GOLDEN_DIR,
    _render_mpi_rows,
    _render_scalability,
    _render_vset,
)

EXECUTORS = {
    "inline": {"jobs": 1},
    "thread": {"jobs": 2, "backend": "thread"},
    "process": {"jobs": 2, "backend": "process"},
}
CACHE_STATES = ("off", "cold", "warm")


# ----------------------------------------------------------------------
# jobs=1 is the serial sweep
# ----------------------------------------------------------------------
def _order_probe_graph(order):
    """Independent passes recording their execution order."""
    g = PerFlowGraph("probe")
    src = g.input("src")

    def make(name):
        def fn(_x):
            order.append(name)
            return name

        fn.__name__ = name
        return fn

    for name in ("cheap", "medium", "pricey"):
        g.add_pass(make(name), src, name=name, cacheable=False)
    return g


def test_jobs_1_runs_in_node_id_order_whatever_the_cost_model_says():
    order = []
    g = _order_probe_graph(order)
    threads_before = threading.active_count()
    g.run(jobs=1, src=0)
    assert order == ["cheap", "medium", "pricey"]
    assert threading.active_count() == threads_before
    assert "dataflow.scheduler.jobs" not in obs_metrics.registry
    assert "dataflow.procpool.jobs" not in obs_metrics.registry
    # A 1-worker ThreadExecutor pops in node-id order too: the ready
    # heap has one order, whoever drains it.
    order.clear()
    state = WavefrontState(g, {"src": 0})
    drive(state, ThreadExecutor(state, 1))
    assert order == ["cheap", "medium", "pricey"]
    assert obs_metrics.gauge("dataflow.scheduler.jobs").value == 1


def test_serial_node_spans_carry_no_worker_tag():
    g = _order_probe_graph([])
    rec = obs_trace.enable()
    try:
        g.run(jobs=1, src=0)
    finally:
        obs_trace.disable()
    spans = [sp for sp in rec.spans if sp.name.startswith("node:")]
    assert [sp.args["node_id"] for sp in spans] == [0, 1, 2, 3]
    assert not any("worker" in sp.args for sp in spans)


# ----------------------------------------------------------------------
# executor × cache-state matrix on the golden graphs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def micro():
    pflow = PerFlow()
    prog = microbench.build()
    return pflow, pflow.run(bin=prog, nprocs=4, nthreads=4), pflow.run(
        bin=prog, nprocs=16, nthreads=4
    )


def _boom(label):
    def fn(_s):
        raise ValueError(f"injected failure in {label}")

    return fn


def _build(which, micro, poisoned):
    """A golden graph, its inputs and its canonical renderer.

    ``poisoned`` adds two failing passes on the first input; both are
    ready at once, so a pool runs both and the smaller id must win.
    """
    pflow, pag4, pag16 = micro
    if which == "mpi_profiler":
        g = build_mpi_profiler_graph(pflow, float(pag4.vertex(0)["time"]), top=10)
        inputs = {"V": pag4.vs}
        first = g.input("V")
        render = lambda out: _render_mpi_rows(out["profile_rows"])  # noqa: E731
    else:
        g = build_scalability_graph(pflow, pag16, top=5, max_ranks=8)
        inputs = {"V1": pag16.vs, "V2": pag4.vs}
        first = g.input("V1")

        def render(out):
            lines = _render_vset("V_hot", out["hotspot"])
            lines += _render_vset("V_imb", out["imbalance"])
            lines += _render_vset("V_bt", out["backtracking"][0])
            lines.append(f"E_bt {len(out['backtracking'][1])}")
            return "\n".join(lines) + "\n"

    if poisoned:
        g.add_pass(_boom("low"), first, name="boom_low")
        g.add_pass(_boom("high"), first, name="boom_high")
    return g, inputs, render


def _observe(which, micro, executor, cache_state):
    """Run one cell; returns (canonical output, node-span multiset, error)."""
    run_args = dict(EXECUTORS[executor])
    run_args["cache"] = PassCache() if cache_state != "off" else False
    if cache_state == "warm":
        g, inputs, _ = _build(which, micro, poisoned=False)
        g.run(**run_args, **inputs)
    g, inputs, render = _build(which, micro, poisoned=False)
    rec = obs_trace.enable()
    try:
        text = render(g.run(**run_args, **inputs))
    finally:
        obs_trace.disable()
    spans = Counter(
        (
            sp.name,
            sp.args["node_id"],
            sp.args.get("in_size"),
            sp.args.get("out_size"),
            sp.args.get("cache_hit"),
        )
        for sp in rec.spans
        if sp.name.startswith("node:")
    )
    bad, inputs, _ = _build(which, micro, poisoned=True)
    with pytest.raises(ValueError) as exc:
        bad.run(**run_args, **inputs)
    return text, spans, (type(exc.value), str(exc.value))


@pytest.mark.parametrize("cache_state", CACHE_STATES)
@pytest.mark.parametrize("executor", list(EXECUTORS))
@pytest.mark.parametrize("which", ["mpi_profiler", "scalability"])
def test_executor_and_cache_state_are_unobservable(which, executor, cache_state, micro):
    text, spans, error = _observe(which, micro, executor, cache_state)
    # Output and first error: one answer for all nine cells.
    want_text, _, want_error = _observe(which, micro, "inline", "off")
    assert text == want_text
    assert error == want_error == (ValueError, "injected failure in low")
    if which == "mpi_profiler":
        golden = (GOLDEN_DIR / "mpi_profiler_microbench.txt").read_text(encoding="utf-8")
        assert text == golden
    # Node spans: one per node, tags set by the cache state alone.
    _, want_spans, _ = _observe(which, micro, "inline", cache_state)
    assert spans == want_spans
    assert sum(spans.values()) == len(spans) == len(_build(which, micro, False)[0]._nodes)
    tags = {cache_hit for (*_, cache_hit) in spans}
    if cache_state == "off":
        assert tags == {None}
    elif (which, cache_state) == ("mpi_profiler", "warm"):
        assert tags == {None, True}  # the input, and three hits
    else:
        # scalability's passes close over the facade: never cached
        assert tags == {None, False}


# ----------------------------------------------------------------------
# the same cells selected at the facade: PerFlow(jobs=, backend=, cache=)
# ----------------------------------------------------------------------
def _facade_cell(executor, cache_state):
    """Canonical output of the three graph-backed paradigms on CG, the
    cell chosen by ``PerFlow(...)`` alone — the paradigms take no options."""
    cache = PassCache() if cache_state != "off" else False
    pflow = PerFlow(cache=cache, **EXECUTORS[executor])
    prog = registry("W")["cg"]()
    small, large = pflow.run(bin=prog, nprocs=4), pflow.run(bin=prog, nprocs=8)

    def once():
        loop = loop_causal_paradigm(pflow, large, max_ranks=8)
        lines = []
        for label in ("V_hot", "V_comm", "V_imb", "V_causes"):
            lines += _render_vset(label, getattr(loop, label))
        lines.append(f"E_paths {len(loop.E_paths)}")
        return {
            "mpi_profiler": _render_mpi_rows(mpi_profiler_paradigm(pflow, large, top=10)),
            "loop_causal": "\n".join(lines) + "\n",
            "scalability": _render_scalability(
                scalability_analysis_paradigm(pflow, small, large, top=5, max_ranks=8)
            ),
        }

    if cache_state == "warm":
        once()
        obs_metrics.registry.reset()
    return once()


@pytest.fixture(scope="module")
def serial_cell():
    return _facade_cell("inline", "off")


@pytest.mark.parametrize("cache_state", CACHE_STATES)
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_facade_options_select_the_cell_and_change_no_output(executor, cache_state, serial_cell):
    got = _facade_cell(executor, cache_state)
    # The facade's options reached run(): the pool that ran, the cache that hit.
    assert ("dataflow.scheduler.jobs" in obs_metrics.registry) == (executor != "inline")
    assert ("dataflow.procpool.jobs" in obs_metrics.registry) == (executor == "process")
    if cache_state == "warm":
        assert obs_metrics.counter("dataflow.cache.hits").value >= 3
    elif cache_state == "off":
        assert "dataflow.cache.misses" not in obs_metrics.registry
    assert got == serial_cell
    golden = (GOLDEN_DIR / "mpi_profiler_cg.txt").read_text(encoding="utf-8")
    assert got["mpi_profiler"] == golden
    assert "V_causes 0" not in got["loop_causal"] and "V_bt 0" not in got["scalability"]


# ----------------------------------------------------------------------
# float bits: executor × cache × storage cells compute on the same numbers
# ----------------------------------------------------------------------
def _bits(value):
    """``value`` with every float spelled as its bits (``float.hex``), so
    ``==`` on the result is bit equality — not the 6-digit printed text
    the goldens compare, which hides anything below the 7th digit."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return ["ndarray"] + [_bits(x) for x in value.tolist()]
    if isinstance(value, Vertex):
        return (value.id, value.name, _bits(dict(value.properties)))
    if isinstance(value, Edge):
        return (value.src_id, value.dst_id, value.label.value, _bits(dict(value.properties)))
    if isinstance(value, (VertexSet, EdgeSet)):
        elements = [_bits(el) for el in value]
        if not value.columns:
            return elements
        return {"elements": elements, "columns": {k: _bits(value.values(k)) for k in value.columns}}
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, Report):
        return value.to_text()
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


@pytest.fixture(scope="module")
def cg_w4():
    return PerFlow().run(bin=registry("W")["cg"](), nprocs=4)


def _cg_rows(pag, executor, cache_state):
    cache = PassCache() if cache_state != "off" else False
    pflow = PerFlow(cache=cache, **EXECUTORS[executor])
    if cache_state == "warm":
        mpi_profiler_paradigm(pflow, pag, top=10)
    return mpi_profiler_paradigm(pflow, pag, top=10)


@pytest.mark.parametrize("cache_state", CACHE_STATES)
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_cg_class_w_rows_are_bit_identical_in_every_cell(executor, cache_state, cg_w4):
    """The case PR 16 found: process workers read the format-3 twin, and
    while formats rounded floats to 9 decimals every row of this profile
    differed from the inline one (``time=3.2013e-05`` for
    ``3.2012799999980857e-05``, ``app_pct`` in the 6th digit)."""
    want = _cg_rows(cg_w4, "inline", "off")
    got = _cg_rows(cg_w4, executor, cache_state)
    assert len(got) == 10 and got == want
    assert _bits(got) == _bits(want)


_S = registry("S")

#: paradigm -> (program builder, one ``PerFlow.run`` kwargs per input PAG,
#: call).  Class S, at most 8 ranks: the point is the path the floats take.
PARADIGM_CASES = {
    "mpi_profiler_paradigm": (
        _S["cg"], [dict(nprocs=4)], lambda pf, a: mpi_profiler_paradigm(pf, a, top=10)
    ),
    "communication_analysis_paradigm": (
        _S["zeusmp"], [dict(nprocs=8)], lambda pf, a: communication_analysis_paradigm(pf, a)
    ),
    "scalability_analysis_paradigm": (
        _S["zeusmp"],
        [dict(nprocs=4), dict(nprocs=8)],
        lambda pf, a, b: scalability_analysis_paradigm(pf, a, b, top=5, max_ranks=8),
    ),
    "critical_path_paradigm": (
        _S["cg"], [dict(nprocs=4)], lambda pf, a: critical_path_paradigm(pf, a)
    ),
    "loop_causal_paradigm": (
        _S["cg"], [dict(nprocs=8)], lambda pf, a: loop_causal_paradigm(pf, a, max_ranks=8)
    ),
    "branching_diagnosis_paradigm": (
        lambda: vite.build(phases=1),
        [dict(nprocs=2, nthreads=2), dict(nprocs=2, nthreads=4)],
        lambda pf, a, b: branching_diagnosis_paradigm(pf, a, b, max_ranks=2),
    ),
    "differential_paradigm": (
        _S["cg"],
        [dict(nprocs=8), dict(nprocs=4)],
        lambda pf, new, old: differential_paradigm(pf, new, old),
    ),
}


def test_storage_matrix_covers_every_paradigm():
    exported = {n for n in repro.paradigms.__all__ if n.endswith("_paradigm")}
    assert set(PARADIGM_CASES) == exported


def _through_format(fmt, mmap):
    def load(pag, tmp_path):
        path = tmp_path / f"{pag.fingerprint()}.{fmt}"
        save_pag(pag, path, include_per_rank=True, format=fmt)
        return load_pag(path, mmap=mmap)

    return load


def _buffer_twin(pag, _tmp_path):
    """What a process worker attaches: a read-only zero-copy twin over
    the format-3 image (here in a bytes object instead of /dev/shm)."""
    sink = io.BytesIO()
    write_format3(pag, sink.write, True)
    return load_format3_buffer(sink.getvalue())


#: storage cell -> (how the paradigm's input PAGs are obtained, executor)
STORAGE = {
    "heap": (lambda pag, _tmp_path: pag, "inline"),
    "format3-heap": (_through_format(3, False), "inline"),
    "format3-mmap": (_through_format(3, True), "inline"),
    "twin": (_buffer_twin, "inline"),
    "shm-process": (lambda pag, _tmp_path: pag, "process"),
}


def _storage_cell(paradigm, storage, tmp_path):
    """Simulate afresh (paradigms annotate their input), move every
    input PAG through the storage cell, run, and spell the result in bits."""
    build, runs, call = PARADIGM_CASES[paradigm]
    through, executor = STORAGE[storage]
    pflow = PerFlow(cache=False, **EXECUTORS[executor])
    prog = build()
    pags = []
    for kwargs in runs:
        live = pflow.run(bin=prog, **kwargs)
        pag = through(live, tmp_path)
        if pag is not live:
            assert pag.fingerprint() == live.fingerprint()
            ctx = pflow.context(live)
            # the loaded graph stands in for the run's PAG (parallel views)
            pflow._contexts[id(pag)] = RunContext(ctx.program, ctx.run, ctx.static_result, pag)
        pags.append(pag)
    return _bits(call(pflow, *pags))


@pytest.fixture(scope="module")
def heap_cells(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("heap")
    return {p: _storage_cell(p, "heap", tmp) for p in PARADIGM_CASES}


@pytest.mark.parametrize("storage", [s for s in STORAGE if s != "heap"])
@pytest.mark.parametrize("paradigm", list(PARADIGM_CASES))
def test_storage_is_unobservable(paradigm, storage, heap_cells, tmp_path):
    want = heap_cells[paradigm]
    assert "0x" in repr(want), "the case produced no float to compare"
    assert _storage_cell(paradigm, storage, tmp_path) == want


# ----------------------------------------------------------------------
# result columns: a pass's annotations cross every executor and the cache
# ----------------------------------------------------------------------
DAG_BRANCHES = 4


def _rank_slice(ranks):
    def rank_slice(V):
        out = VertexSet()
        for r in ranks:
            out = out.union(V.select(process=r))
        return out

    return rank_slice


def _wait_hotspots(V):
    return hotspot_detection(V, metric="wait", n=15)


def _join(*sets):
    return VertexSet().union(*sets)


def _dag_graph():
    """``bench``'s dag_backends shape: per rank slice of one shared
    parallel view, comm filter → hotspots → backtracking, then a join."""
    one = ((VertexSet,), (VertexSet,))
    g = PerFlowGraph("dag")
    V = g.input("V", VertexSet)
    ends = []
    for k in range(DAG_BRANCHES):
        s = g.add_pass(_rank_slice((2 * k, 2 * k + 1)), V, name=f"slice_{k}", signature=one)
        c = g.add_pass(comm_filter, s, name=f"comm_{k}")
        h = g.add_pass(_wait_hotspots, c, name=f"hot_{k}", signature=one)
        ends.append(g.add_pass(backtracking_analysis, h, name=f"bt_{k}").out(0))
    g.add_pass(_join, *ends, name="join", signature=((VertexSet,) * len(ends), (VertexSet,)))
    return g


@pytest.fixture(scope="module")
def zeus_pv():
    pflow = PerFlow()
    pag = pflow.run(bin=registry("S")["zeusmp"](), nprocs=2 * DAG_BRANCHES)
    return pflow.parallel_view(pag, max_ranks=2 * DAG_BRANCHES)


DAG_EXECUTORS = dict(EXECUTORS, thread={"jobs": 4, "backend": "thread"})


def _dag_cell(pv, executor, cache_state):
    run_args = dict(DAG_EXECUTORS[executor])
    run_args["cache"] = PassCache() if cache_state != "off" else False
    if cache_state == "warm":
        _dag_graph().run(**run_args, V=pv.vs)
        obs_metrics.registry.reset()
    return _dag_graph().run(**run_args, V=pv.vs)


def _dag_bits(out):
    """Every node's output: ids for the (large, column-less) input and
    slices, elements and columns in bits for the rest."""
    big = {name for name in out if name == "V" or name.startswith("slice_")}
    return {n: v.ids().tolist() if n in big else _bits(v) for n, v in out.items()}


@pytest.mark.parametrize("cache_state", CACHE_STATES)
@pytest.mark.parametrize("executor", list(DAG_EXECUTORS))
def test_result_columns_are_identical_in_every_cell(executor, cache_state, zeus_pv):
    want = _dag_cell(zeus_pv, "inline", "off")
    roots = [r for k in range(DAG_BRANCHES) for r in want[f"bt_{k}"][0].values("backtrack_root")]
    assert any(roots) and not all(roots)
    assert want["join"].columns == ("backtrack_root",)
    state = (zeus_pv.fingerprint(), zeus_pv._vprops.version)
    got = _dag_cell(zeus_pv, executor, cache_state)
    assert _dag_bits(got) == _dag_bits(want)
    assert (zeus_pv.fingerprint(), zeus_pv._vprops.version) == state
    n_passes = 4 * DAG_BRANCHES + 1
    if cache_state == "warm":
        assert obs_metrics.counter("dataflow.cache.hits").value == n_passes
    elif executor == "process":
        # every pass ran in a worker and its answer came home: only the
        # input node is the coordinator's
        assert obs_metrics.counter("dataflow.procpool.tasks").value == n_passes
        assert obs_metrics.counter("dataflow.procpool.inline").value == 1


@pytest.mark.parametrize("executor", ["inline", "process"])
def test_one_content_digest_per_pag_per_run(executor, zeus_pv, monkeypatch):
    """Nothing writes to the graph mid-run, so ``PAG.fingerprint`` digests
    it once however many nodes key on it (once per annotating node
    before).  The digest ``write_format3`` stamps into the image it
    publishes (``obj_canon=``: the graph as a loader rebuilds it) is the
    format's own and not counted."""
    import repro.cache.fingerprint as fingerprint_mod

    digested = Counter()
    real = fingerprint_mod.content_digest

    def counting(pag, obj_canon=None):
        if obj_canon is None:
            digested[id(pag)] += 1
        return real(pag, obj_canon)

    monkeypatch.setattr(fingerprint_mod, "content_digest", counting)
    pv = zeus_pv.copy()  # no memoized fingerprint yet
    _dag_graph().run(**EXECUTORS[executor], cache=PassCache(), V=pv.vs)
    assert digested == {id(pv): 1}


def test_imbalance_pipeline_is_served_from_cache_over_one_mapped_file(tmp_path):
    """serve's ``imbalance`` pipeline against one format-3 file: the second
    request is all hits (the stored sets still name the file's own
    fingerprint), and nothing promotes a mapped column to the heap."""
    from repro.serve.pipelines import build_graph

    pag = PerFlow().run(bin=registry("S")["zeusmp"](), nprocs=8)
    path = tmp_path / "zeusmp.pag3"
    save_pag(pag, path, include_per_rank=True, format=3)
    cache = PassCache()
    rows = []
    for _request in range(2):
        mapped = load_pag(path, mmap=True)
        rows.append(build_graph("imbalance", {}).run(cache=cache, V=mapped.vs)["result"])
    assert rows[0] == rows[1] and len(rows[0]) > 0
    assert obs_metrics.counter("dataflow.cache.misses").value == 3
    assert obs_metrics.counter("dataflow.cache.hits").value == 3
    assert obs_metrics.counter("pag.columns.lazy").value > 0
    assert obs_metrics.counter("pag.columns.materialized").value == 0


# ----------------------------------------------------------------------
# metamorphic checks the paper's semantics imply
# ----------------------------------------------------------------------
@pytest.fixture()
def zeus8():
    pflow = PerFlow()
    return pflow, pflow.run(bin=registry("S")["zeusmp"](), nprocs=8)


def test_rank_permutation_invariance_of_hotspot_and_imbalance(zeus8):
    """Renumbering the ranks renames the imbalanced ones and nothing else."""
    _, pag = zeus8
    perm = np.roll(np.arange(8), 3)  # new rank i holds old rank perm[i]
    renumbered = pag.copy()
    for v in renumbered.vertices():
        vec = v["time_per_rank"]
        if isinstance(vec, np.ndarray):
            v["time_per_rank"] = vec[perm]
    assert renumbered.fingerprint() != pag.fingerprint()
    hot, hot_r = hotspot_detection(pag.vs, n=20), hotspot_detection(renumbered.vs, n=20)
    assert _bits(hot) == _bits(
        VertexSet.from_ids(pag, hot_r.ids())
    )  # same vertices, same order; the vectors are the only difference
    imb, imb_r = imbalance_analysis(pag.vs), imbalance_analysis(renumbered.vs)
    assert len(imb) > 0 and set(imb.ids().tolist()) == set(imb_r.ids().tolist())
    found_r = dict(
        zip(imb_r.ids().tolist(), zip(imb_r.values("imbalanced_ranks"), imb_r.values("imbalance")))
    )
    for v in imb:
        ranks_r, ratio_r = found_r[v.id]
        assert sorted(int(perm[r]) for r in ranks_r) == v["imbalanced_ranks"]
        assert ratio_r == pytest.approx(v["imbalance"], rel=1e-12)


def test_differential_of_a_run_with_itself_is_empty(zeus8, tmp_path):
    """``differential(a, a) = ∅`` — also when one side went through a file,
    which needs the file to hold the same bits."""
    pflow, pag = zeus8
    assert len(differential_analysis(pag.vs, pag.vs, min_delta=1e-300)) == 0
    for fmt in (3,):
        path = tmp_path / f"a.{fmt}"
        save_pag(pag, path, include_per_rank=True, format=fmt)
        back = load_pag(path, mmap=True)
        diff = differential_analysis(pag.vs, back.vs)
        assert {t for t in diff.values("time") if t is not None} == {0.0}
        assert len(differential_analysis(back.vs, pag.vs, min_delta=1e-300)) == 0
        rep = differential_paradigm(pflow, back, pag)
        assert rep.total_delta == 0.0
        assert len(rep.regressions) == len(rep.improvements) == 0


@pytest.mark.parametrize("k", [4.0, 0.5])
def test_uniform_slowdown_keeps_the_critical_path(k):
    """Every activity k× slower: same path, k× the weight (k a power of
    two, so the scaling itself is exact)."""
    pflow = PerFlow()
    pag = pflow.run(bin=registry("S")["cg"](), nprocs=4)
    pv = pflow.parallel_view(pag)
    slow = pv.copy()
    for v in slow.vertices():
        for key in ("time", "wait"):
            if v[key] is not None:
                v[key] = k * v[key]
    vs, es, weight = critical_path_analysis(pv.vs)
    vs_k, es_k, weight_k = critical_path_analysis(slow.vs)
    assert len(vs) > 1 and weight > 0
    assert vs_k.ids().tolist() == vs.ids().tolist()
    assert es_k.ids().tolist() == es.ids().tolist()
    assert weight_k == k * weight


# ----------------------------------------------------------------------
# cache soundness: inputs that differ in any bit do not share an entry
# ----------------------------------------------------------------------
def _hottest_graph(threshold):
    g = PerFlowGraph("hottest")
    V = g.input("V", VertexSet)
    g.add_pass(
        lambda s: (threshold, max(t for t in s.values("time") if t is not None)),
        V,
        name="hottest",
        signature=((VertexSet,), ("any",)),
    )
    return g


def test_pags_differing_below_1e9_do_not_share_a_cache_entry():
    a = PerFlow().run(bin=microbench.build(), nprocs=4, nthreads=4)
    b = a.copy()
    hottest = max(a.vs, key=lambda v: v["time"] or 0.0)
    b.vertex(hottest.id)["time"] = hottest["time"] + 1e-12
    assert b.vertex(hottest.id)["time"] != hottest["time"]
    assert a.fingerprint() != b.fingerprint()
    cache = PassCache()
    out_a = _hottest_graph(1.0).run(cache=cache, V=a.vs)["hottest"]
    out_b = _hottest_graph(1.0).run(cache=cache, V=b.vs)["hottest"]
    assert obs_metrics.counter("dataflow.cache.misses").value == 2
    assert "dataflow.cache.hits" not in obs_metrics.registry
    assert out_a[1] == hottest["time"] and out_b[1] == hottest["time"] + 1e-12


def test_float_parameters_differing_below_1e9_do_not_share_a_cache_entry(micro):
    _, pag4, _ = micro
    cache = PassCache()
    lo = _hottest_graph(1.2000000001).run(cache=cache, V=pag4.vs)["hottest"]
    hi = _hottest_graph(1.2000000002).run(cache=cache, V=pag4.vs)["hottest"]
    assert obs_metrics.counter("dataflow.cache.misses").value == 2
    assert "dataflow.cache.hits" not in obs_metrics.registry
    assert (lo[0], hi[0]) == (1.2000000001, 1.2000000002)
    # and the same parameter does hit
    again = _hottest_graph(1.2000000002).run(cache=cache, V=pag4.vs)["hottest"]
    assert obs_metrics.counter("dataflow.cache.hits").value == 1 and again == hi


# ----------------------------------------------------------------------
# import order: each package importable first in a clean interpreter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("package", ["repro.passes", "repro.dataflow", "repro.paradigms"])
def test_package_imports_first_in_a_fresh_interpreter(package):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = f"import {package}; from repro.dataflow import PerFlow; import repro.passes"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
