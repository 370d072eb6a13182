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

import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.apps import microbench, registry
from repro.cache import PassCache
from repro.dataflow.api import PerFlow
from repro.dataflow.graph import PerFlowGraph
from repro.dataflow.scheduler import ThreadExecutor, WavefrontState, drive
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.paradigms import (
    loop_causal_paradigm,
    mpi_profiler_paradigm,
    scalability_analysis_paradigm,
)
from repro.paradigms.mpi_profiler import build_mpi_profiler_graph
from repro.paradigms.scalability import build_scalability_graph
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
