"""``dag_backends``: one graph of built-in passes, five ways to run it.

In-process, because the dataflow scheduler, the process pool and the
pass cache are library layers with no CLI path that exercises them at
this size.  One op is a *sweep*: the same 8-branch graph over the
ZeusMP-128 32-flow parallel view run serial, on 2 threads, on 2 forked
processes, with a cold cache (fresh ``PassCache`` + ``DiskStore``) and
with that cache warm.  Every mode must return what the serial run
returned, and ``/dev/shm`` must look after the run as it did before.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Any, Callable, Dict, List, Tuple

from bench import expected, loadgen
from bench.harness import Outcome, RunDir, RunResult, median
from bench.trace import Tracer

SETUP_REPS = 3
NPROCS = 128
MAX_RANKS = loadgen.DAG_BRANCHES * loadgen.DAG_RANKS_PER_BRANCH
HOT_N = 40


def _slice_pass(ranks: Tuple[int, ...]) -> Callable:
    from repro.dataflow import lowlevel
    from repro.passes import filter_set

    def rank_slice(V: Any) -> Any:
        return lowlevel.union(*[filter_set(V, process=r) for r in ranks])

    return rank_slice


def _hot(V: Any) -> Any:
    from repro.passes import hotspot_detection

    return hotspot_detection(V, metric="wait", n=HOT_N)


def _build_graph() -> Any:
    from repro.dataflow import lowlevel
    from repro.dataflow.graph import PerFlowGraph
    from repro.pag.sets import VertexSet
    from repro.passes import backtracking_analysis, comm_filter

    one = ((VertexSet,), (VertexSet,))
    g = PerFlowGraph("dag-backends")
    V = g.input("V", VertexSet)
    ends = []
    for k, ranks in enumerate(loadgen.dag_slices()):
        s = g.add_pass(_slice_pass(tuple(ranks)), V, name=f"slice_{k}", signature=one)
        c = g.add_pass(comm_filter, s, name=f"comm_{k}")
        h = g.add_pass(_hot, c, name=f"hot_{k}", signature=one)
        b = g.add_pass(backtracking_analysis, h, name=f"bt_{k}")
        ends.append(b.out(0))
    g.add_pass(
        lambda *vs: lowlevel.union(*vs), *ends, name="join",
        signature=((VertexSet,) * len(ends), (VertexSet,)),
    )
    return g


def _direct(pv: Any) -> Any:
    """The same analysis as plain function composition, no graph."""
    from repro.dataflow import lowlevel
    from repro.passes import backtracking_analysis, comm_filter

    ends = []
    for ranks in loadgen.dag_slices():
        hot = _hot(comm_filter(_slice_pass(tuple(ranks))(pv.vs)))
        ends.append(backtracking_analysis(hot)[0])
    return lowlevel.union(*ends)


def _setup(tracer=None) -> Tuple[Any, Any]:
    from repro.apps import registry
    from repro.dataflow.api import PerFlow

    pflow = PerFlow()
    pag = pflow.run(bin=registry()["zeusmp"](), nprocs=NPROCS)
    t0 = time.perf_counter()
    pv = pflow.parallel_view(pag, max_ranks=MAX_RANKS)
    if tracer is not None:
        tracer.add("pag.parallel_view", t0, time.perf_counter())
    return pv, _build_graph()


def _timed_setup() -> Tuple[float, Any, Any]:
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pv, graph = _setup()
        samples.append(time.perf_counter() - t0)
    return median(samples), pv, graph


def _ids(result: Dict[str, Any]) -> List[List[int]]:
    names = ["join"] + [f"bt_{k}" for k in range(loadgen.DAG_BRANCHES)]
    sets = [result[n] if n == "join" else result[n][0] for n in names]
    return [sorted(int(i) for i in s.ids()) for s in sets]


class _Sweeper:
    """Runs the five modes; ``mode_ms`` collects one duration per mode per sweep."""

    def __init__(self, pv: Any, graph: Any, rundir: RunDir, outcome: Outcome, tracer=None):
        self.pv, self.graph, self.rundir = pv, graph, rundir
        self.outcome, self.tracer = outcome, tracer
        self.mode_ms: Dict[str, List[float]] = {m: [] for m in loadgen.DAG_MODES}
        self.sweeps = 0
        self.recording = True

    def _timed(self, mode: str, **run_args: Any) -> Dict[str, Any]:
        t0 = time.perf_counter()
        result = self.graph.run(V=self.pv.vs, **run_args)
        t1 = time.perf_counter()
        if self.recording:
            self.mode_ms[mode].append((t1 - t0) * 1000.0)
            if self.tracer is not None:
                self.tracer.add(f"dag.{mode}", t0, t1)
        return result

    def sweep(self) -> None:
        from repro.cache import DiskStore, PassCache

        self.sweeps += 1
        cache = PassCache(disk=DiskStore(self.rundir.sub(f"dag-cache-{self.sweeps}")))
        results = {
            "serial": self._timed("serial", jobs=1, cache=False),
            "thread2": self._timed("thread2", jobs=2, backend="thread", cache=False),
            "process2": self._timed("process2", jobs=2, backend="process", cache=False),
            "cache_cold": self._timed("cache_cold", jobs=1, cache=cache),
            "cache_warm": self._timed("cache_warm", jobs=1, cache=cache),
        }
        want = _ids(results["serial"])
        why = ""
        for mode in loadgen.DAG_MODES[1:]:
            why = why or expected.check_same_ids(_ids(results[mode]), want, mode)
        self.outcome.op(not why, why)

    def warm_up(self) -> None:
        """One unmeasured sweep: first-call costs and first-touch page faults."""
        self.recording = False
        self.sweep()
        self.recording = True
        self.sweeps = 0


def _shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _cpu_s() -> float:
    return sum(os.times()[:4])  # self + reaped pool workers, user + sys


def run(name: str, seed: int, seconds: float, rundir: RunDir) -> RunResult:
    outcome = Outcome()
    shm_before = _shm()
    setup_s, pv, graph = _timed_setup()
    sweeper = _Sweeper(pv, graph, rundir, outcome)
    sweeper.warm_up()
    walls_ms: List[float] = []
    cpus_ms: List[float] = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        t0, c0 = time.perf_counter(), _cpu_s()
        sweeper.sweep()
        walls_ms.append((time.perf_counter() - t0) * 1000.0)
        cpus_ms.append((_cpu_s() - c0) * 1000.0)
    span_s = time.perf_counter() - t_start
    good = outcome.attempted - outcome.failed
    leaked = _shm() - shm_before
    outcome.op(not leaked, f"/dev/shm segments left behind: {sorted(leaked)[:3]}")
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": setup_s,
        "latency_ms_p50": median(walls_ms),
        "throughput_ops_s": good / span_s,
        "cpu_ms_per_op": median(cpus_ms),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    info = {
        "samples": len(walls_ms),
        "schedule_digest": loadgen.digest([loadgen.DAG_MODES, loadgen.dag_slices()]),
        "mode_ms_p50": {m: round(median(v), 3) for m, v in sweeper.mode_ms.items()},
    }
    return RunResult(name, seed, False, outcome, metrics, info)


def run_traced(name: str, seed: int, seconds: float, rundir: RunDir) -> RunResult:
    from repro.cache import fingerprint_pag
    from repro.obs import metrics as obs_metrics

    outcome = Outcome()
    tracer = Tracer(name)
    shm_before = _shm()
    pv, graph = _setup(tracer)
    sweeper = _Sweeper(pv, graph, rundir, outcome, tracer)
    sweeper.warm_up()

    def counter(which: str) -> int:
        return obs_metrics.registry.to_dict()["counters"].get(f"dataflow.cache.{which}", 0)

    t_start = time.perf_counter()
    while sweeper.sweeps < 3 or time.perf_counter() - t_start < seconds * 0.8:
        hits0, misses0 = counter("hits"), counter("misses")
        sweeper.sweep()
        hits, misses = counter("hits") - hits0, counter("misses") - misses0
        with tracer.span("dataflow.direct"):
            direct = _direct(pv)
        want = sorted(int(i) for i in direct.ids())
        outcome.op(
            want == _ids(graph.run(jobs=1, cache=False, V=pv.vs))[0],
            "graph result differs from plain composition",
        )
        with tracer.span("cache.fingerprint"):
            fingerprint_pag(pv)
    leaked = _shm() - shm_before
    outcome.op(not leaked, f"/dev/shm segments left behind: {sorted(leaked)[:3]}")

    mode = {m: median(v) for m, v in sweeper.mode_ms.items()}
    direct_ms = median(tracer.durations_ms("dataflow.direct"))
    metrics = {
        "dataflow.direct_ms": direct_ms,
        "dataflow.serial_ms": mode["serial"],
        "dataflow.thread2_ms": mode["thread2"],
        "dataflow.process2_ms": mode["process2"],
        "dataflow.overhead_pct": 100.0 * (mode["serial"] / direct_ms - 1.0),
        "dataflow.shm_leaked": float(len(leaked)),
        "cache.fingerprint_ms": median(tracer.durations_ms("cache.fingerprint")),
        "cache.cold_run_ms": mode["cache_cold"],
        "cache.warm_run_ms": mode["cache_warm"],
        # one sweep's cold + warm run: the cold run misses, the warm run hits
        "cache.hits": float(hits),
        "cache.misses": float(misses),
        "cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "pag.parallel_view_ms": tracer.durations_ms("pag.parallel_view")[0],
        "pag.pv_vertices": float(pv.num_vertices),
        "pag.pv_edges": float(pv.num_edges),
    }
    info = {"sweeps": sweeper.sweeps}
    return RunResult(name, seed, True, outcome, metrics, info, tracer.to_json())
