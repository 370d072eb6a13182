"""The ``PerFlow`` facade — the paper's high-level Python API (§2.2).

One object exposes the whole workflow::

    pflow = PerFlow()
    pag = pflow.run(bin=program, cmd="mpirun -np 4 ./a.out")
    V_comm = pflow.filter(pag.V, name="MPI_*")
    V_hot = pflow.hotspot_detection(V_comm)
    V_imb = pflow.imbalance_analysis(V_hot)
    V_bd = pflow.breakdown_analysis(V_imb)
    pflow.report(V_imb, V_bd, attrs=["name", "comm-info", "debug-info", "time"])

plus the low-level constants and helpers of §4.3.1 (``pflow.MPI``,
``pflow.COLL_COMM``, ``pflow.lowest_common_ancestor``, …) so
user-defined passes can be written exactly as in the paper's listings.

The "binary" is a :class:`~repro.ir.model.Program` model; ``cmd`` is
parsed for ``-np N`` / ``-n N`` for fidelity with the paper's
``pflow.run(bin=..., cmd="mpirun -np 4 ./a.out")``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.dataflow import lowlevel
from repro.dataflow.graph import PerFlowGraph
from repro.ir.model import Program
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet
from repro.pag.views import build_parallel_view, build_top_down_view
from repro.passes import (
    Report,
    backtracking_analysis,
    breakdown_analysis,
    causal_analysis,
    comm_filter,
    contention_detection,
    critical_path_analysis,
    differential_analysis,
    filter_set,
    hotspot_detection,
    imbalance_analysis,
)
from repro.runtime.executor import run_program
from repro.runtime.machine import MachineModel
from repro.runtime.records import RunResult
from repro.runtime.sampler import dynamic_overhead_percent


@dataclass
class RunContext:
    """Everything PerFlow remembers about one executed run."""

    program: Program
    run: RunResult
    static_result: Any
    pag: PAG
    _pv_cache: Dict[Tuple[Optional[int], bool], PAG] = field(default_factory=dict)


def _parse_np(cmd: Optional[str]) -> Optional[int]:
    if not cmd:
        return None
    m = re.search(r"-(?:np|n)\s+(\d+)", cmd)
    return int(m.group(1)) if m else None


class PerFlow:
    """The high-level programming interface."""

    # -- low-level constants, re-exported for listing-fidelity -------------
    MPI = lowlevel.MPI
    LOOP = lowlevel.LOOP
    BRANCH = lowlevel.BRANCH
    FUNCTION = lowlevel.FUNCTION
    CALL = lowlevel.CALL
    INSTRUCTION = lowlevel.INSTRUCTION
    COMM = lowlevel.COMM
    CTRL_FLOW = lowlevel.CTRL_FLOW
    DATA_FLOW = lowlevel.DATA_FLOW
    CALL_EDGE = lowlevel.CALL_EDGE
    THREAD_DEP = lowlevel.THREAD_DEP
    COLL_COMM = lowlevel.COLL_COMM
    IN_EDGE = lowlevel.IN_EDGE
    OUT_EDGE = lowlevel.OUT_EDGE

    def __init__(
        self,
        sampling_hz: float = 200.0,
        machine: Optional[MachineModel] = None,
        jobs: Optional[int] = None,
        cache: Any = None,
        backend: Optional[str] = None,
    ) -> None:
        self.sampling_hz = sampling_hz
        self.machine = machine or MachineModel()
        #: defaults handed to PerFlowGraphs built via :meth:`perflowgraph`;
        #: :meth:`PerFlowGraph.run` resolves them (None → ``PERFLOW_*``
        #: → serial / ``"thread"`` / disabled).
        self.jobs = jobs
        self.backend = backend
        if isinstance(cache, (str, Path)):
            # A directory is opened once: this facade's graphs share one
            # disk-backed PassCache.
            from repro.cache import resolve_cache

            cache = resolve_cache(cache)
        self.cache = cache
        self._contexts: Dict[int, RunContext] = {}

    # ------------------------------------------------------------------
    # running programs
    # ------------------------------------------------------------------
    def run(
        self,
        bin: Program,  # noqa: A002 - paper API name
        cmd: Optional[str] = None,
        nprocs: Optional[int] = None,
        nthreads: int = 1,
        params: Optional[Dict[str, Any]] = None,
    ) -> PAG:
        """Run the program and return its top-down PAG (Listing 1).

        Rank count comes from ``nprocs`` or is parsed from ``cmd``
        (``mpirun -np N …``); default 1.
        """
        n = nprocs if nprocs is not None else (_parse_np(cmd) or 1)
        run = run_program(bin, nprocs=n, nthreads=nthreads, params=params, machine=self.machine)
        pag, static_result = build_top_down_view(bin, run)
        pag.metadata["dynamic_overhead_pct"] = dynamic_overhead_percent(run, self.sampling_hz)
        self._contexts[id(pag)] = RunContext(bin, run, static_result, pag)
        return pag

    def context(self, pag: PAG) -> RunContext:
        """The run context of a PAG produced by :meth:`run`."""
        try:
            return self._contexts[id(pag)]
        except KeyError:
            raise KeyError(
                "this PAG was not produced by PerFlow.run() on this instance"
            ) from None

    def parallel_view(
        self,
        pag: PAG,
        max_ranks: Optional[int] = None,
        expand_threads: bool = False,
    ) -> PAG:
        """The parallel view of a run's PAG (§3.4), cached per arguments."""
        ctx = self.context(pag)
        key = (max_ranks, expand_threads)
        pv = ctx._pv_cache.get(key)
        if pv is None:
            pv = build_parallel_view(
                pag, ctx.static_result, ctx.run,
                max_ranks=max_ranks, expand_threads=expand_threads,
            )
            ctx._pv_cache[key] = pv
        return pv

    def instances(
        self,
        V: VertexSet,
        pag: PAG,
        max_ranks: Optional[int] = None,
        expand_threads: bool = False,
        all_ranks: bool = False,
    ) -> VertexSet:
        """Map top-down vertices to their parallel-view instances.

        Where ``V`` answers ``imbalanced_ranks`` (a column of the
        imbalance pass's output, or a user's own PAG property) only those
        ranks' instances are returned unless ``all_ranks`` is set.  Vertices are matched to ``pag`` by id, so
        sets from a difference PAG (identical structure) work too.
        """
        pv = self.parallel_view(pag, max_ranks=max_ranks, expand_threads=expand_threads)
        ntd = pag.num_vertices
        nprocs = pv.metadata["nprocs"]
        nthreads = pv.metadata["nthreads"]
        threads = np.arange(nthreads if expand_threads else 1, dtype=np.int64)
        # one id-arithmetic broadcast per vertex instead of minting a
        # handle per (rank, thread) instance
        all_rank_ids = np.arange(nprocs, dtype=np.int64)
        vids = V.ids()
        rank_lists = V.values("imbalanced_ranks")
        chunks = []
        for vid, ranks in zip(vids, rank_lists):
            if all_ranks or not ranks:
                rank_ids = all_rank_ids
            else:
                rank_ids = np.asarray(
                    [r for r in ranks if 0 <= r < nprocs], dtype=np.int64
                )
            flows = (rank_ids[:, None] * nthreads + threads[None, :]).ravel()
            chunks.append(flows * ntd + vid)
        if not chunks:
            return VertexSet()
        return VertexSet.from_ids(pv, np.concatenate(chunks))

    # ------------------------------------------------------------------
    # built-in passes (high-level API)
    # ------------------------------------------------------------------
    def filter(self, V: VertexSet, **kwargs: Any) -> VertexSet:
        """Name/label/property filter (Listing 1's ``pflow.filter``)."""
        return filter_set(V, **kwargs)

    def comm_filter(self, V: VertexSet) -> VertexSet:
        return comm_filter(V)

    def hotspot_detection(self, V: VertexSet, metric: str = "time", n: int = 10) -> VertexSet:
        return hotspot_detection(V, metric=metric, n=n)

    def imbalance_analysis(self, V: VertexSet, **kwargs: Any) -> VertexSet:
        return imbalance_analysis(V, **kwargs)

    def breakdown_analysis(self, V: VertexSet, **kwargs: Any) -> VertexSet:
        return breakdown_analysis(V, **kwargs)

    def differential_analysis(
        self, V1: VertexSet, V2: VertexSet, scale2: float = 1.0, min_delta: float = 0.0
    ) -> VertexSet:
        return differential_analysis(V1, V2, scale2=scale2, min_delta=min_delta)

    def causal_analysis(self, V: VertexSet, **kwargs: Any) -> Tuple[VertexSet, EdgeSet]:
        return causal_analysis(V, **kwargs)

    def contention_detection(self, V: VertexSet, **kwargs: Any) -> Tuple[VertexSet, EdgeSet]:
        return contention_detection(V, **kwargs)

    def backtracking_analysis(self, V: VertexSet, **kwargs: Any) -> Tuple[VertexSet, EdgeSet]:
        return backtracking_analysis(V, **kwargs)

    def critical_path(self, V: VertexSet, **kwargs: Any):
        return critical_path_analysis(V, **kwargs)

    # -- set operations ------------------------------------------------------
    def union(self, *sets: VertexSet) -> VertexSet:
        return lowlevel.union(*sets)

    def intersection(self, a: VertexSet, b: VertexSet) -> VertexSet:
        return lowlevel.intersection(a, b)

    def difference(self, a: VertexSet, b: VertexSet) -> VertexSet:
        return lowlevel.difference(a, b)

    # -- low-level helpers ----------------------------------------------------
    def vertex(self, *args: Any, **kwargs: Any):
        return lowlevel.vertex(*args, **kwargs)

    def graph(self):
        return lowlevel.graph()

    def lowest_common_ancestor(self, v1, v2, edge_ok=None):
        return lowlevel.lowest_common_ancestor(v1, v2, edge_ok)

    def subgraph_matching(self, pag, sub_pag, candidates=None, limit=None):
        return lowlevel.subgraph_matching(pag, sub_pag, candidates=candidates, limit=limit)

    def perflowgraph(self, name: str = "perflowgraph") -> PerFlowGraph:
        """A fresh dataflow graph for declarative pass composition.

        It takes this facade's ``jobs`` / ``cache`` / ``backend`` as its
        defaults; :meth:`PerFlowGraph.run` resolves them.
        """
        return PerFlowGraph(name, jobs=self.jobs, cache=self.cache, backend=self.backend)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(
        self,
        *sets: Union[VertexSet, EdgeSet, Sequence[Union[VertexSet, EdgeSet]]],
        attrs: Sequence[str] = ("name", "time", "debug-info"),
        title: str = "PerFlow report",
        file=None,
    ) -> Report:
        """Render sets as a text report (Listing 1's ``pflow.report``).

        Accepts sets or (as in Listing 7) lists of sets.  Pass
        ``file=sys.stdout`` to print; the :class:`Report` is returned
        either way.
        """
        report = Report(title)
        flat = []
        for s in sets:
            if isinstance(s, (VertexSet, EdgeSet)):
                flat.append(s)
            else:
                flat.extend(s)
        for i, s in enumerate(flat):
            kind = "edges" if isinstance(s, EdgeSet) else "vertices"
            report.add_set(s, attrs, heading=f"set {i + 1} ({len(s)} {kind})")
        if file is not None:
            print(report.to_text(), file=file)
        return report
