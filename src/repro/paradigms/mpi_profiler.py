"""MPI profiler paradigm (inspired by mpiP [62]; artifact appendix A.3.1).

Produces the statistical communication profile mpiP prints: one row per
MPI call site with aggregate time, percentage of total application time,
call count, message bytes, and per-rank min/mean/max.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from repro.dataflow.api import PerFlow
from repro.dataflow.graph import PerFlowGraph
from repro.dataflow.signatures import signature
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet
from repro.passes.filters import comm_filter
from repro.passes.hotspot import hotspot_detection


@dataclass(frozen=True)
class MPIProfileRow:
    """One mpiP-style profile row."""

    name: str
    site: str
    time: float
    app_pct: float
    count: int
    total_bytes: float
    min_rank_time: float
    mean_rank_time: float
    max_rank_time: float


def build_mpi_profiler_graph(pflow: PerFlow, total: float, top: int = 20) -> PerFlowGraph:
    """The mpiP pipeline as an explicit PerFlowGraph.

    Three nodes: ``comm_filter`` keeps communication vertices,
    ``hotspot`` ranks them by aggregate time, and ``profile_rows``
    formats the ranked set into :class:`MPIProfileRow` records.
    Running the pipeline with tracing enabled therefore yields one
    ``node:<name>`` span per stage with ``in_size``/``out_size`` args.
    """
    g = pflow.perflowgraph("mpi-profiler")
    V = g.input("V", VertexSet)
    V_comm = g.add_pass(comm_filter, V, name="comm_filter")
    # Parameters are bound as plain values, never the PerFlow facade, so
    # the result cache can key these passes and skip them on warm reruns.
    V_hot = g.add_pass(partial(hotspot_detection, metric="time", n=top), V_comm, name="hotspot")
    g.add_pass(partial(_profile_rows, total=total), V_hot, name="profile_rows")
    return g


def mpi_profiler_paradigm(pflow: PerFlow, pag: PAG, top: int = 20) -> List[MPIProfileRow]:
    """Statistical MPI profile of a run, hottest sites first.

    ``app_pct`` is the site's share of total aggregate time (the largest
    inclusive time across ranks: the root's) — the quantity mpiP reports
    as "% of total time" and that case study A quotes for mpi_allreduce_
    (0.06% at 16 ranks vs 7.93% at 2,048).  ``repro serve``'s
    ``mpi_profiler`` pipeline returns these rows with this denominator.
    """
    total = pag.vs.max("time")
    g = build_mpi_profiler_graph(pflow, total, top=top)
    return g.run(V=pag.vs)["profile_rows"]


@signature(inputs=(VertexSet,), outputs=("any",))
def _profile_rows(V_hot: VertexSet, total: float) -> List[MPIProfileRow]:
    rows: List[MPIProfileRow] = []
    for v in V_hot:
        t = float(v["time"] or 0.0)
        if t <= 0.0:
            continue
        per_rank = v["time_per_rank"]
        if isinstance(per_rank, np.ndarray) and per_rank.size:
            mn, mean, mx = float(per_rank.min()), float(per_rank.mean()), float(per_rank.max())
        else:
            mn = mean = mx = t
        info = v["comm-info"] or {}
        rows.append(
            MPIProfileRow(
                name=v.name,
                site=str(v["debug-info"]),
                time=t,
                app_pct=100.0 * t / total if total > 0 else 0.0,
                count=int(v["count"] or 0),
                total_bytes=float(info.get("bytes", 0.0)),
                min_rank_time=mn,
                mean_rank_time=mean,
                max_rank_time=mx,
            )
        )
    return rows
