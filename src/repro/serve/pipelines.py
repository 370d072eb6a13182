"""Named analysis pipelines the server can run on an uploaded PAG.

:data:`PIPELINES` maps a wire name to ``(build, defaults)``: ``build``
takes the merged parameters and returns a
:class:`~repro.dataflow.graph.PerFlowGraph` with one declared input
``V`` (the PAG's full vertex set) and a final pass named ``result``
whose output is plain JSON-safe data (lists of dicts) — streamable to
the client and storable in the content-addressed result cache.

Builders bind *plain parameter values only* (never live graphs or
server objects), as ``functools.partial`` keywords of module-level
passes: :func:`repro.cache.keys.pass_identity` keys a pass by source +
bound values, so two requests with the same pipeline, the same params,
and the same PAG fingerprint produce identical cache keys — across
threads, processes, and server restarts.  That identity is also what
the single-flight tier collapses on.

The table is a plain dict: tests (and deployments embedding the server)
add their own entries to it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from repro.dataflow.graph import PerFlowGraph
from repro.dataflow.signatures import signature
from repro.pag.sets import VertexSet
from repro.paradigms.mpi_profiler import _profile_rows
from repro.passes.filters import comm_filter
from repro.passes.hotspot import hotspot_detection
from repro.passes.imbalance import imbalance_analysis

__all__ = ["PIPELINES", "build_graph"]


def build_graph(name: str, params: Dict[str, Any]) -> PerFlowGraph:
    """Build the named pipeline's graph with defaults + ``params`` merged.

    Raises :class:`KeyError` for an unknown pipeline and
    :class:`ValueError` for parameter names the pipeline doesn't take.
    """
    try:
        build, defaults = PIPELINES[name]
    except KeyError:
        raise KeyError(
            f"unknown pipeline {name!r}; available: {', '.join(sorted(PIPELINES))}"
        )
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"pipeline {name!r} takes no param(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(defaults)) or '(none)'}"
        )
    return build({**defaults, **params})


# ----------------------------------------------------------------------
# JSON-safe row formatters (module-level: stable pass identities)
# ----------------------------------------------------------------------
@signature(inputs=(VertexSet,), outputs=("any",))
def _vertex_rows(V: VertexSet) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for v in V:
        rows.append(
            {
                "name": v.name,
                "site": str(v["debug-info"]),
                "time": float(v["time"] or 0.0),
                "count": int(v["count"] or 0),
            }
        )
    return rows


@signature(inputs=(VertexSet, VertexSet), outputs=("any",))
def _mpi_profile_rows(V_hot: VertexSet, V: VertexSet) -> List[Dict[str, Any]]:
    """The MPI profiler paradigm's rows in wire fields."""
    return [
        {
            "name": r.name,
            "site": r.site,
            "time": r.time,
            "app_pct": r.app_pct,
            "count": r.count,
            "bytes": r.total_bytes,
        }
        for r in _profile_rows(V_hot, V.max("time"))
    ]


# ----------------------------------------------------------------------
# built-in pipelines
# ----------------------------------------------------------------------
def _build_hotspot(params: Dict[str, Any]) -> PerFlowGraph:
    hotspot = partial(hotspot_detection, metric=str(params["metric"]), n=int(params["top"]))
    g = PerFlowGraph("serve-hotspot")
    V = g.input("V", VertexSet)
    V_hot = g.add_pass(hotspot, V, name="hotspot")
    g.add_pass(_vertex_rows, V_hot, name="result")
    return g


def _build_mpi_profiler(params: Dict[str, Any]) -> PerFlowGraph:
    hotspot = partial(hotspot_detection, metric="time", n=int(params["top"]))
    g = PerFlowGraph("serve-mpi-profiler")
    V = g.input("V", VertexSet)
    V_comm = g.add_pass(comm_filter, V, name="comm_filter")
    V_hot = g.add_pass(hotspot, V_comm, name="hotspot")
    g.add_pass(_mpi_profile_rows, V_hot, V, name="result")
    return g


def _build_imbalance(params: Dict[str, Any]) -> PerFlowGraph:
    imbalance = partial(imbalance_analysis, threshold=float(params["threshold"]))
    top = partial(hotspot_detection, metric="time", n=int(params["top"]))
    g = PerFlowGraph("serve-imbalance")
    V = g.input("V", VertexSet)
    V_imb = g.add_pass(imbalance, V, name="imbalance")
    V_top = g.add_pass(top, V_imb, name="top")
    g.add_pass(_vertex_rows, V_top, name="result")
    return g


#: Wire name → ``(build, defaults)``; :func:`build_graph` reads it.
PIPELINES: Dict[str, Tuple[Callable[[Dict[str, Any]], PerFlowGraph], Dict[str, Any]]] = {
    "hotspot": (_build_hotspot, {"metric": "time", "top": 10}),
    "mpi_profiler": (_build_mpi_profiler, {"top": 20}),
    "imbalance": (_build_imbalance, {"threshold": 1.2, "top": 10}),
}
