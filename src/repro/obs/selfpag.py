"""Self-analysis: PerFlow's own execution trace *as a PAG*.

The paper's thesis is that performance analysis = graph abstraction +
dataflow of passes.  This module closes the loop: a recorded span trace
(:mod:`repro.obs.trace`) becomes a Program Abstraction Graph whose
vertices are spans (with ``time`` = exclusive seconds) and whose edges
are the nesting structure — so the *existing* hotspot and imbalance
passes analyze PerFlow itself, with no special-cased reporting code.

Mapping:

=====================  ==================================================
span                   PAG vertex (``VertexLabel.FUNCTION``)
span name              vertex name
span category          ``debug-info`` property (what imbalance groups by,
                       together with the name)
exclusive time         ``time`` property (seconds; what hotspot sorts by)
inclusive time         ``total_time`` property
thread                 ``thread`` property (compact id), ``process`` = pid
span args              numeric/bool args copied as properties verbatim
nesting                ``INTRA_PROCEDURAL`` edge parent → child
=====================  ==================================================

Entry points: :func:`trace_to_pag` accepts a live
:class:`~repro.obs.trace.SpanRecorder`, a Chrome trace-event document
(dict), or a path to one on disk; :func:`analyze_trace` builds the PAG,
runs hotspot + imbalance, and renders a report (the engine behind
``repro obs analyze trace.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs.trace import Span, SpanRecorder
from repro.pag.edge import EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet
from repro.pag.vertex import VertexLabel

__all__ = ["trace_to_pag", "analyze_trace", "SelfAnalysis"]

TraceSource = Union[str, Path, Dict[str, Any], SpanRecorder]


def _copy_args(props: Dict[str, Any], args: Dict[str, Any]) -> None:
    for key, value in args.items():
        if isinstance(value, (int, float, bool, str)):
            props[key] = value


def _pag_shell(name: str) -> PAG:
    return PAG(f"{name}/self-trace", {"view": "self-trace", "program": name})


def trace_to_pag(source: TraceSource, name: str = "repro-trace") -> PAG:
    """Build the self-PAG from a recorder, trace document, or file.

    Every source is read as a trace document by
    :meth:`SpanRecorder.from_chrome_trace` — a live recorder is exported
    first — so a run and the ``--trace`` file it wrote give the same
    PAG.
    """
    if isinstance(source, SpanRecorder):
        source = source.to_chrome_trace(metrics={})
    elif isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            source = json.load(fh)
    return _from_recorder(SpanRecorder.from_chrome_trace(source), name)


def _dur_us(sp: Span) -> float:
    """The span's duration as the trace document stores it (µs, 3
    decimals): exact for a span read back from a document."""
    return round((sp.t_end - sp.t_start) * 1e6, 3)


def _from_recorder(rec: SpanRecorder, name: str) -> PAG:
    """One vertex per span, preorder, track by track in ``(pid, tid)``
    order; ``process`` numbers pids in that order."""
    pag = _pag_shell(name)
    root = pag.add_vertex(VertexLabel.FUNCTION, "trace", properties={"time": 0.0})
    roots, children = rec.tree()
    roots.sort(key=lambda sp: str((sp.pid, sp.tid)))  # stable: start order within a track
    pid_map: Dict[Any, int] = {}

    def add(sp: Span, parent_id: int) -> None:
        dur = _dur_us(sp)
        props: Dict[str, Any] = {
            "total_time": dur / 1e6,
            "thread": sp.tid,
            "process": pid_map.setdefault(sp.pid, len(pid_map)),
            "debug-info": sp.category or "repro",
            "count": 1,
        }
        _copy_args(props, sp.args)
        v = pag.add_vertex(VertexLabel.FUNCTION, sp.name, properties=props)
        pag.add_edge(parent_id, v.id, EdgeLabel.INTRA_PROCEDURAL)
        children_us = 0.0
        for child in children.get(sp, ()):
            children_us += _dur_us(child)
            add(child, v.id)
        v["time"] = max(dur / 1e6 - children_us / 1e6, 0.0)

    for top in roots:
        add(top, root.id)
    return pag


@dataclass
class SelfAnalysis:
    """Hotspot + imbalance results over a self-PAG."""

    pag: PAG
    hotspots: VertexSet
    imbalanced: VertexSet
    metrics: Optional[Dict[str, Any]] = None

    def to_text(self, top: int = 10) -> str:
        from repro.passes.report import Report

        report = Report(f"self-analysis of {self.pag.name}")
        report.add_set(
            self.hotspots,
            attrs=["name", "time", "total_time", "debug-info", "thread"],
            heading=f"hotspots (top {len(self.hotspots)} spans by exclusive time)",
        )
        report.add_set(
            self.imbalanced,
            attrs=["name", "time", "imbalance", "debug-info", "thread"],
            heading="imbalanced span groups (same name+category, uneven time)",
        )
        lines = [report.to_text()]
        lines.append(
            f"trace: {self.pag.num_vertices - 1} spans, "
            f"{self.pag.num_edges} nesting edges"
        )
        if self.metrics:
            lines.append("\n## metrics")
            for kind in ("counters", "gauges"):
                for mname, value in sorted(self.metrics.get(kind, {}).items()):
                    lines.append(f"  {mname:40} {value}")
            for mname, summ in sorted(self.metrics.get("histograms", {}).items()):
                lines.append(
                    f"  {mname:40} n={summ.get('count')} sum={summ.get('sum'):.6g} "
                    f"mean={summ.get('mean'):.6g}"
                )
        return "\n".join(lines)


def analyze_trace(
    source: TraceSource,
    top: int = 10,
    metrics_path: Optional[Union[str, Path]] = None,
    imbalance_threshold: float = 1.2,
) -> SelfAnalysis:
    """Run PerFlow's hotspot + imbalance passes on its own trace.

    This is the exact Listing-1 shape applied to the self-PAG: filter
    (drop the synthetic root) → hotspot detection → imbalance analysis.
    """
    # Imported here: repro.obs must stay importable without the pass
    # library.
    from repro.passes.hotspot import hotspot_detection
    from repro.passes.imbalance import imbalance_analysis

    pag = trace_to_pag(source) if not isinstance(source, PAG) else source
    V = pag.vs.select(label=VertexLabel.FUNCTION).filter(lambda v: v.id != 0)
    hot = hotspot_detection(V, metric="time", n=top)
    imb = imbalance_analysis(V, threshold=imbalance_threshold)
    metrics_doc: Optional[Dict[str, Any]] = None
    if metrics_path is not None:
        with open(metrics_path, "r", encoding="utf-8") as fh:
            metrics_doc = json.load(fh)
    return SelfAnalysis(pag=pag, hotspots=hot, imbalanced=imb, metrics=metrics_doc)
