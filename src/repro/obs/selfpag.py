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
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.trace import SpanRecorder, Span
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
    """Build the self-PAG from a recorder, trace document, or file."""
    if isinstance(source, SpanRecorder):
        return _from_recorder(source, name)
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return _from_chrome(doc, name)
    return _from_chrome(source, name)


def _from_recorder(rec: SpanRecorder, name: str) -> PAG:
    pag = _pag_shell(name)
    root = pag.add_vertex(VertexLabel.FUNCTION, "trace", properties={"time": 0.0})
    tid_map: Dict[int, int] = {}

    def add(sp: Span, parent_id: int) -> None:
        inclusive = max(sp.t_end - sp.t_start, 0.0)
        exclusive = inclusive - sum(
            max(c.t_end - c.t_start, 0.0) for c in sp.children
        )
        props: Dict[str, Any] = {
            "time": max(exclusive, 0.0),
            "total_time": inclusive,
            "thread": tid_map.setdefault(sp.tid, len(tid_map)),
            "process": 0,
            "debug-info": sp.category or "repro",
            "count": 1,
        }
        _copy_args(props, sp.args)
        v = pag.add_vertex(VertexLabel.FUNCTION, sp.name, properties=props)
        pag.add_edge(parent_id, v.id, EdgeLabel.INTRA_PROCEDURAL)
        for child in sp.children:
            add(child, v.id)

    for top in rec.roots:
        add(top, root.id)
    return pag


def _from_chrome(doc: Dict[str, Any], name: str) -> PAG:
    """Rebuild nesting from complete events by interval containment.

    Events are grouped per (pid, tid) and replayed in start order with
    an open-span stack — the inverse of what
    :meth:`SpanRecorder.to_chrome_trace` wrote, and equally valid for
    traces produced by other Chrome-trace emitters.
    """
    if isinstance(doc, list):
        events = doc
    elif "traceEvents" in doc:
        events = doc["traceEvents"]
    else:
        raise ValueError(
            "not a Chrome trace-event document (no 'traceEvents' key)"
        )
    spans = [
        ev
        for ev in events
        if ev.get("ph") == "X" and isinstance(ev.get("ts"), (int, float))
    ]
    pag = _pag_shell(name)
    root = pag.add_vertex(VertexLabel.FUNCTION, "trace", properties={"time": 0.0})

    by_unit: Dict[Tuple[Any, Any], List[Dict[str, Any]]] = {}
    for ev in spans:
        by_unit.setdefault((ev.get("pid", 0), ev.get("tid", 0)), []).append(ev)

    pid_map: Dict[Any, int] = {}
    for (pid, tid), unit_events in sorted(by_unit.items(), key=lambda kv: str(kv[0])):
        process = pid_map.setdefault(pid, len(pid_map))
        # start ascending; ties: longer (outer) span first
        unit_events.sort(key=lambda ev: (ev["ts"], -float(ev.get("dur", 0.0))))
        # stack of (vertex_id, end_ts, children_dur_accumulator)
        stack: List[List[Any]] = []
        for ev in unit_events:
            ts = float(ev["ts"])
            dur = float(ev.get("dur", 0.0))
            while stack and ts >= stack[-1][1] - 1e-9:
                _finish(pag, stack.pop())
            props: Dict[str, Any] = {
                "total_time": dur / 1e6,
                "thread": tid,
                "process": process,
                "debug-info": ev.get("cat", "repro"),
                "count": 1,
            }
            _copy_args(props, ev.get("args") or {})
            v = pag.add_vertex(VertexLabel.FUNCTION, ev.get("name", "?"), properties=props)
            parent_id = stack[-1][0] if stack else root.id
            if stack:
                stack[-1][2] += dur
            pag.add_edge(parent_id, v.id, EdgeLabel.INTRA_PROCEDURAL)
            stack.append([v.id, ts + dur, 0.0])
        while stack:
            _finish(pag, stack.pop())
    return pag


def _finish(pag: PAG, frame: List[Any]) -> None:
    vid, _end, children_dur = frame
    v = pag.vertex(vid)
    v["time"] = max(float(v["total_time"]) - children_dur / 1e6, 0.0)


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
