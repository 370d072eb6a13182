"""Critical-path paradigm (inspired by Böhme et al. [19] and Schmitt et
al. [54]; artifact appendix A.3.2).

Builds the parallel view and extracts the longest weighted activity
chain.  The returned path names which code snippets bound the execution
time — the snippet whose reduction actually shortens the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.algorithms.critical_path import default_vertex_weight
from repro.dataflow.api import PerFlow
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet


@dataclass
class CriticalPathResult:
    vertices: VertexSet
    edges: EdgeSet
    weight: float
    #: (name, process, thread, weight contribution) per path hop
    summary: List[tuple]


def critical_path_paradigm(
    pflow: PerFlow,
    pag: PAG,
    max_ranks: Optional[int] = None,
    expand_threads: bool = False,
) -> CriticalPathResult:
    """Critical path of a run, over its parallel view."""
    pv = pflow.parallel_view(pag, max_ranks=max_ranks, expand_threads=expand_threads)
    vertices, edges, weight = pflow.critical_path(pv.vs)
    summary = []
    for v in vertices:
        t = default_vertex_weight(v)
        if t > 0:
            summary.append((v.name, v["process"], v["thread"], t))
    return CriticalPathResult(vertices, edges, weight, summary)
