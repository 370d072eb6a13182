"""Performance-regression paradigm (paper §4.3.2-B, Fig. 7).

Compare two executions of the same program — different inputs,
parameters, library versions — and rank what changed.  Fig. 7's point:
the vertex whose *difference* dominates need not be a hotspot in either
run (MPI_Reduce there), so regressions hide from plain profiles; graph
difference surfaces them directly.

The paradigm reports regressions (got slower) and improvements (got
faster) separately, each with its share of the total delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dataflow.api import PerFlow
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet
from repro.passes.report import Report


@dataclass
class RegressionReport:
    """Ranked performance changes between two runs."""

    total_delta: float
    #: vertices that got slower, worst first (column: `delta_share`)
    regressions: VertexSet = field(default_factory=lambda: VertexSet([]))
    #: vertices that got faster, best first
    improvements: VertexSet = field(default_factory=lambda: VertexSet([]))
    report: Optional[Report] = None


def differential_paradigm(pflow: PerFlow, pag_new: PAG, pag_old: PAG) -> RegressionReport:
    """Rank regressions/improvements of ``pag_new`` relative to ``pag_old``.

    Only *leaf-exclusive* changes are ranked (``excl_time`` deltas):
    inclusive deltas would list every ancestor of one regressed leaf
    (exactly the main/loop/function noise a human filters out of Fig. 7
    mentally).  Changes below 1% of the total absolute delta are
    dropped; each list keeps its 10 largest.
    """
    V_diff = pflow.differential_analysis(pag_new.vs, pag_old.vs)
    excl = V_diff.values("excl_time")
    deltas = [float(d) for d in excl if d is not None]
    total_abs = sum(abs(d) for d in deltas) or 1.0
    shares = [None if d is None else abs(float(d)) / total_abs for d in excl]
    changed = V_diff.with_columns(delta_share=shares).filter(
        lambda v: v["delta_share"] is not None and v["delta_share"] >= 0.01
    )
    regressions = changed.filter(lambda v: v["excl_time"] > 0).sort_by("excl_time").top(10)
    improvements = (
        changed.filter(lambda v: v["excl_time"] <= 0).sort_by("excl_time", reverse=False).top(10)
    )
    report = pflow.report(
        regressions,
        improvements,
        attrs=["name", "excl_time", "debug-info", "delta_share"],
        title="performance differential",
    )
    return RegressionReport(
        total_delta=sum(deltas),
        regressions=regressions,
        improvements=improvements,
        report=report,
    )
