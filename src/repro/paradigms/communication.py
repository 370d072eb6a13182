"""Communication-analysis paradigm (paper §2.2, Fig. 2, Listing 1).

filter("MPI_*") → hotspot detection → imbalance analysis → breakdown
analysis → report.  The report carries the key attributes of detected
communication calls: function name, communication info, debug info, and
execution time.
"""

from __future__ import annotations

from typing import Tuple

from repro.dataflow.api import PerFlow
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet
from repro.passes.report import Report


def communication_analysis_paradigm(
    pflow: PerFlow, pag: PAG, top: int = 10
) -> Tuple[VertexSet, VertexSet, Report]:
    """Listing 1, as a reusable paradigm.

    Returns ``(V_imb, V_bd, report)``: the imbalanced communication
    vertices, the same set also carrying the ``breakdown`` column, and
    the rendered report.
    """
    # comm_filter generalizes Listing 1's "MPI_*" glob to Fortran bindings
    # (mpi_waitall_ etc.), which the ZeusMP case study needs.
    V_comm = pflow.comm_filter(pag.V)
    V_hot = pflow.hotspot_detection(V_comm, n=top)
    V_imb = pflow.imbalance_analysis(V_hot)
    V_bd = pflow.breakdown_analysis(V_imb)
    attrs = ["name", "comm-info", "debug-info", "time", "imbalance", "breakdown"]
    # Listing 1 reports ``V_imb, V_bd``: the same vertices, and the report
    # has always shown the breakdown in both tables — V_bd holds both.
    report = pflow.report(V_bd, V_bd, attrs=attrs, title="communication analysis")
    return V_imb, V_bd, report
