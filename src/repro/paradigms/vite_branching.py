"""The Vite-style branching PerFlowGraph (paper §5.5, Fig. 14).

A comprehensive diagnosis with parallel branches off the same run:

* branch 1 — hotspot detection on the top-down view (Fig. 15a),
* branch 2 — differential analysis against a second run at a different
  thread count (Fig. 15b), isolating the vertices that *degrade* with
  threads,
* branch 3 — causal analysis of the degrading vertices on the parallel
  view (thread flows expanded),
* branch 4 — contention detection around the suspects (Fig. 16).

The union of branch outputs, with contention embeddings, is the
diagnosis: for Vite, ``_M_realloc_insert``/``_M_emplace`` allocator
vertices serializing on the process-wide allocator lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dataflow.api import PerFlow
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet
from repro.passes.report import Report


@dataclass
class BranchingDiagnosis:
    V_hot: VertexSet
    V_diff: VertexSet
    V_causes: VertexSet
    E_causal: EdgeSet
    V_contention: VertexSet
    E_contention: EdgeSet
    report: Optional[Report] = None


def branching_diagnosis_paradigm(
    pflow: PerFlow,
    pag_base: PAG,
    pag_scaled: PAG,
    top: int = 10,
    max_ranks: Optional[int] = None,
) -> BranchingDiagnosis:
    """Fig. 14's PerFlowGraph, executed.

    ``pag_base`` is the small-thread-count run, ``pag_scaled`` the run
    that scales badly (more threads).  Differential analysis finds what
    got *worse* as threads grew; causal analysis and contention
    detection run on the scaled run's thread-expanded parallel view.
    """
    # branch 1: hotspots of the scaled run
    V_hot = pflow.hotspot_detection(pag_scaled.vs, n=top)

    # branch 2: differential — what grew by over 1% of the run when threads grew
    total = float(pag_scaled.vertex(0)["time"] or 0.0)
    V_diff_all = pflow.differential_analysis(pag_scaled.vs, pag_base.vs)
    grew = V_diff_all.filter(lambda v: (v["time"] or 0.0) > 0.01 * total)
    V_diff = pflow.hotspot_detection(grew, n=top)

    # branch 3: causal analysis on the thread-expanded parallel view
    suspects_td = VertexSet([pag_scaled.vertex(v.id) for v in V_diff])
    inst = pflow.instances(
        suspects_td, pag_scaled, max_ranks=max_ranks, expand_threads=True, all_ranks=True
    )
    V_causes, E_causal = pflow.causal_analysis(inst)

    # branch 4: contention detection around suspects + causes
    around = inst.union(V_causes)
    V_cont, E_cont = pflow.contention_detection(around)

    report = pflow.report(
        V_hot,
        V_diff,
        V_causes,
        V_cont,
        attrs=["name", "time", "wait", "debug-info", "process", "thread", "contention_hub"],
        title="branching diagnosis",
    )
    return BranchingDiagnosis(V_hot, V_diff, V_causes, E_causal, V_cont, E_cont, report)
