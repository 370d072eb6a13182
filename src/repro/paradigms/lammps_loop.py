"""The LAMMPS-style PerFlowGraph (paper §5.4, Fig. 11).

hotspot detection → communication filter → imbalance analysis → causal
analysis, with the imbalance→causal stage *repeated until the output
set no longer changes*; the final outputs are identified as the root
causes.  Built on :class:`~repro.dataflow.graph.PerFlowGraph` with a
fixpoint node, exactly the shape Fig. 11 draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.dataflow.api import PerFlow
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet
from repro.passes.report import Report


@dataclass
class LoopCausalResult:
    V_hot: VertexSet
    V_comm: VertexSet
    V_imb: VertexSet
    #: fixpoint of repeated causal analysis — the root causes
    V_causes: VertexSet
    E_paths: EdgeSet
    report: Optional[Report] = None


def loop_causal_paradigm(
    pflow: PerFlow, pag: PAG, max_ranks: Optional[int] = None
) -> LoopCausalResult:
    """Fig. 11's PerFlowGraph, executed.

    The causal stage maps the current suspect set onto the parallel
    view, finds common ancestors, and feeds them back in; the fixpoint
    is reached when an iteration adds no new cause vertices (at most 5
    rounds, starting from the 40 hottest vertices).
    """
    state = {"edges": EdgeSet([]), "causes": {}}

    def causal_step(V: VertexSet) -> VertexSet:
        """One causal-analysis round on the parallel view."""
        if not V:
            return V
        if V[0]["process"] is None:
            inst = pflow.instances(V, pag, max_ranks=max_ranks)
        else:
            inst = V
        causes, paths = pflow.causal_analysis(inst)
        state["edges"] = state["edges"].union(paths)
        # a later round re-derives an earlier round's chains and extends them
        state["causes"].update(zip(causes.ids().tolist(), causes.values("causes")))
        return inst.union(causes)

    g = pflow.perflowgraph("lammps-loop")
    n_hot = g.add_pass(partial(pflow.hotspot_detection, n=40), g.input("V"), name="hotspot")
    n_comm = g.add_pass(pflow.comm_filter, n_hot, name="comm_filter")
    n_imb = g.add_pass(pflow.imbalance_analysis, n_comm, name="imbalance")
    # causal_step accumulates propagation paths and cause lists into
    # ``state`` — hidden output the result cache cannot see — so it must
    # execute on every run, never be satisfied from cache.
    g.add_fixpoint(causal_step, n_imb, max_iters=5, name="causal", cacheable=False)
    outputs = g.run(V=pag.vs)

    V_fix: VertexSet = outputs["causal"]
    # Root causes: vertices that entered via causal analysis (they carry
    # `causes`) or that every propagation path converges on.
    found = [state["causes"].get(i) for i in V_fix.ids().tolist()]
    V_causes = V_fix.with_columns(causes=found).filter(lambda v: v["causes"]) or V_fix
    report = pflow.report(
        V_causes,
        attrs=["name", "time", "debug-info", "process", "causes"],
        title="loop causal analysis",
    )
    return LoopCausalResult(
        V_hot=outputs["hotspot"],
        V_comm=outputs["comm_filter"],
        V_imb=outputs["imbalance"],
        V_causes=V_causes,
        E_paths=state["edges"],
        report=report,
    )
