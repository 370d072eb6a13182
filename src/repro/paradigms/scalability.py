"""Scalability-analysis paradigm (paper §4.4, Fig. 8, Listing 7).

Two runs at different scales feed a differential-analysis pass (every
vertex annotated with its scaling loss); hotspot detection keeps the
worst scalers, imbalance analysis keeps the unevenly distributed ones;
their union is backtracked through the large run's parallel view to the
root causes of the scaling loss (ScalAna's task, in a PerFlowGraph).

``_user_backtracking`` below is the paper's user-defined pass,
transcribed from Listing 7 lines 5-26 against this library's low-level
API: neighbor acquisition (``v.es``), edge selection (``select``),
attribute access (``v[...]``), and source-vertex acquisition
(``e.src``).  The LoC/API-count claim of §5.3 ("27 lines of code with 7
high-level APIs and 5 low-level APIs") is benchmarked against this
paradigm's source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

from repro.dataflow.api import PerFlow
from repro.pag.graph import PAG
from repro.pag.sets import IN_EDGE, EdgeSet, VertexSet
from repro.pag.vertex import Vertex
from repro.passes.report import Report


@dataclass
class ScalabilityResult:
    """Outputs of the scalability paradigm, one field per Fig. 8 edge."""

    V_diff: VertexSet
    V_hot: VertexSet
    V_imb: VertexSet
    V_union: VertexSet
    V_bt: VertexSet
    E_bt: EdgeSet
    #: deepest vertices reached by backtracking — root-cause candidates
    roots: List[Vertex] = field(default_factory=list)
    report: Optional[Report] = None


def _user_backtracking(pflow: PerFlow, V: VertexSet) -> Tuple[VertexSet, EdgeSet]:
    """Listing 7's user-defined backtracking pass, transcribed."""
    V_bt, E_bt, S, roots = [], [], set(), set()  # S for scanned vertices
    for v in V:
        if v.id not in S:
            S.add(v.id)
            in_es = v.es.select(IN_EDGE, of=v)
            while len(in_es) != 0 and v["name"] not in pflow.COLL_COMM:
                if v["type"] == pflow.MPI:
                    e = in_es.select(type=pflow.COMM) or in_es
                elif v["type"] in (pflow.LOOP, pflow.BRANCH):
                    e = in_es.select(type=pflow.CTRL_FLOW) or in_es
                else:
                    e = in_es.select(type=pflow.DATA_FLOW) or in_es
                V_bt.append(v)
                E_bt.append(e[0])
                v = e[0].src
                if v.id in S:
                    break
                S.add(v.id)
                in_es = v.es.select(IN_EDGE, of=v)
            else:
                V_bt.append(v)
                roots.add(v.id)
    is_root = [v.id in roots for v in V_bt]
    return VertexSet(V_bt).with_columns(backtrack_root=is_root), EdgeSet(E_bt)


_ONE_TO_ONE = ((VertexSet,), (VertexSet,))
_TWO_TO_ONE = ((VertexSet, VertexSet), (VertexSet,))
_ONE_TO_SET_AND_EDGES = ((VertexSet,), (VertexSet, EdgeSet))


def build_scalability_graph(
    pflow: PerFlow, pag_large: PAG, top: int = 10, max_ranks: Optional[int] = None
):
    """Fig. 8's pipeline as an explicit PerFlowGraph.

    Node names are the result keys (``differential`` … ``backtracking``).
    ``differential`` creates the difference PAG and ``instances``
    materializes the parallel view — both carry hidden state (a fresh
    graph, the facade's view cache), so they are ``cacheable=False``:
    never skipped by the result cache and always executed in the
    coordinator process under the multiprocessing backend.
    """
    g = pflow.perflowgraph("scalability")
    V1, V2 = g.input("V1", VertexSet), g.input("V2", VertexSet)
    diff = pflow.differential_analysis
    n_diff = g.add_pass(diff, V1, V2, name="differential", signature=_TWO_TO_ONE, cacheable=False)
    hot = partial(pflow.hotspot_detection, n=top)
    n_hot = g.add_pass(hot, n_diff, name="hotspot", signature=_ONE_TO_ONE)
    n_imb = g.add_pass(pflow.imbalance_analysis, n_diff, name="imbalance", signature=_ONE_TO_ONE)
    n_union = g.add_pass(pflow.union, n_hot, n_imb, name="union", signature=_TWO_TO_ONE)
    inst = partial(pflow.instances, pag=pag_large, max_ranks=max_ranks)
    n_inst = g.add_pass(inst, n_union, name="instances", signature=_ONE_TO_ONE, cacheable=False)
    backtrack = partial(_user_backtracking, pflow)
    g.add_pass(backtrack, n_inst, name="backtracking", signature=_ONE_TO_SET_AND_EDGES)
    return g


def scalability_analysis_paradigm(
    pflow: PerFlow,
    pag_small: PAG,
    pag_large: PAG,
    top: int = 10,
    max_ranks: Optional[int] = None,
) -> ScalabilityResult:
    """Listing 7's paradigm body (Part 2), parameterized.

    ``pag_small``/``pag_large`` are the two runs' PAGs (e.g. 4 vs 64
    ranks in Listing 7, 16 vs 2,048 in case study A).  ``max_ranks``
    caps the materialized parallel view for backtracking (the paper
    plots partial views for the same reason).
    """
    g = build_scalability_graph(pflow, pag_large, top, max_ranks)
    out = g.run(V1=pag_large.vs, V2=pag_small.vs)
    V_bt, E_bt = out["backtracking"]
    roots = [v for v in V_bt if v["backtrack_root"]]
    # Walks that merely stopped AT a collective are weaker evidence than
    # walks that reached actual code; surface the latter first.
    roots.sort(key=lambda v: v["name"] in pflow.COLL_COMM)
    attrs = ["name", "time", "debug-info", "cycles"]
    report = pflow.report([V_bt, E_bt], attrs=attrs, title="scalability analysis")
    return ScalabilityResult(
        out["differential"], out["hotspot"], out["imbalance"], out["union"],
        V_bt, E_bt, roots, report,
    )
