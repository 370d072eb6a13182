"""Community-scoping pass.

§2.1 and §4.3.1 list community detection among the graph algorithms the
pass library builds on: on the parallel view, ranks/threads that
exchange heavily form communities, and scoping a follow-up analysis to
one community keeps its pair-enumeration passes (causal analysis) and
pattern searches (contention) small.

The pass projects the parallel view onto its cross edges
(inter-process + inter-thread), weights them by communication volume or
waiting time, runs deterministic label propagation, and returns the
input set partitioned by community, most-afflicted community first.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from repro.dataflow.signatures import SetKind, signature
from repro.algorithms.community import label_propagation
from repro.pag.columns import _np_view
from repro.pag.edge import ELABEL_CODE, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet


@signature(inputs=(VertexSet,), outputs=(SetKind.ANY,))
def community_scope(
    V: VertexSet,
    weight: Optional[str] = "wait_time",
    min_size: int = 2,
) -> List[VertexSet]:
    """Partition ``V`` by interaction community on its parallel view.

    Only cross edges (inter-process/inter-thread) define the communities
    — flow edges would glue every flow into one blob.  Vertices whose
    flows never interact form singleton communities and are dropped when
    below ``min_size``.  One set per community, ordered by total wait
    inside the community, descending (most afflicted first).
    """
    pag: Optional[PAG] = V.pag
    if pag is None or len(V) == 0:
        return []

    # project: keep only cross edges for the community structure — a
    # block copy of the vertex arrays plus one vectorized edge selection
    e_label = _np_view(pag._e_label, np.int8)
    cross_mask = (e_label == ELABEL_CODE[EdgeLabel.INTER_PROCESS]) | (
        e_label == ELABEL_CODE[EdgeLabel.INTER_THREAD]
    )
    eids = np.nonzero(cross_mask)[0]
    if len(eids) == 0:
        return []
    proj = PAG(f"{pag.name}/cross")
    proj.strings = pag.strings
    proj._vprops.strings = proj.strings
    proj._eprops.strings = proj.strings
    proj._v_label = array("b", pag._v_label)
    proj._v_kind = array("b", pag._v_kind)
    proj._v_name = array("q", pag._v_name)
    proj._vprops.add_rows(pag.num_vertices)
    proj._e_src = array("q", _np_view(pag._e_src, np.int64)[eids].tolist())
    proj._e_dst = array("q", _np_view(pag._e_dst, np.int64)[eids].tolist())
    proj._e_label = array("b", e_label[eids].tolist())
    proj._e_kind = array("b", _np_view(pag._e_kind, np.int8)[eids].tolist())
    proj._eprops.add_rows(len(eids))
    if weight:
        w = pag._eprops.numeric(weight, eids, 0.0)
    else:
        w = np.ones(len(eids))
    proj._eprops.set_numeric_bulk(
        "w", np.arange(len(eids)), np.maximum(w, 1e-12)
    )
    labels = label_propagation(proj, weight="w")

    groups = V.classify(lambda v: labels.get(v.id))
    groups.pop(None, None)

    def group_wait(members: VertexSet) -> float:
        return sum(float(w or 0.0) for w in members.values("wait"))

    return sorted(
        (members for members in groups.values() if len(members) >= min_size),
        key=group_wait,
        reverse=True,
    )
