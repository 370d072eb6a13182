"""Imbalance analysis pass.

Detects code snippets whose cost is unevenly distributed across
processes (or threads).  Two input shapes are handled:

* **Top-down view** vertices carrying ``time_per_rank`` vectors: a
  vertex is imbalanced when ``max/mean`` of its per-rank time exceeds
  the threshold and the vertex carries non-negligible time.  The
  returned set carries the columns ``imbalance`` (the ratio) and
  ``imbalanced_ranks`` (ranks above ``outlier_factor × mean``).
* **Parallel view** instance vertices (no per-rank vector): instances
  are grouped by (name, debug-info) — the same code snippet across
  flows — and outlier instances are returned directly (column
  ``imbalance``: instance time over group mean), which is what
  Fig. 10/12 draw boxes around.

A non-empty top-down input in which no vertex carries a per-rank vector
(a PAG saved without ``include_per_rank=True``) fits neither shape and
raises :class:`MissingPerRankError`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dataflow.signatures import signature
from repro.pag.sets import VertexSet


class MissingPerRankError(ValueError):
    """A top-down input to :func:`imbalance_analysis` has no
    ``time_per_rank`` vectors."""


def _most_severe_first(V: VertexSet, flagged: List[tuple]) -> VertexSet:
    """Sort ``flagged`` — ``(ratio, row of V, …)`` — by descending ratio and
    return those rows carrying the ratio as ``imbalance``."""
    flagged.sort(key=lambda f: -f[0])
    ids = V.ids()[[f[1] for f in flagged]]
    return VertexSet.from_ids(V.pag, ids).with_columns(imbalance=[f[0] for f in flagged])


def _per_rank_mode(
    V: VertexSet, threshold: float, outlier_factor: float, min_time_fraction: float
) -> VertexSet:
    # bulk column reads: one pass over the time column and the per-rank
    # spill column instead of per-vertex dict lookups
    times = [float(t or 0.0) for t in V.values("time")]
    vectors = V.values("time_per_rank")
    total = max(times, default=0.0)
    floor = total * min_time_fraction
    flagged: List[tuple] = []
    for row, (t, arr) in enumerate(zip(times, vectors)):
        if not isinstance(arr, np.ndarray) or arr.size == 0:
            continue
        mean = float(arr.mean())
        if mean <= 0.0 or t < floor:
            continue
        ratio = float(arr.max()) / mean
        if ratio >= threshold:
            ranks = [int(r) for r in np.nonzero(arr > outlier_factor * mean)[0]]
            flagged.append((ratio, row, ranks))
    out = _most_severe_first(V, flagged)
    return out.with_columns(imbalanced_ranks=[ranks for _ratio, _row, ranks in flagged])


def _instance_mode(V: VertexSet, threshold: float, outlier_factor: float) -> VertexSet:
    names = V.values("name")
    dbg = V.values("debug-info")
    times_all = [float(t or 0.0) for t in V.values("time")]
    groups: Dict[Tuple[str, str], List[int]] = {}
    for idx, (nm, d) in enumerate(zip(names, dbg)):
        groups.setdefault((nm, str(d)), []).append(idx)
    out: List[tuple] = []
    for _key, idxs in groups.items():
        times = np.asarray([times_all[i] for i in idxs])
        mean = float(times.mean())
        if mean <= 0.0 or len(idxs) < 2:
            continue
        ratio = float(times.max()) / mean
        if ratio >= threshold:
            for i, t in zip(idxs, times):
                if t > outlier_factor * mean:
                    out.append((float(t) / mean, i))
    return _most_severe_first(V, out)


@signature(inputs=(VertexSet,), outputs=(VertexSet,))
def imbalance_analysis(
    V: VertexSet,
    threshold: float = 1.2,
    outlier_factor: float = 1.1,
    min_time_fraction: float = 0.001,
) -> VertexSet:
    """Vertices with imbalanced per-process behaviour, most severe first.

    Parameters
    ----------
    threshold:
        Minimum ``max/mean`` per-rank time ratio to flag a vertex.
    outlier_factor:
        Ranks (or instances) above ``outlier_factor × mean`` are reported
        as the imbalanced ones.
    min_time_fraction:
        Ignore vertices cheaper than this fraction of the set's largest
        time (top-down mode) — imbalance in negligible code is noise.
    """
    has_vectors = any(
        isinstance(x, np.ndarray) for x in V.values("time_per_rank")
    )
    if has_vectors:
        return _per_rank_mode(V, threshold, outlier_factor, min_time_fraction)
    if len(V) and V.pag.metadata.get("view") == "top-down":
        raise MissingPerRankError(
            "imbalance_analysis needs the 'time_per_rank' column on a top-down "
            "view, and no input vertex carries it (save the PAG with "
            "include_per_rank=True)"
        )
    return _instance_mode(V, threshold, outlier_factor)
