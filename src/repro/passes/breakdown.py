"""Breakdown analysis pass (the last stage of Fig. 2's task).

Once a communication call is known to be imbalanced, breakdown analysis
decides *why*: different message sizes across ranks, load imbalance in
the computation preceding the communication, or time genuinely spent
moving bytes.  The returned set is the input set carrying a
``breakdown`` column, one dictionary per vertex:

* ``compute`` / ``wait`` / ``transfer`` — the time split,
* ``cause`` — ``"message-size imbalance"`` when per-rank byte counts
  vary beyond ``size_cv_threshold`` (coefficient of variation),
  ``"load imbalance before communication"`` when bytes are uniform but
  waits are skewed, ``"transfer-bound"`` when wait is small relative to
  total, else ``"balanced"``.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.signatures import signature
from repro.pag.sets import VertexSet


def _cv(arr: np.ndarray) -> float:
    mean = float(arr.mean())
    return float(arr.std()) / mean if mean > 0 else 0.0


@signature(inputs=(VertexSet,), outputs=(VertexSet,))
def breakdown_analysis(
    V: VertexSet,
    size_cv_threshold: float = 0.25,
    wait_fraction_threshold: float = 0.3,
) -> VertexSet:
    """Each vertex's time breakdown and likely cause.

    Output is the input set (its columns included) plus the
    ``breakdown`` column, so downstream passes and the report module
    see the same vertices.
    """
    out = []
    times = V.values("time")
    waits = V.values("wait")
    bytes_prs = V.values("bytes_per_rank")
    wait_prs = V.values("wait_per_rank")
    for t, w, bytes_pr, wait_pr in zip(times, waits, bytes_prs, wait_prs):
        time = float(t or 0.0)
        wait = float(w or 0.0)
        transfer = max(0.0, time - wait)
        breakdown = {
            "compute": 0.0,
            "wait": wait,
            "transfer": transfer,
        }
        cause = "balanced"
        if isinstance(bytes_pr, np.ndarray) and bytes_pr.size and _cv(bytes_pr) > size_cv_threshold:
            cause = "message-size imbalance"
        elif time > 0 and wait / time >= wait_fraction_threshold:
            if isinstance(wait_pr, np.ndarray) and wait_pr.size and _cv(wait_pr) > size_cv_threshold:
                cause = "load imbalance before communication"
            else:
                cause = "synchronization wait"
        elif time > 0 and transfer / time > (1.0 - wait_fraction_threshold):
            cause = "transfer-bound"
        breakdown["cause"] = cause
        out.append(breakdown)
    return V.with_columns(breakdown=out)
