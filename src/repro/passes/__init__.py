"""The built-in performance-analysis pass library (paper §4.3).

A *pass* completes one analysis sub-task: it takes sets of PAG
vertices/edges, runs graph algorithms and set operations, and outputs
sets for the next pass.  The library covers the passes the paper names:

========================  ======================================================
hotspot_detection         top-N by a metric (Listing 3)
differential_analysis     graph difference between two runs (Listing 4, Fig. 7)
imbalance_analysis        per-rank outlier detection
breakdown_analysis        decompose a bug: wait vs transfer vs compute, and the
                          likely cause of communication imbalance (Fig. 2)
causal_analysis           pairwise LCA on the parallel view (Listing 5)
contention_detection      subgraph matching of contention patterns (Listing 6)
backtracking_analysis     backward cause traversal (Listing 7's user pass,
                          promoted to a built-in)
critical_path_analysis    longest weighted path through the parallel view
filters / set ops         the set-operation API surface of §4.3.1
========================  ======================================================

Passes are plain functions over sets so they compose both eagerly
(Listing 1 style) and inside a :class:`~repro.dataflow.graph.PerFlowGraph`.
They are pure: what a pass finds out about its output (``imbalance``,
``breakdown``, ``causes``, ``backtrack_root``, …) is a result column on
the set it returns (:meth:`VertexSet.with_columns`), never a write to
the input PAG.
"""

from repro.passes.filters import comm_filter, filter_set, io_filter
from repro.passes.hotspot import hotspot_detection
from repro.passes.differential import differential_analysis
from repro.passes.imbalance import imbalance_analysis
from repro.passes.breakdown import breakdown_analysis
from repro.passes.causal import causal_analysis
from repro.passes.contention import contention_detection, default_contention_pattern
from repro.passes.backtracking import backtracking_analysis
from repro.passes.critical import critical_path_analysis
from repro.passes.community import community_scope
from repro.passes.report import Report, format_table, to_dot

__all__ = [
    "filter_set",
    "comm_filter",
    "io_filter",
    "hotspot_detection",
    "differential_analysis",
    "imbalance_analysis",
    "breakdown_analysis",
    "causal_analysis",
    "contention_detection",
    "default_contention_pattern",
    "backtracking_analysis",
    "critical_path_analysis",
    "community_scope",
    "Report",
    "format_table",
    "to_dot",
]
