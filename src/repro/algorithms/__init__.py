"""Graph algorithm APIs (paper §4.3.1, "graph algorithm APIs").

Passes are built by combining these algorithms with constraints:
breadth/depth-first search and topological order
(:mod:`~repro.algorithms.traversal`), lowest common ancestor
(:mod:`~repro.algorithms.lca`, the causal-analysis kernel), labeled
subgraph matching (:mod:`~repro.algorithms.subgraph`, the
contention-detection kernel), community detection
(:mod:`~repro.algorithms.community`), critical-path extraction
(:mod:`~repro.algorithms.critical_path`), and graph difference
(:mod:`~repro.algorithms.difference`, the differential-analysis kernel).
"""

from repro.algorithms.traversal import (
    ancestors,
    bfs,
    descendants,
    dfs_preorder,
    id_increasing,
    topological_order,
)
from repro.algorithms.lca import lowest_common_ancestor
from repro.algorithms.subgraph import PatternGraph, subgraph_matching
from repro.algorithms.community import label_propagation, louvain_communities, modularity
from repro.algorithms.critical_path import critical_path
from repro.algorithms.difference import graph_difference

__all__ = [
    "bfs",
    "dfs_preorder",
    "topological_order",
    "id_increasing",
    "ancestors",
    "descendants",
    "lowest_common_ancestor",
    "PatternGraph",
    "subgraph_matching",
    "label_propagation",
    "louvain_communities",
    "modularity",
    "critical_path",
    "graph_difference",
]
