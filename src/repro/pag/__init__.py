"""Program Abstraction Graph (PAG) substrate.

A PAG is the unified performance representation of one parallel-program
execution (paper §3): a labeled, attributed directed graph whose vertices
are code snippets (functions, call sites, loops, branches, instructions)
and whose edges are intra-procedural control flow, inter-procedural calls,
inter-thread dependences (locks), and inter-process dependences (MPI
messages and collectives).  Performance data live as vertex/edge
properties.

Public surface:

* :class:`~repro.pag.graph.PAG` — the graph container.
* :class:`~repro.pag.vertex.Vertex`, :class:`~repro.pag.edge.Edge` —
  attributed elements with ``v["metric"]`` style property access.
* :data:`~repro.pag.vertex.VertexLabel`, :data:`~repro.pag.edge.EdgeLabel`
  — the label taxonomies of §3.1.
* :class:`~repro.pag.sets.VertexSet` / :class:`~repro.pag.sets.EdgeSet` —
  the "sets" that flow along PerFlowGraph edges (§4.2), with the set
  operations of §4.3.1 (sort, filter, top, union, intersection,
  difference, classification).
* :func:`~repro.pag.views.build_top_down_view` /
  :func:`~repro.pag.views.build_parallel_view` — the two PAG views (§3.4).
* :func:`~repro.pag.embedding.embed_samples` — calling-context performance
  data embedding (§3.3, Fig. 3).
* :mod:`~repro.pag.formats` — persistence (format 3 on disk, format-1
  JSON over HTTP) and the space-cost accounting used by Table 1.
"""

from repro.pag.vertex import Vertex, VertexLabel, CallKind
from repro.pag.edge import Edge, EdgeLabel, CommKind
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet, EdgeSet

# The view/embedding/formats modules depend on repro.ir, which itself
# imports repro.pag submodules — load them lazily to keep the package
# import-order independent.
_LAZY = {
    "build_top_down_view": ("repro.pag.views", "build_top_down_view"),
    "build_parallel_view": ("repro.pag.views", "build_parallel_view"),
    "parallel_view_stats": ("repro.pag.views", "parallel_view_stats"),
    "slice_parallel_view": ("repro.pag.views", "slice_parallel_view"),
    "validate_top_down": ("repro.pag.validate", "validate_top_down"),
    "validate_parallel": ("repro.pag.validate", "validate_parallel"),
    "embed_samples": ("repro.pag.embedding", "embed_samples"),
    "resolve_calling_context": ("repro.pag.embedding", "resolve_calling_context"),
    "PAGFormatError": ("repro.pag.formats", "PAGFormatError"),
    "pag_to_dict": ("repro.pag.formats", "pag_to_dict"),
    "pag_from_dict": ("repro.pag.formats", "pag_from_dict"),
    "save_pag": ("repro.pag.formats", "save_pag"),
    "load_pag": ("repro.pag.formats", "load_pag"),
    "storage_size": ("repro.pag.formats", "storage_size"),
    "detect_format": ("repro.pag.formats", "detect_format"),
    "pag_file_fingerprint": ("repro.pag.formats", "pag_file_fingerprint"),
    "read_header": ("repro.pag.formats", "read_header"),
    "segment_sizes": ("repro.pag.formats", "segment_sizes"),
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.pag' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value

__all__ = [
    "Vertex",
    "VertexLabel",
    "CallKind",
    "Edge",
    "EdgeLabel",
    "CommKind",
    "PAG",
    "VertexSet",
    "EdgeSet",
    "build_top_down_view",
    "build_parallel_view",
    "embed_samples",
    "resolve_calling_context",
    "PAGFormatError",
    "pag_to_dict",
    "pag_from_dict",
    "save_pag",
    "load_pag",
    "storage_size",
    "detect_format",
    "pag_file_fingerprint",
    "read_header",
    "segment_sizes",
]
