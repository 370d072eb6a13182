"""The format-1 JSON PAG document: the HTTP upload form of a PAG.

:func:`pag_to_dict` builds the element-wise document and
:func:`pag_from_dict` reads it back onto the heap.  A format-2
(columnar JSON) document is rejected: that codec was removed and
format 3 (:mod:`repro.pag.formats.format3`) is the one on-disk format.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.pag.edge import CommKind, EdgeLabel
from repro.pag.formats.base import (
    PAGFormatError,
    decode_value,
    json_safe,
    meta_filter,
)
from repro.pag.graph import PAG
from repro.pag.vertex import CallKind, VertexLabel

__all__ = ["pag_to_dict", "pag_from_dict"]


def pag_to_dict(pag: PAG, include_per_rank: bool = False) -> Dict[str, Any]:
    """Element-wise serializable form of a PAG (format 1)."""
    return {
        "name": pag.name,
        "metadata": meta_filter(pag.metadata),
        "vertices": [
            [
                v.label.value,
                v.name,
                v.call_kind.value if v.call_kind else None,
                json_safe(dict(v.properties), include_per_rank),
            ]
            for v in pag.vertices()
        ],
        "edges": [
            [
                e.src_id,
                e.dst_id,
                e.label.value,
                e.comm_kind.value if e.comm_kind else None,
                json_safe(dict(e.properties), include_per_rank),
            ]
            for e in pag.edges()
        ],
    }


def pag_from_dict(data: Dict[str, Any], path: Any = None) -> PAG:
    """Inverse of :func:`pag_to_dict` (per-rank vectors restored only if
    they were serialized with ``include_per_rank=True``).

    Structural defects (missing keys, wrong element shapes, out-of-range
    enum codes, …) raise :class:`PAGFormatError`; ``path`` only
    decorates that error message.
    """
    if not isinstance(data, dict):
        raise PAGFormatError(
            f"expected a JSON object at top level, got {type(data).__name__}",
            path=path,
        )
    fmt = data.get("format", 1)
    if fmt == 2:
        raise PAGFormatError(
            "format-2 files are no longer read (format 3 is the on-disk format)",
            path=path, fmt=2,
        )
    try:
        pag = PAG(data["name"], dict(data.get("metadata", {})))
        for label, name, call_kind, props in data["vertices"]:
            pag.add_vertex(
                VertexLabel(label),
                name,
                CallKind(call_kind) if call_kind else None,
                {k: decode_value(v) for k, v in props.items()},
            )
        for src, dst, label, comm_kind, props in data["edges"]:
            pag.add_edge(
                src,
                dst,
                EdgeLabel(label),
                CommKind(comm_kind) if comm_kind else None,
                {k: decode_value(v) for k, v in props.items()},
            )
        return pag
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, AttributeError) as exc:
        raise PAGFormatError(f"{type(exc).__name__}: {exc}", path=path, fmt=fmt) from exc
