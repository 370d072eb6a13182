"""Shared pieces of the two PAG codecs.

Both formats (the format-1 JSON document and binary format 3) are exact
on floats: JSON text carries ``repr(float)``, which round-trips
bit-for-bit, and format 3 stores raw float64 — so a PAG's content
fingerprint survives any save/load round trip by construction.  What the formats share here is the treatment of
the values JSON cannot hold: per-rank ``numpy`` vectors either
summarize to scalar statistics (lossy, ``include_per_rank=False``) or
serialize in full, and metadata keeps only JSON scalars.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

__all__ = [
    "PAGFormatError",
    "json_safe",
    "decode_value",
    "meta_filter",
]


class PAGFormatError(ValueError):
    """A PAG document is truncated, corrupt, or structurally invalid.

    Raised by :func:`repro.pag.formats.load_pag` /
    :func:`repro.pag.formats.pag_from_dict` instead of the raw
    ``json.JSONDecodeError`` / ``KeyError`` / ``struct.error`` the
    decoders would otherwise surface, carrying the file path (when
    known) and the document format for an actionable message.  Subclasses
    ``ValueError`` so existing broad handlers (e.g. the CLI's) keep
    working.
    """

    def __init__(self, detail: str, path: Any = None, fmt: Any = None):
        self.path = str(path) if path is not None else None
        self.format = fmt
        where = f" in {self.path!r}" if self.path else ""
        what = f"format-{fmt} PAG document" if fmt is not None else "PAG document"
        super().__init__(f"invalid {what}{where}: {detail}")


def json_safe(value: Any, include_per_rank: bool) -> Any:
    """JSON-encodable form of a property value (all formats' obj cells)."""
    if isinstance(value, np.ndarray):
        if include_per_rank:
            return {"__ndarray__": value.tolist()}
        arr = value
        mean = float(arr.mean()) if arr.size else 0.0
        return {
            "min": float(arr.min()) if arr.size else 0.0,
            "max": float(arr.max()) if arr.size else 0.0,
            "mean": mean,
            "imbalance": round(float(arr.max()) / mean, 6) if mean > 0 else 0.0,
        }
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: json_safe(v, include_per_rank) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v, include_per_rank) for v in value]
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`json_safe` (per-rank vectors only when full)."""
    if isinstance(value, dict) and "__ndarray__" in value:
        return np.asarray(value["__ndarray__"], dtype=float)
    return value


def meta_filter(metadata: Dict[str, Any]) -> Dict[str, Any]:
    """Metadata entries every format persists (JSON scalars only)."""
    return {
        k: v
        for k, v in metadata.items()
        if isinstance(v, (str, int, float, bool, type(None)))
    }
