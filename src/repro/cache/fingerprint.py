"""Deterministic content fingerprints for PAGs.

The fingerprint is the foundation of the pass-result cache: two PAGs
with the same fingerprint are treated as interchangeable inputs, so the
digest must be a pure function of graph *content* — independent of how
that content is represented in memory.  Two representation artifacts
are deliberately canonicalized away:

* **String intern order.**  A PAG's :class:`~repro.pag.columns.StringTable`
  assigns ids in first-intern order, which differs between a freshly
  built graph, a ``copy()`` sharing a grown table, and a format-1
  reload that re-interns in row order.  The digest therefore hashes the
  *used* strings sorted by value and remaps every stored string id to
  its rank in that order.
* **Column physical layout.**  Columns are hashed as sparse
  ``(rows, values)`` pairs in sorted key order; trailing padding,
  column creation order, and fully-unset columns (which the serializer
  drops) do not contribute.

Floats are *not* canonicalized: a float is its raw IEEE-754 float64 —
in memory, in every format (:mod:`repro.pag.formats`) and here, where
its 8 bytes are hashed as they are.  ``fingerprint(load(save(g))) ==
fingerprint(g)`` holds because every format is exact.

The streaming digest (BLAKE2b) walks the columnar arrays directly —
structural code arrays and typed columns are fed to the hash as raw
buffers, so the cost is O(bytes of the graph), not O(elements × Python
objects).

Sensitivity: any change to vertex/edge structure, labels, kinds,
names, property values, the graph name, or (scalar) metadata changes
the fingerprint — a float that differs in its last bit included.  Two
in-memory values that serialize identically (a tuple vs. the list it
reloads as, ``np.float64(x)`` vs. ``float(x)``) share a fingerprint by
design.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.pag.columns import (
    NO_STRING,
    FloatColumn,
    IntColumn,
    ObjColumn,
    StrColumn,
)

__all__ = [
    "fingerprint_pag",
    "content_digest",
    "metadata_digest",
    "combine_digests",
    "canonical_update",
]

#: Bump when the digest layout changes — invalidates every old cache entry.
_FP_VERSION = b"perflow-fp-v1"

_PACK_Q = struct.Struct("<q").pack
_PACK_D = struct.Struct("<d").pack


def _update_str(h, s: str) -> None:
    b = s.encode("utf-8")
    h.update(_PACK_Q(len(b)))
    h.update(b)


def canonical_update(h, value: Any) -> None:
    """Feed a canonical, type-tagged encoding of ``value`` into digest ``h``.

    Handles the value types that live in PAG properties and metadata:
    scalars, strings, ``None``, numpy arrays/scalars, and nested
    dict/list/tuple containers.  Floats encode as their 8 raw bytes
    (arrays as float64); tuples encode as lists (a tuple reloads as a
    list); dicts encode in sorted-key order (insertion order is a
    mutation-history artifact).  Anything else falls back to ``repr``,
    which is stable for well-behaved value types but is the caller's
    responsibility.
    """
    if value is None:
        h.update(b"N")
    elif isinstance(value, bool):
        h.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        v = int(value)
        if -(2 ** 63) <= v < 2 ** 63:
            h.update(b"i")
            h.update(_PACK_Q(v))
        else:
            h.update(b"I")
            _update_str(h, str(v))
    elif isinstance(value, (float, np.floating)):
        h.update(b"f")
        h.update(_PACK_D(float(value)))
    elif isinstance(value, str):
        h.update(b"s")
        _update_str(h, value)
    elif isinstance(value, np.ndarray):
        h.update(b"a")
        arr = np.ascontiguousarray(value, dtype=np.float64)
        h.update(_PACK_Q(arr.size))
        h.update(arr)
    elif isinstance(value, (list, tuple)):
        h.update(b"l")
        h.update(_PACK_Q(len(value)))
        for v in value:
            canonical_update(h, v)
    elif isinstance(value, dict):
        h.update(b"d")
        h.update(_PACK_Q(len(value)))
        for k in sorted(value, key=lambda x: (str(type(x)), str(x))):
            canonical_update(h, k)
            canonical_update(h, value[k])
    elif isinstance(value, (bytes, bytearray)):
        h.update(b"b")
        h.update(_PACK_Q(len(value)))
        h.update(bytes(value))
    else:
        h.update(b"r")
        _update_str(h, repr(value))


def _string_ranks(pag) -> Tuple[Dict[int, int], List[str]]:
    """Map used string ids to their rank in value-sorted order.

    Only strings actually referenced by a vertex name or a valid
    string-column cell count as *used* — the table itself is shared and
    append-only (``copy()`` keeps growing it), so hashing it verbatim
    would make a graph's fingerprint depend on its siblings.
    """
    used = set(pag._v_name)
    for store in (pag._vprops, pag._eprops):
        for col in store.columns.values():
            if isinstance(col, StrColumn):
                used.update(sid for sid in col.sids if sid != NO_STRING)
    value = pag.strings.value
    ranked = sorted(value(sid) for sid in used)
    rank_of = {v: i for i, v in enumerate(ranked)}
    return {sid: rank_of[value(sid)] for sid in used}, ranked


def _update_sid_array(h, sids, sid_rank: Dict[int, int]) -> None:
    h.update(
        np.fromiter((sid_rank[s] for s in sids), dtype=np.int64, count=len(sids))
    )


def _update_store(h, store, sid_rank: Dict[int, int], tag: bytes, obj_canon=None) -> None:
    h.update(tag)
    for key in sorted(store.columns):
        col = store.columns[key]
        rows = col.rows()
        if not len(rows):
            # the serializer drops fully-unset columns; so do we
            continue
        _update_str(h, key)
        h.update(np.ascontiguousarray(rows, dtype=np.int64))
        if isinstance(col, (FloatColumn, IntColumn)):
            h.update(col.kind.encode("ascii"))  # b"f" / b"i"
            h.update(col.arrays(store.nrows)[0][rows])
        elif isinstance(col, StrColumn):
            h.update(b"s")
            _update_sid_array(h, col.sid_array(store.nrows)[rows], sid_rank)
        else:
            h.update(b"o")
            cells = col.cells
            for r in rows:
                v = cells[int(r)]
                canonical_update(h, obj_canon(v) if obj_canon is not None else v)


def content_digest(pag, obj_canon=None) -> str:
    """Digest of the PAG's structure, names, and property columns.

    This is the expensive, array-sized part of the fingerprint; the PAG
    caches it keyed on its mutation counters (see
    :meth:`repro.pag.graph.PAG.fingerprint`).  Metadata is *not*
    included — it is an untracked plain dict, so it is digested fresh
    on every fingerprint call by :func:`metadata_digest`.

    ``obj_canon`` (optional) canonicalizes each spill-column cell before
    hashing.  The format-3 writer passes the serialize-then-decode round
    trip here so the fingerprint it stamps into the file header equals
    the fingerprint of the graph a loader reconstructs — making header
    reads (:func:`repro.pag.formats.pag_file_fingerprint`) and cache
    probes on mmap-loaded graphs zero-column-read operations.
    """
    h = hashlib.blake2b(_FP_VERSION, digest_size=16)
    _update_str(h, pag.name)
    h.update(struct.pack("<qq", pag.num_vertices, pag.num_edges))
    sid_rank, ranked = _string_ranks(pag)
    h.update(b"S")
    h.update(_PACK_Q(len(ranked)))
    for s in ranked:
        _update_str(h, s)
    h.update(b"V")
    h.update(pag._v_label)
    h.update(pag._v_kind)
    _update_sid_array(h, pag._v_name, sid_rank)
    h.update(b"E")
    h.update(pag._e_src)
    h.update(pag._e_dst)
    h.update(pag._e_label)
    h.update(pag._e_kind)
    _update_store(h, pag._vprops, sid_rank, b"VP", obj_canon)
    _update_store(h, pag._eprops, sid_rank, b"EP", obj_canon)
    return h.hexdigest()


def metadata_digest(metadata: Dict[str, Any]) -> str:
    """Digest of a PAG metadata dict (canonical, order-insensitive)."""
    h = hashlib.blake2b(b"perflow-meta-v1", digest_size=16)
    canonical_update(h, metadata)
    return h.hexdigest()


def combine_digests(content: str, metadata: str) -> str:
    """Full fingerprint from a content digest + metadata digest.

    Factored out so the format-3 writer/header reader and
    :meth:`PAG.fingerprint` compute byte-identical results.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(content.encode("ascii"))
    h.update(metadata.encode("ascii"))
    return h.hexdigest()


def fingerprint_pag(pag) -> str:
    """Full content fingerprint of a PAG (structure + properties + metadata).

    Prefer :meth:`repro.pag.graph.PAG.fingerprint`, which caches the
    content digest across calls; this function always recomputes.
    """
    return combine_digests(content_digest(pag), metadata_digest(pag.metadata))
