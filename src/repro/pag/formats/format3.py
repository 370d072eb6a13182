"""Binary, mmap-able columnar PAG codec (serialize format 3).

File layout::

    offset 0    +--------------------------------------------------+
                | fixed header, 96 bytes                           |
                |   <4sHHQQQ  magic b"PAG3", version, flags,       |
                |             dir_len, num_vertices, num_edges     |
                |   32 bytes  full fingerprint (ascii hex)         |
                |   32 bytes  content digest   (ascii hex)         |
    offset 96   +--------------------------------------------------+
                | directory: dir_len bytes of compact JSON         |
                |   name, metadata, strings, column specs,         |
                |   obj-column scalar cells, and the segment table |
                |   {seg name: [relative offset, nbytes]}          |
    data start  +--------------------------------------------------+
    = align64(  | data area: one extent per array segment,         |
      96 +      |   each offset 64-byte-aligned *relative to the   |
      dir_len)  |   data start* (so the directory never encodes    |
                |   its own length), zero-padded between extents   |
                +--------------------------------------------------+

Segments hold the structural arrays verbatim and each typed property
column *dense* over all rows: float data is raw float64 (no float in
this file is rounded or printed as text), invalid cells are zeroed,
and the validity mask travels as a uint8 segment.  String columns
store the interned-id array.  Spill (object) columns are cold: their
scalar/dict cells live inline in the directory as sparse
``rows``/``vals`` JSON, and (version 2) their 1-D per-rank vectors in
three segments per column — ``vec.data`` (every vector, concatenated,
float64), ``vec.rows`` (int64 row of each vector) and ``vec.offs``
(int64, ``len(rows) + 1`` offsets into ``vec.data``) — which load back
as views of the data segment.  A version-1 file has no vector segments
(its vectors are ``{"__ndarray__": [...]}`` cells in ``vals``) and goes
through the same reader.

Because the header carries the fingerprint, ``read_header`` (and cache
probes on files) are O(96 bytes + directory); ``load_pag(path,
mmap=True)`` attaches every column as a lazy numpy view over the map
(:class:`repro.pag.columns.SegmentBacking`), so opening is O(header)
and a pass faults in only the column pages it touches.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import struct
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.pag.columns import (
    NO_STRING,
    FloatColumn,
    IntColumn,
    ObjColumn,
    SegmentBacking,
    StrColumn,
)
from repro.pag.formats.base import PAGFormatError, decode_value, json_safe, meta_filter
from repro.pag.graph import PAG

__all__ = [
    "MAGIC",
    "write_format3",
    "read_header",
    "read_header_buffer",
    "load_format3",
    "load_format3_buffer",
    "pag_file_fingerprint",
    "segment_sizes",
]

MAGIC = b"PAG3"
VERSION = 2
_READABLE_VERSIONS = (1, 2)
ALIGN = 64
_HEADER = struct.Struct("<4sHHQQQ")  # magic, version, flags, dir_len, nv, ne
_DIGEST_LEN = 32  # blake2b(digest_size=16) hex
HEADER_SIZE = _HEADER.size + 2 * _DIGEST_LEN  # 96

#: (attribute, segment name, numpy dtype) of the structural arrays.
_STRUCT_SEGS = (
    ("_v_label", "v_label", np.int8),
    ("_v_kind", "v_kind", np.int8),
    ("_v_name", "v_name", np.int64),
    ("_e_src", "e_src", np.int64),
    ("_e_dst", "e_dst", np.int64),
    ("_e_label", "e_label", np.int8),
    ("_e_kind", "e_kind", np.int8),
)


def _align(off: int) -> int:
    return (off + ALIGN - 1) // ALIGN * ALIGN


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
def _column_payloads(
    prefix: str, store, include_per_rank: bool
) -> Tuple[Dict[str, Any], List[Tuple[str, bytes]]]:
    """(column spec for the directory, [(segment name, payload)]).

    Typed columns are stored dense over ``store.nrows`` rows; columns
    with no valid cell are dropped (matching the content digest).  Spill
    columns serialize inline in the spec, except 1-D vectors kept in
    full, which go to the column's ``vec.*`` segments.
    """
    spec: Dict[str, Any] = {}
    segs: List[Tuple[str, bytes]] = []
    nrows = store.nrows
    for key, col in store.columns.items():
        rows = col.rows()
        if not len(rows):
            continue
        if isinstance(col, (FloatColumn, IntColumn)):
            data, valid = col.arrays(nrows)
            dense = np.array(data, dtype=col.dtype)
            dense[~np.asarray(valid)] = 0  # never leak stale cells
            dseg, vseg = f"{prefix}.{key}.data", f"{prefix}.{key}.valid"
            segs.append((dseg, dense.tobytes()))
            segs.append((vseg, np.asarray(valid, dtype=np.uint8).tobytes()))
            spec[key] = {"t": col.kind, "data": dseg, "valid": vseg}
        elif isinstance(col, StrColumn):
            sseg = f"{prefix}.{key}.sids"
            segs.append((sseg, col.sid_array(nrows).tobytes()))
            spec[key] = {"t": "s", "sids": sseg}
        else:  # ObjColumn: sparse, cold — inline, bar the vectors kept in full
            inline: Dict[str, list] = {"rows": [], "vals": []}
            vec_rows, vecs = [], []
            for r in rows.tolist():
                cell = col.cells[r]
                if include_per_rank and isinstance(cell, np.ndarray) and cell.ndim == 1:
                    vec_rows.append(r)
                    vecs.append(cell)
                else:
                    inline["rows"].append(r)
                    inline["vals"].append(json_safe(cell, include_per_rank))
            spec[key] = {"t": "o", **inline}
            if vecs:
                arrays = {
                    "data": np.concatenate(vecs).astype(np.float64),
                    "rows": np.array(vec_rows, dtype=np.int64),
                    "offs": np.cumsum([0] + [len(v) for v in vecs], dtype=np.int64),
                }
                names = {n: f"{prefix}.{key}.vec.{n}" for n in arrays}
                segs += [(names[n], arr.tobytes()) for n, arr in arrays.items()]
                spec[key]["vec"] = names
    return spec, segs


def _layout(
    pag: PAG, include_per_rank: bool
) -> Tuple[List[Tuple[str, bytes]], Dict[str, List[int]], bytes]:
    """(ordered segments, segment table, encoded directory) of a PAG.

    The single source of truth for the file layout — the writer streams
    exactly this, and ``segment_sizes`` reports its byte breakdown.
    """
    segs: List[Tuple[str, bytes]] = [
        (name, np.asarray(getattr(pag, attr), dtype=dtype).tobytes())
        for attr, name, dtype in _STRUCT_SEGS
    ]
    vspec, vsegs = _column_payloads("v", pag._vprops, include_per_rank)
    espec, esegs = _column_payloads("e", pag._eprops, include_per_rank)
    segs += vsegs + esegs

    table: Dict[str, List[int]] = {}
    off = 0
    for name, payload in segs:
        off = _align(off)
        table[name] = [off, len(payload)]
        off += len(payload)

    directory = {
        "name": pag.name,
        "metadata": meta_filter(pag.metadata),
        "strings": list(pag.strings),
        "segments": table,
        "vcols": vspec,
        "ecols": espec,
    }
    dir_b = json.dumps(directory, separators=(",", ":")).encode("utf-8")
    return segs, table, dir_b


def write_format3(
    pag: PAG, write: Callable[[bytes], None], include_per_rank: bool
) -> None:
    """Stream a PAG as a format-3 binary document to a bytes sink.

    The sink only ever sees forward writes (header, directory, padded
    segments in order), so the same function drives both ``save_pag``
    and the counting sink behind ``storage_size``.
    """
    from repro.cache.fingerprint import combine_digests, content_digest, metadata_digest

    segs, _table, dir_b = _layout(pag, include_per_rank)

    # The stamped fingerprint must equal the fingerprint of the graph a
    # loader reconstructs: metadata passes through meta_filter, and obj
    # cells through the serialize->decode round trip (json_safe may
    # summarize per-rank vectors when include_per_rank is off).
    content = content_digest(
        pag, obj_canon=lambda v: decode_value(json_safe(v, include_per_rank))
    )
    full = combine_digests(content, metadata_digest(meta_filter(pag.metadata)))

    write(_HEADER.pack(MAGIC, VERSION, 0, len(dir_b), pag.num_vertices, pag.num_edges))
    write(full.encode("ascii"))
    write(content.encode("ascii"))
    write(dir_b)
    pos = HEADER_SIZE + len(dir_b)
    write(b"\x00" * (_align(pos) - pos))
    pos = 0  # now relative to the data start
    for _name, payload in segs:
        aligned = _align(pos)
        write(b"\x00" * (aligned - pos))
        write(payload)
        pos = aligned + len(payload)


def segment_sizes(pag: PAG, include_per_rank: bool = False) -> Dict[str, int]:
    """Per-extent byte breakdown of the format-3 encoding of ``pag``.

    One entry per array segment plus ``header``, ``directory``, and
    ``padding`` (all alignment gaps).  Values sum to
    ``storage_size(pag)`` exactly.
    """
    segs, table, dir_b = _layout(pag, include_per_rank)
    out: Dict[str, int] = {"header": HEADER_SIZE, "directory": len(dir_b)}
    data_start = _align(HEADER_SIZE + len(dir_b))
    pad = data_start - HEADER_SIZE - len(dir_b)
    pos = 0
    for name, payload in segs:
        aligned = _align(pos)
        pad += aligned - pos
        out[name] = len(payload)
        pos = aligned + len(payload)
    out["padding"] = pad
    return out


# ----------------------------------------------------------------------
# header reader (the O(header) path)
# ----------------------------------------------------------------------
def _finish_header(
    head: bytes, read_dir: Callable[[int], bytes], total_size: int, origin: Any
) -> Dict[str, Any]:
    """Validate a fixed header + directory against ``total_size`` bytes.

    The shared core behind :func:`read_header` (file) and
    :func:`read_header_buffer` (in-memory image): ``head`` is the first ``HEADER_SIZE`` bytes, ``read_dir``
    yields the next ``dir_len`` bytes on demand, ``total_size`` bounds
    every segment extent.  Raises :class:`PAGFormatError` on anything
    truncated, misaligned, or out of bounds — so loaders can trust the
    segment table blindly.
    """
    if len(head) < HEADER_SIZE:
        raise PAGFormatError(
            f"truncated header ({len(head)} bytes, need {HEADER_SIZE})",
            path=origin,
            fmt=3,
        )
    magic, version, flags, dir_len, nv, ne = _HEADER.unpack(head[: _HEADER.size])
    if magic != MAGIC:
        raise PAGFormatError(f"bad magic {magic!r}", path=origin, fmt=3)
    if version not in _READABLE_VERSIONS:
        raise PAGFormatError(f"unsupported version {version}", path=origin, fmt=3)
    full = head[_HEADER.size : _HEADER.size + _DIGEST_LEN]
    content = head[_HEADER.size + _DIGEST_LEN :]
    try:
        fingerprint = full.decode("ascii")
        content_hex = content.decode("ascii")
        int(fingerprint, 16), int(content_hex, 16)
    except ValueError as exc:
        raise PAGFormatError(
            "corrupt fingerprint field in header", path=origin, fmt=3
        ) from exc
    dir_b = read_dir(dir_len)
    if len(dir_b) < dir_len:
        raise PAGFormatError(
            f"truncated directory ({len(dir_b)} of {dir_len} bytes)",
            path=origin,
            fmt=3,
        )
    try:
        directory = json.loads(dir_b.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PAGFormatError(f"corrupt directory: {exc}", path=origin, fmt=3) from exc
    if not isinstance(directory, dict) or not isinstance(
        directory.get("segments"), dict
    ):
        raise PAGFormatError(
            "directory is not an object with a segment table", path=origin, fmt=3
        )
    data_start = _align(HEADER_SIZE + dir_len)
    for name, extent in directory["segments"].items():
        if (
            not isinstance(extent, list)
            or len(extent) != 2
            or not all(isinstance(x, int) and x >= 0 for x in extent)
        ):
            raise PAGFormatError(
                f"segment {name!r}: malformed extent", path=origin, fmt=3
            )
        rel, nbytes = extent
        if rel % ALIGN:
            raise PAGFormatError(
                f"segment {name!r}: offset {rel} not {ALIGN}-byte aligned",
                path=origin,
                fmt=3,
            )
        if data_start + rel + nbytes > total_size:
            raise PAGFormatError(
                f"segment {name!r}: extent [{rel}, +{nbytes}) past end of file",
                path=origin,
                fmt=3,
            )
    return {
        "version": version,
        "flags": flags,
        "num_vertices": nv,
        "num_edges": ne,
        "fingerprint": fingerprint,
        "content_digest": content_hex,
        "directory": directory,
        "data_start": data_start,
        "file_size": total_size,
    }


def read_header(path: Any) -> Dict[str, Any]:
    """Parse and validate a format-3 header + directory without touching
    any data segment.

    Returns ``{"version", "flags", "num_vertices", "num_edges",
    "fingerprint", "content_digest", "directory", "data_start",
    "file_size"}``.  Raises :class:`PAGFormatError` on a truncated or
    corrupt file, including any segment extent that is misaligned or
    out of bounds — so loaders can trust the table blindly.
    """
    with open(Path(path), "rb") as f:
        head = f.read(HEADER_SIZE)
        file_size = os.fstat(f.fileno()).st_size
        return _finish_header(head, f.read, file_size, path)


def read_header_buffer(buf: Any, source: Any = "<buffer>") -> Dict[str, Any]:
    """:func:`read_header` over an in-memory format-3 image.

    ``buf`` is any buffer holding the whole document (a ``bytes``
    object, a ``bytearray``, a ``memoryview``); segment extents are validated against its full
    length, so a loader can attach views without further bounds checks.
    """
    data = memoryview(buf)
    total = data.nbytes
    head = bytes(data[: min(HEADER_SIZE, total)])

    def read_dir(dir_len: int) -> bytes:
        return bytes(data[HEADER_SIZE : min(HEADER_SIZE + dir_len, total)])

    return _finish_header(head, read_dir, total, source)


def pag_file_fingerprint(path: Any) -> str:
    """Fingerprint of a saved format-3 PAG from its header alone.

    Costs O(header) — no column segment is read.  Counted on the
    ``pag.load.header_only`` metric; equals ``PAG.fingerprint()`` of
    the graph :func:`load_format3` would reconstruct, so cache probes
    can use it without opening the graph at all.
    """
    from repro.obs import metrics as _metrics

    fp = read_header(path)["fingerprint"]
    _metrics.counter("pag.load.header_only").inc()
    return fp


# ----------------------------------------------------------------------
# loader
# ----------------------------------------------------------------------
def _seg_view(buf, data_start: int, extent: List[int], dtype, path, name: str):
    rel, nbytes = extent
    itemsize = np.dtype(dtype).itemsize
    if nbytes % itemsize:
        raise PAGFormatError(
            f"segment {name!r}: {nbytes} bytes not a multiple of {itemsize}",
            path=path,
            fmt=3,
        )
    return np.frombuffer(
        buf, dtype=dtype, count=nbytes // itemsize, offset=data_start + rel
    )


def _vector_cells(names: Dict[str, str], view, lazy: bool, key: str):
    """``{row: vector}`` of a spill column's ``vec.*`` segments.

    Each vector is a slice of the one data array: a view of the mapped
    segment when ``lazy``, of a single heap copy otherwise.
    """
    data = view(names["data"], np.float64)
    if not lazy:
        data = data.copy()
    rows = view(names["rows"], np.int64).tolist()
    offs = view(names["offs"], np.int64).tolist()
    if len(offs) != len(rows) + 1 or offs[0] != 0 or offs[-1] != len(data):
        raise ValueError(f"column {key!r}: vector offsets disagree with rows/data")
    return {r: data[a:b] for r, a, b in zip(rows, offs, offs[1:])}


def _build_pag(
    hdr: Dict[str, Any],
    buf: Any,
    origin: Any,
    backing: Optional[SegmentBacking],
    lazy: bool,
    readonly: bool = False,
) -> PAG:
    """Reconstruct a PAG from a validated header + the document's bytes.

    The shared core behind :func:`load_format3` (file / mmap) and
    :func:`load_format3_buffer` (in-memory image).  ``lazy`` attaches
    every array as a numpy view over ``buf`` (columns carry ``backing``
    and promote to heap copy-on-write); otherwise arrays are heap-owned
    copies.  ``readonly`` force-clears view writability — an
    ``ACCESS_READ`` mmap is born read-only, but a caller's buffer may be
    writable (a ``bytearray``), and scribbling through a zero-copy twin
    would corrupt every other view of it.
    """
    directory = hdr["directory"]
    data_start = hdr["data_start"]
    nv, ne = hdr["num_vertices"], hdr["num_edges"]
    try:
        segments = directory["segments"]
        pag = PAG(directory["name"], dict(directory.get("metadata", {})))
        for s in directory["strings"]:
            pag.strings.intern(s)

        def view(name: str, dtype):
            arr = _seg_view(buf, data_start, segments[name], dtype, origin, name)
            if readonly and arr.flags.writeable:
                arr.flags.writeable = False
            return arr

        for attr, name, dtype in _STRUCT_SEGS:
            arr = view(name, dtype)
            if lazy:
                setattr(pag, attr, arr)
            else:
                heap = getattr(pag, attr)  # empty array of the right typecode
                heap.frombytes(arr.tobytes())
        if pag.num_vertices != nv or pag.num_edges != ne:
            raise PAGFormatError(
                f"header counts ({nv} vertices, {ne} edges) disagree with "
                f"segments ({pag.num_vertices}, {pag.num_edges})",
                path=origin,
                fmt=3,
            )
        pag._backing = backing
        pag._vprops.nrows = nv
        pag._eprops.nrows = ne

        for store, spec_key in ((pag._vprops, "vcols"), (pag._eprops, "ecols")):
            for key, spec in directory.get(spec_key, {}).items():
                tag = spec.get("t")
                if tag == "f" or tag == "i":
                    cls = FloatColumn if tag == "f" else IntColumn
                    col = cls.from_views(
                        view(spec["data"], cls.dtype),
                        view(spec["valid"], np.uint8),
                        backing,
                    )
                elif tag == "s":
                    col = StrColumn.from_views(
                        pag.strings, view(spec["sids"], np.int64), backing
                    )
                elif tag == "o":
                    col = ObjColumn()
                    col.cells = {
                        int(r): decode_value(v)
                        for r, v in zip(spec["rows"], spec["vals"])
                    }
                    if "vec" in spec:
                        col.cells.update(_vector_cells(spec["vec"], view, lazy, key))
                else:
                    raise PAGFormatError(
                        f"column {key!r}: unknown type tag {tag!r}",
                        path=origin,
                        fmt=3,
                    )
                store.columns[key] = col

        # Seed the fingerprint cache from the header: the loaded graph is
        # unmutated, so its cache key is exactly (nv, ne, 0, 0, 0) and its
        # content digest is the one the writer stamped.  A fingerprint()
        # call (or a cache probe in repro.cache.keys) therefore reads no
        # column data at all.
        pag._fp_cache = ((nv, ne, 0, 0, 0), hdr["content_digest"])
        return pag
    except PAGFormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise PAGFormatError(
            f"{type(exc).__name__}: {exc}", path=origin, fmt=3
        ) from exc


def load_format3(path: Any, header: Dict[str, Any], use_mmap: bool = False) -> PAG:
    """Reconstruct a PAG from a format-3 file whose :func:`read_header`
    the caller already holds as ``header``.

    With ``use_mmap`` every array attaches as a read-only lazy view
    over one shared ``mmap`` (columns promote to heap copy-on-write);
    otherwise the file is read once and everything is heap-owned.
    Either way the header's content digest seeds the fingerprint cache,
    so ``pag.fingerprint()`` on the unmutated graph reads zero columns.
    """
    backing: Optional[SegmentBacking] = None
    if use_mmap:
        f = open(Path(path), "rb")
        try:
            buf = _mmap.mmap(f.fileno(), 0, access=_mmap.ACCESS_READ)
        finally:
            f.close()  # the map holds its own reference to the file
        backing = SegmentBacking(buf, source=str(path))
    else:
        buf = Path(path).read_bytes()
    return _build_pag(header, buf, path, backing, lazy=use_mmap)


def load_format3_buffer(buf: Any, source: Any = "<buffer>") -> PAG:
    """Attach a PAG zero-copy over an in-memory format-3 image.

    The mmap path without a file: a read-only twin over any buffer that
    holds a whole ``write_format3`` document — O(header) to attach,
    columns are views into ``buf``, and mutation promotes a column to a
    heap copy exactly like the mmap path (``buf`` itself is never
    written).  The caller owns ``buf``'s lifetime and must keep it alive
    and unresized for as long as the returned PAG lives.
    """
    hdr = read_header_buffer(buf, source=source)
    backing = SegmentBacking(buf, source=str(source))
    return _build_pag(hdr, buf, source, backing, lazy=True, readonly=True)
