"""JSON PAG codecs: element-wise format 1 and columnar streaming format 2.

* **Format 2**: a columnar document mirroring the in-memory
  struct-of-arrays layout — the string table, dense structural code
  arrays, and one sparse ``rows``/``vals`` record per property column.
  It is produced by a single streaming pass over the columns; no
  per-element dict is ever materialized, and ``storage_size`` runs the
  same writer against a counting sink, so its result is byte-exact with
  what ``save_pag`` writes.
* **Format 1** (legacy, element-wise): still produced by
  :func:`pag_to_dict` and accepted by :func:`pag_from_dict` for
  compatibility.

Both decoders fully materialize the graph on the heap; the out-of-core
path is :mod:`repro.pag.formats.format3`.
"""

from __future__ import annotations

import json
from array import array
from typing import Any, Callable, Dict

from repro.pag.columns import FloatColumn, IntColumn, ObjColumn, StrColumn
from repro.pag.edge import CommKind, EdgeLabel
from repro.pag.formats.base import (
    PAGFormatError,
    decode_value,
    json_safe,
    meta_filter,
)
from repro.pag.graph import PAG
from repro.pag.vertex import CallKind, VertexLabel

__all__ = ["pag_to_dict", "pag_from_dict", "write_format2"]


# ----------------------------------------------------------------------
# legacy element-wise form (format 1)
# ----------------------------------------------------------------------
def pag_to_dict(pag: PAG, include_per_rank: bool = False) -> Dict[str, Any]:
    """Element-wise serializable form of a PAG (legacy format 1)."""
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
    they were serialized with ``include_per_rank=True``).  Also accepts
    a parsed format-2 document.

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
    try:
        if fmt == 2:
            return _pag_from_columnar(data)
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
    except PAGFormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, AttributeError) as exc:
        raise PAGFormatError(f"{type(exc).__name__}: {exc}", path=path, fmt=fmt) from exc


# ----------------------------------------------------------------------
# columnar streaming form (format 2)
# ----------------------------------------------------------------------
_CHUNK = 8192


def _write_array(write: Callable[[str], None], seq) -> None:
    """Stream a sequence as a JSON array in fixed-size chunks."""
    write("[")
    n = len(seq)
    for start in range(0, n, _CHUNK):
        chunk = seq[start : start + _CHUNK]
        # both array('q') and mmap-backed numpy views expose tolist()
        chunk = chunk.tolist() if hasattr(chunk, "tolist") else list(chunk)
        body = json.dumps(chunk, separators=(",", ":"))[1:-1]
        if start:
            write(",")
        write(body)
    write("]")


def _write_columns(
    write: Callable[[str], None], store, include_per_rank: bool
) -> None:
    write("{")
    first = True
    for key, col in store.columns.items():
        rows = col.rows()
        if not len(rows):
            continue
        if isinstance(col, (FloatColumn, IntColumn)):
            vals = col.arrays(store.nrows)[0][rows].tolist()
        elif isinstance(col, StrColumn):
            vals = col.sid_array(store.nrows)[rows].tolist()
        else:
            vals = [json_safe(col.cells[int(r)], include_per_rank) for r in rows]
        if not first:
            write(",")
        first = False
        write(json.dumps(key))
        write(':{"t":"%s","rows":' % col.kind)
        _write_array(write, rows.tolist())
        write(',"vals":')
        _write_array(write, vals)
        write("}")
    write("}")


def write_format2(
    pag: PAG, write: Callable[[str], None], include_per_rank: bool
) -> None:
    """One streaming pass over the columns; never builds element dicts."""
    write('{"format":2,"name":')
    write(json.dumps(pag.name))
    write(',"metadata":')
    write(json.dumps(meta_filter(pag.metadata), separators=(",", ":")))
    write(',"strings":')
    _write_array(write, list(pag.strings))
    write(',"v":{"label":')
    _write_array(write, pag._v_label)
    write(',"kind":')
    _write_array(write, pag._v_kind)
    write(',"name":')
    _write_array(write, pag._v_name)
    write('},"e":{"src":')
    _write_array(write, pag._e_src)
    write(',"dst":')
    _write_array(write, pag._e_dst)
    write(',"label":')
    _write_array(write, pag._e_label)
    write(',"kind":')
    _write_array(write, pag._e_kind)
    write('},"vcols":')
    _write_columns(write, pag._vprops, include_per_rank)
    write(',"ecols":')
    _write_columns(write, pag._eprops, include_per_rank)
    write("}")


def _decode_column(cd: Dict[str, Any], strings, nrows: int):
    tag, rows, vals = cd["t"], cd["rows"], cd["vals"]
    if tag == "f":
        col = FloatColumn()
    elif tag == "i":
        col = IntColumn()
    elif tag == "s":
        col = StrColumn(strings)
        col._pad_to(nrows)
        for r, sid in zip(rows, vals):
            col.sids[r] = sid
        return col
    else:
        col = ObjColumn()
        col.cells = {r: decode_value(v) for r, v in zip(rows, vals)}
        return col
    col._pad_to(nrows)
    for r, v in zip(rows, vals):
        col.data[r] = v
        col.valid[r] = 1
    return col


def _pag_from_columnar(data: Dict[str, Any]) -> PAG:
    pag = PAG(data["name"], dict(data.get("metadata", {})))
    for s in data["strings"]:
        pag.strings.intern(s)
    v, e = data["v"], data["e"]
    pag._v_label = array("b", v["label"])
    pag._v_kind = array("b", v["kind"])
    pag._v_name = array("q", v["name"])
    pag._e_src = array("q", e["src"])
    pag._e_dst = array("q", e["dst"])
    pag._e_label = array("b", e["label"])
    pag._e_kind = array("b", e["kind"])
    pag._vprops.nrows = len(pag._v_label)
    pag._eprops.nrows = len(pag._e_src)
    for key, cd in data.get("vcols", {}).items():
        pag._vprops.columns[key] = _decode_column(cd, pag.strings, pag._vprops.nrows)
    for key, cd in data.get("ecols", {}).items():
        pag._eprops.columns[key] = _decode_column(cd, pag.strings, pag._eprops.nrows)
    return pag
