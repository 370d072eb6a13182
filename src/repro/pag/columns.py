"""Struct-of-arrays storage for PAG element properties.

The PAG stores what is fundamentally dense integer-indexed data: every
vertex/edge has a small id, and the hot properties (``time``, ``wait``,
``count``, comm bytes, PMU counters) are numbers attached to most
elements of a view.  Keeping a Python object plus a per-element
``properties`` dict for each of them costs hundreds of bytes per
element — far too much for Table-2-scale parallel views (10M+ vertices
for LAMMPS at 128 ranks).

This module provides the columnar core instead:

* :class:`StringTable` — an append-only interning table.  Names and
  string-valued properties (``debug-info``) repeat massively across a
  parallel view (one copy per flow), so each element stores an 8-byte
  id into the table instead of a pointer to its own string.
* Typed columns — :class:`FloatColumn`, :class:`IntColumn`,
  :class:`StrColumn` store one property across *all* elements as a
  dense ``array`` plus a validity byte-mask; :class:`ObjColumn` is the
  spill store for cold or odd-typed values (per-rank ``numpy`` vectors,
  dicts, bools, lists).
* :class:`ColumnStore` — the per-element-family (vertices / edges)
  column registry with dict-equivalent get/set/delete semantics, type
  inference on first write, migration to the spill column on type
  mismatch, and the bulk read/write paths the set layer and the
  embedding use.

Columns pad lazily: a column created or written at row *i* knows
nothing about rows past its physical length, which keeps ``add_row``
O(1) regardless of how many columns exist.  Bulk numeric reads go
through zero-copy ``numpy`` views (``np.frombuffer`` over the
``array``/``bytearray`` buffers), so sorting or summing a million-row
column never materializes per-element Python objects.

Columns are either **heap-owned** (``array``/``bytearray`` buffers the
column grows and mutates freely — the default) or **lazy views** over a
:class:`SegmentBacking`: read-only ``numpy`` views into an attached
buffer such as an mmap-ed format-3 file segment.  Lazy columns serve every
read path zero-copy — the OS faults in only the pages a pass actually
touches — and promote to heap with a single copy-on-write
:meth:`~_TypedColumn._materialize` on the first mutation, so the
backing buffer is never written through.  Promotions are counted on
the ``pag.columns.materialized`` metric (attachments on
``pag.columns.lazy``).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "StringTable",
    "SegmentBacking",
    "FloatColumn",
    "IntColumn",
    "StrColumn",
    "ObjColumn",
    "ColumnStore",
]

#: Sentinel id for "no string" in a :class:`StrColumn`.
NO_STRING = -1


class SegmentBacking:
    """Keeps the buffer behind a family of lazy columns alive.

    One backing exists per attached storage object — an ``mmap.mmap``
    over a format-3 file, or a ``bytes`` blob —
    and every lazy column view into it holds a reference, so the buffer
    cannot be released while any column still reads from it.  ``source``
    is a human-readable origin (usually the file path) surfaced by
    ``repro pag stats``.
    """

    __slots__ = ("buffer", "source")

    def __init__(self, buffer: Any, source: str = "") -> None:
        self.buffer = buffer
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentBacking({self.source or type(self.buffer).__name__})"


def _note_lazy(n: int = 1) -> None:
    from repro.obs import metrics as _metrics

    _metrics.counter("pag.columns.lazy").inc(n)


def _note_materialized(n: int = 1) -> None:
    from repro.obs import metrics as _metrics

    _metrics.counter("pag.columns.materialized").inc(n)


class StringTable:
    """Append-only string interning table shared by a PAG's columns.

    Interning is idempotent: the same string always maps to the same id,
    and ids are dense (``0..len-1``), so columns can store 8-byte ids
    and glob-style filters can match each *distinct* string once instead
    of once per element.
    """

    __slots__ = ("_strings", "_index")

    def __init__(self) -> None:
        self._strings: List[str] = []
        self._index: Dict[str, int] = {}

    def intern(self, s: str) -> int:
        sid = self._index.get(s)
        if sid is None:
            sid = len(self._strings)
            self._index[s] = sid
            self._strings.append(s)
        return sid

    def value(self, sid: int) -> str:
        return self._strings[sid]

    def find(self, s: str) -> Optional[int]:
        """Id of ``s`` if already interned, else ``None``."""
        return self._index.get(s)

    def __len__(self) -> int:
        return len(self._strings)

    def __iter__(self) -> Iterator[str]:
        return iter(self._strings)

    @property
    def nbytes(self) -> int:
        return sum(len(s) for s in self._strings) + 56 * len(self._strings)


def _np_view(buf, dtype) -> np.ndarray:
    """Zero-copy numpy view over an ``array``/``bytearray`` buffer.

    Lazy columns already hold numpy views (over an mmap segment), which
    pass straight through.  The view is only valid until the next append
    (a heap buffer may reallocate), so callers create it per bulk
    operation and never cache it.
    """
    if isinstance(buf, np.ndarray):
        return buf
    if len(buf) == 0:
        return np.empty(0, dtype=dtype)
    return np.frombuffer(buf, dtype=dtype, count=len(buf))


class _TypedColumn:
    """Dense typed storage + validity mask; base of float/int columns.

    Storage is either heap-owned (``array`` + ``bytearray``) or a lazy
    read-only view pair over a :class:`SegmentBacking`; see
    :meth:`from_views` and :meth:`_materialize`.
    """

    __slots__ = ("data", "valid", "_backing")

    typecode = "d"
    dtype = np.float64
    kind = "f"

    def __init__(self) -> None:
        self.data = array(self.typecode)
        self.valid = bytearray()
        self._backing: Optional[SegmentBacking] = None

    # -- backing store ---------------------------------------------------
    @classmethod
    def from_views(
        cls,
        data: np.ndarray,
        valid: np.ndarray,
        backing: Optional[SegmentBacking] = None,
    ) -> "_TypedColumn":
        """Build a column over existing buffers.

        With ``backing`` the column stays a *lazy view*: reads go
        straight to the (typically mmap-ed) buffer and the first
        mutation promotes to heap.  Without it the views are copied into
        heap storage immediately (the eager-load path).
        """
        col = cls()
        if backing is not None:
            col.data = data
            col.valid = valid
            col._backing = backing
            _note_lazy()
        else:
            col.data.frombytes(data.tobytes())
            col.valid = bytearray(valid.tobytes())
        return col

    @property
    def is_lazy(self) -> bool:
        return self._backing is not None

    def _materialize(self) -> None:
        """Copy-on-write promotion: replace lazy views with heap buffers.

        The backing segment is never written through — a PAG loaded
        from an mmap-ed file can be mutated freely without corrupting
        the file (or any other reader of the same map).
        """
        if self._backing is None:
            return
        heap = array(self.typecode)
        heap.frombytes(np.ascontiguousarray(self.data).tobytes())
        self.data = heap
        self.valid = bytearray(np.ascontiguousarray(self.valid).tobytes())
        self._backing = None
        _note_materialized()

    # -- sizing ----------------------------------------------------------
    def _pad_to(self, n: int) -> None:
        """Grow physical storage to cover rows ``0..n-1``."""
        short = n - len(self.data)
        if short > 0:
            self._materialize()
            # one zero block: all-zero bytes are 0 / 0.0 in every typecode
            self.data.frombytes(bytes(self.data.itemsize * short))
            self.valid.extend(bytes(short))

    # -- scalar access ---------------------------------------------------
    def get(self, i: int) -> Any:
        if i < len(self.valid) and self.valid[i]:
            return self.data[i]
        return None

    def set(self, i: int, value: Any) -> None:
        self._materialize()
        self._pad_to(i + 1)
        self.data[i] = value
        self.valid[i] = 1

    def unset(self, i: int) -> None:
        if i < len(self.valid):
            self._materialize()
            self.valid[i] = 0

    def has(self, i: int) -> bool:
        return i < len(self.valid) and bool(self.valid[i])

    def can_store(self, value: Any) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- bulk access -----------------------------------------------------
    def rows(self) -> np.ndarray:
        """Row indices that hold a value."""
        return np.nonzero(_np_view(self.valid, np.uint8))[0]

    def arrays(self, nrows: int) -> Tuple[np.ndarray, np.ndarray]:
        """(values, valid-mask) zero-copy views covering ``nrows`` rows."""
        self._pad_to(nrows)
        return (
            _np_view(self.data, self.dtype)[:nrows],
            _np_view(self.valid, np.uint8)[:nrows].view(bool),
        )

    def values_at(self, ids: Sequence[int]) -> List[Any]:
        get = self.get
        return [get(i) for i in ids]

    def set_bulk(self, rows: np.ndarray, values: np.ndarray) -> None:
        if len(rows) == 0:
            return
        self._materialize()
        self._pad_to(int(rows.max()) + 1)
        data = _np_view(self.data, self.dtype)
        data[rows] = values
        _np_view(self.valid, np.uint8)[rows] = 1

    def items(self) -> Iterator[Tuple[int, Any]]:
        for i, ok in enumerate(self.valid):
            if ok:
                yield i, self.data[i]

    def gather(self, ids: Sequence[int]) -> "_TypedColumn":
        out = type(self)()
        n = len(self.valid)
        for i in ids:
            if i < n and self.valid[i]:
                out.data.append(self.data[i])
                out.valid.append(1)
            else:
                out.data.append(0)
                out.valid.append(0)
        return out

    def copy(self) -> "_TypedColumn":
        out = type(self)()
        # tobytes/bytearray(...) work on both heap arrays and lazy numpy
        # views, so a copy is always heap-owned (never shares the
        # backing segment)
        out.data.frombytes(self.data.tobytes())
        out.valid = bytearray(self.valid)
        return out

    @property
    def nbytes(self) -> int:
        return self.data.itemsize * len(self.data) + len(self.valid)


class FloatColumn(_TypedColumn):
    typecode = "d"
    dtype = np.float64
    kind = "f"

    def can_store(self, value: Any) -> bool:
        return isinstance(value, float) and not isinstance(value, bool)

    def set(self, i: int, value: Any) -> None:
        super().set(i, float(value))

    def get(self, i: int) -> Optional[float]:
        if i < len(self.valid) and self.valid[i]:
            return float(self.data[i])
        return None


class IntColumn(_TypedColumn):
    typecode = "q"
    dtype = np.int64
    kind = "i"

    def can_store(self, value: Any) -> bool:
        # bool is an int subclass but must keep its type through a
        # round-trip (the spill column preserves it).
        if isinstance(value, bool) or not isinstance(value, int):
            return False
        return -(2 ** 63) <= value < 2 ** 63

    def get(self, i: int) -> Optional[int]:
        if i < len(self.valid) and self.valid[i]:
            return int(self.data[i])
        return None


class StrColumn:
    """Interned-string column: one 8-byte table id per row.

    Like the typed columns, the sid array is either heap-owned or a
    lazy read-only view over a :class:`SegmentBacking` with
    copy-on-write promotion.
    """

    __slots__ = ("sids", "strings", "_backing")

    kind = "s"

    def __init__(self, strings: StringTable) -> None:
        self.sids = array("q")
        self.strings = strings
        self._backing: Optional[SegmentBacking] = None

    # -- backing store ---------------------------------------------------
    @classmethod
    def from_views(
        cls,
        strings: StringTable,
        sids: np.ndarray,
        backing: Optional[SegmentBacking] = None,
    ) -> "StrColumn":
        col = cls(strings)
        if backing is not None:
            col.sids = sids
            col._backing = backing
            _note_lazy()
        else:
            col.sids.frombytes(sids.tobytes())
        return col

    @property
    def is_lazy(self) -> bool:
        return self._backing is not None

    def _materialize(self) -> None:
        if self._backing is None:
            return
        heap = array("q")
        heap.frombytes(np.ascontiguousarray(self.sids).tobytes())
        self.sids = heap
        self._backing = None
        _note_materialized()

    def _pad_to(self, n: int) -> None:
        short = n - len(self.sids)
        if short > 0:
            self._materialize()
            self.sids.extend(array("q", [NO_STRING]) * short)

    def get(self, i: int) -> Optional[str]:
        if i < len(self.sids):
            sid = self.sids[i]
            if sid != NO_STRING:
                return self.strings.value(sid)
        return None

    def set(self, i: int, value: str) -> None:
        self._materialize()
        self._pad_to(i + 1)
        self.sids[i] = self.strings.intern(value)

    def unset(self, i: int) -> None:
        if i < len(self.sids):
            self._materialize()
            self.sids[i] = NO_STRING

    def has(self, i: int) -> bool:
        return i < len(self.sids) and self.sids[i] != NO_STRING

    def can_store(self, value: Any) -> bool:
        return isinstance(value, str)

    def rows(self) -> np.ndarray:
        return np.nonzero(_np_view(self.sids, np.int64) != NO_STRING)[0]

    def sid_array(self, nrows: int) -> np.ndarray:
        self._pad_to(nrows)
        return _np_view(self.sids, np.int64)[:nrows]

    def values_at(self, ids: Sequence[int]) -> List[Optional[str]]:
        get = self.get
        return [get(i) for i in ids]

    def items(self) -> Iterator[Tuple[int, str]]:
        value = self.strings.value
        for i, sid in enumerate(self.sids):
            if sid != NO_STRING:
                yield i, value(sid)

    def gather(self, ids: Sequence[int]) -> "StrColumn":
        out = StrColumn(self.strings)
        n = len(self.sids)
        out.sids.extend(self.sids[i] if i < n else NO_STRING for i in ids)
        return out

    def copy(self) -> "StrColumn":
        out = StrColumn(self.strings)
        out.sids.frombytes(self.sids.tobytes())
        return out

    @property
    def nbytes(self) -> int:
        return 8 * len(self.sids)


class ObjColumn:
    """Spill storage for cold / odd-typed properties (dict row -> value)."""

    __slots__ = ("cells",)

    kind = "o"

    def __init__(self) -> None:
        self.cells: Dict[int, Any] = {}

    def get(self, i: int) -> Any:
        return self.cells.get(i)

    def set(self, i: int, value: Any) -> None:
        self.cells[i] = value

    def unset(self, i: int) -> None:
        self.cells.pop(i, None)

    def has(self, i: int) -> bool:
        return i in self.cells

    def can_store(self, value: Any) -> bool:
        return True

    def rows(self) -> np.ndarray:
        return np.array(sorted(self.cells), dtype=np.int64)

    def values_at(self, ids: Sequence[int]) -> List[Any]:
        get = self.cells.get
        return [get(i) for i in ids]

    def items(self) -> Iterator[Tuple[int, Any]]:
        return iter(sorted(self.cells.items()))

    def gather(self, ids: Sequence[int]) -> "ObjColumn":
        out = ObjColumn()
        get = self.cells.get
        missing = object()
        for new, old in enumerate(ids):
            val = get(old, missing)
            if val is not missing:
                out.cells[new] = val
        return out

    def copy(self) -> "ObjColumn":
        out = ObjColumn()
        out.cells = dict(self.cells)
        return out

    @property
    def nbytes(self) -> int:
        # dict entry overhead approximation + numpy payloads we can see
        size = 104 * len(self.cells)
        for v in self.cells.values():
            if isinstance(v, np.ndarray):
                size += v.nbytes
        return size


def _infer_column(value: Any, strings: StringTable):
    if isinstance(value, bool):
        return ObjColumn()
    if isinstance(value, float):
        return FloatColumn()
    if isinstance(value, int):
        col = IntColumn()
        # ints beyond int64 can't live in the dense column
        return col if col.can_store(value) else ObjColumn()
    if isinstance(value, str):
        return StrColumn(strings)
    return ObjColumn()


class ColumnStore:
    """All property columns of one element family (vertices or edges).

    Provides dict-equivalent semantics per row — ``get`` returns ``None``
    for absent keys (matching ``dict.get``), ``delete`` raises
    ``KeyError`` for absent ones (matching ``del d[k]``) — plus the bulk
    paths used by the set layer, the embedding, and serialization.

    A column's type is inferred from the first value written.  Writing a
    value a typed column cannot hold (e.g. an ``int`` into a float
    column, which would silently change the value's type) migrates the
    whole column to the spill :class:`ObjColumn`, preserving every
    existing value exactly.
    """

    __slots__ = ("columns", "strings", "nrows", "version")

    def __init__(self, strings: StringTable) -> None:
        self.columns: Dict[str, Any] = {}
        self.strings = strings
        self.nrows = 0
        #: Mutation counter: bumped on every write/delete so the owning
        #: PAG can tell whether a cached fingerprint is still valid.
        self.version = 0

    # -- rows ------------------------------------------------------------
    def add_rows(self, n: int = 1) -> None:
        self.nrows += n

    # -- scalar access ---------------------------------------------------
    def get(self, row: int, key: str) -> Any:
        col = self.columns.get(key)
        return col.get(row) if col is not None else None

    def set(self, row: int, key: str, value: Any) -> None:
        self.version += 1
        col = self.columns.get(key)
        if col is None:
            col = _infer_column(value, self.strings)
            self.columns[key] = col
        elif not col.can_store(value):
            col = self._spill(key, col)
        col.set(row, value)

    def delete(self, row: int, key: str) -> None:
        col = self.columns.get(key)
        if col is None or not col.has(row):
            raise KeyError(key)
        self.version += 1
        col.unset(row)

    def has(self, row: int, key: str) -> bool:
        col = self.columns.get(key)
        return col is not None and col.has(row)

    def keys_at(self, row: int) -> Iterator[str]:
        for key, col in self.columns.items():
            if col.has(row):
                yield key

    def _spill(self, key: str, col: Any) -> ObjColumn:
        out = ObjColumn()
        for i, v in col.items():
            out.cells[i] = v
        self.columns[key] = out
        return out

    # -- bulk access -----------------------------------------------------
    def column(self, key: str):
        return self.columns.get(key)

    def values(self, key: str, ids: Sequence[int]) -> List[Any]:
        """Property values for ``ids`` in order (``None`` where absent)."""
        col = self.columns.get(key)
        if col is None:
            return [None] * len(ids)
        return col.values_at(ids)

    def numeric(self, key: str, ids, default: float = 0.0) -> np.ndarray:
        """Float view of a property over ``ids``; non-numeric/absent
        values read as ``default`` (the ``sort_by`` convention)."""
        ids = np.asarray(ids, dtype=np.int64)
        col = self.columns.get(key)
        if col is None:
            return np.full(len(ids), default)
        if isinstance(col, (FloatColumn, IntColumn)):
            data, valid = col.arrays(self.nrows)
            out = data[ids].astype(np.float64)
            out[~valid[ids]] = default
            return out
        if isinstance(col, StrColumn):
            return np.full(len(ids), default)
        vals = col.values_at(ids)
        return np.array(
            [
                float(v) if isinstance(v, (int, float)) else default
                for v in vals
            ]
        )

    def set_numeric_bulk(self, key: str, rows, values, integer: bool = False) -> None:
        """Bulk-write a numeric column (the embedding's write path).

        Falls back to scalar writes when the key already spilled to an
        object column.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return
        self.version += 1
        col = self.columns.get(key)
        if col is None:
            col = IntColumn() if integer else FloatColumn()
            self.columns[key] = col
        if isinstance(col, (FloatColumn, IntColumn)):
            col.set_bulk(rows, np.asarray(values, dtype=col.dtype))
            return
        for r, v in zip(rows, values):
            self.set(int(r), key, int(v) if integer else float(v))

    def set_obj_bulk(self, key: str, rows: Iterable[int], values: Iterable[Any]) -> None:
        self.version += 1
        col = self.columns.get(key)
        if not isinstance(col, ObjColumn):
            if col is None:
                col = ObjColumn()
                self.columns[key] = col
            else:
                col = self._spill(key, col)
        cells = col.cells
        for r, v in zip(rows, values):
            cells[int(r)] = v

    # -- whole-store operations ------------------------------------------
    def gather(self, ids: Sequence[int], strings: Optional[StringTable] = None) -> "ColumnStore":
        """A new store holding rows ``ids`` (renumbered densely)."""
        out = ColumnStore(strings if strings is not None else self.strings)
        out.nrows = len(ids)
        for key, col in self.columns.items():
            out.columns[key] = col.gather(ids)
        return out

    def copy(self) -> "ColumnStore":
        out = ColumnStore(self.strings)
        out.nrows = self.nrows
        for key, col in self.columns.items():
            out.columns[key] = col.copy()
        return out

    def memory_stats(self) -> Dict[str, int]:
        return {key: col.nbytes for key, col in self.columns.items()}
