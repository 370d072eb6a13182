"""Sets of PAG vertices and edges — the data of PerFlowGraph edges.

Paper §4.2: the intermediate results flowing between passes are *sets*
of PAG vertices and/or edges.  §4.3.1 defines the set-operation API:
element sorting, filtering, classification, and the usual intersection,
union, complement, and difference.  For a pass built purely from set
operations, outputs are subsets of inputs; graph operations may add new
elements.

Both set types preserve insertion order and deduplicate by element id,
so ``sort_by(m).top(n)`` (Listing 3) is deterministic.

Storage: a set is the owning graph plus an ``int64`` id-array, and the
algebra (union/intersection/difference), ``sort_by``, ``select`` and the
bulk :meth:`values` API run as O(n) vectorized array operations without
ever materializing element handles.  A set therefore covers exactly one
PAG (or none, when empty): building one from elements of two graphs is
a ``CrossPAGError`` (a ``ValueError``), and so is a ``union`` of
non-empty sets over different graphs.  The other operators treat a set
as a set of ``(pag, id)`` pairs, so across graphs ``a & b`` is empty,
``a - b`` is ``a``, ``a == b`` is false and ``x in s`` is false.

Result columns: a set may also carry named columns — plain lists aligned
1:1 with its id-array — which is how a pass returns what it found out
about its output (``imbalance``, ``backtrack_root``, …) without writing
to the PAG.  :meth:`~_ElementSet.with_columns` attaches them to a new
set; :meth:`~_ElementSet.values` and a handle drawn from the set
(``for v in V``, ``V[i]``) read a carried column first and the PAG's
column otherwise.  Operations that choose rows (``select``, ``sort_by``,
``top``, ``filter``, ``classify``, slicing, ``&``, ``-``) carry the
chosen rows; ``|`` keeps, per id and column, the value of the first
operand that holds one (``None`` = holds nothing), else the PAG's.
Equality compares ids only.
"""

from __future__ import annotations

import fnmatch
import re
from typing import Any, Callable, Dict, Generic, Iterable, Iterator, List, Optional, TypeVar

import numpy as np

from repro.pag.columns import FloatColumn, IntColumn, StrColumn, _np_view
from repro.pag.edge import COMMKIND_CODE, ELABEL_CODE, CommKind, Edge, EdgeLabel
from repro.pag.vertex import (
    CALLKIND_CODE,
    VLABEL_CODE,
    VLABELS,
    CallKind,
    Vertex,
    VertexLabel,
)

T = TypeVar("T", Vertex, Edge)

#: Direction selectors for :meth:`EdgeSet.select`, mirroring the paper's
#: ``v.es.select(IN_EDGE)`` (Listing 7 line 13).
IN_EDGE = "in"
OUT_EDGE = "out"

_EMPTY_IDS = np.empty(0, dtype=np.int64)
#: A name pattern without these is a literal: ``fnmatchcase`` then means ``==``.
_GLOB_CHARS = frozenset("*?[")


def _stable_unique(a: np.ndarray) -> np.ndarray:
    """Deduplicate preserving first-occurrence order."""
    if len(a) <= 1:
        return a
    _, first = np.unique(a, return_index=True)
    if len(first) == len(a):
        return a
    first.sort()
    return a[first]


def _membership(query: np.ndarray, ids: np.ndarray, universe: int) -> np.ndarray:
    """Boolean mask over ``query``: which entries appear in ``ids``.

    Uses a bitset over the owning PAG when the operands are a sizable
    fraction of it (O(n) overall), a sort-based ``np.isin`` otherwise
    (small sets over huge graphs should not pay an O(|PAG|) allocation).
    """
    if len(ids) == 0 or len(query) == 0:
        return np.zeros(len(query), dtype=bool)
    if universe and len(ids) + len(query) >= universe // 8:
        bits = np.zeros(universe, dtype=bool)
        bits[ids] = True
        return bits[query]
    return np.isin(query, ids)


class CrossPAGError(ValueError):
    """Elements of two PAGs met where one PAG is expected: in one set
    (a set covers exactly one), or a handle given to another PAG."""


def _cross_pag(cls: type, a, b) -> CrossPAGError:
    return CrossPAGError(
        f"a {cls.__name__} covers one PAG; got elements of both "
        f"{a.name!r} and {b.name!r}"
    )


class _ElementSet(Generic[T]):
    """Ordered, deduplicated collection of PAG elements."""

    __slots__ = ("_pag", "_ids", "_members", "_cols")

    #: Element class of this set family (Vertex or Edge); set in subclasses.
    _ELEMENT: type = object

    def __init__(self, elements: Iterable[T] = ()):  # noqa: D107
        pag = None
        ids: List[int] = []
        seen: set = set()
        for el in elements:
            p = el.pag
            if p is not pag:
                if pag is not None:
                    raise _cross_pag(type(self), pag, p)
                pag = p
            i = el.id
            if i not in seen:
                seen.add(i)
                ids.append(i)
        self._pag = pag
        self._ids = np.array(ids, dtype=np.int64) if ids else _EMPTY_IDS
        self._members = None
        self._cols = None

    @classmethod
    def _from_ids(cls, pag, ids: np.ndarray, cols=None) -> "_ElementSet[T]":
        """Internal constructor; ``ids`` must be deduped rows of ``pag``
        and ``cols`` (if any) lists aligned with them."""
        s = object.__new__(cls)
        s._pag = pag
        s._ids = ids
        s._members = None
        s._cols = cols or None
        return s

    @classmethod
    def from_ids(cls, pag, ids: Iterable[int]) -> "_ElementSet[T]":
        """Build a set from element ids of ``pag`` (bulk API).

        Ids are deduplicated preserving first-occurrence order, matching
        the constructor's semantics; an id that is not a row of ``pag``
        is a ``ValueError``.
        """
        arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64)
        if not cls._valid_ids(pag, arr):
            raise ValueError(
                f"element ids outside [0, {cls._nrows(pag)}) for {pag!r}"
            )
        return cls._from_ids(pag, _stable_unique(arr))

    # -- internal helpers --------------------------------------------------
    @classmethod
    def _valid_ids(cls, pag, ids: np.ndarray) -> bool:
        """True when every id is a row of this element family in ``pag``."""
        return ids.size == 0 or (ids.min() >= 0 and ids.max() < cls._nrows(pag))

    def _id_members(self):
        if self._members is None:
            self._members = frozenset(self._ids.tolist())
        return self._members

    @staticmethod
    def _nrows(pag) -> int:
        """Universe size (row count of this element family in ``pag``)."""
        raise NotImplementedError

    def _take(self, rows) -> "_ElementSet[T]":
        """The rows picked by a slice, boolean mask or index array."""
        cols = self._cols
        if cols is not None:
            if isinstance(rows, slice):
                cols = {k: c[rows] for k, c in cols.items()}
            else:
                picked = (np.flatnonzero(rows) if rows.dtype == bool else rows).tolist()
                cols = {k: [c[i] for i in picked] for k, c in cols.items()}
        return type(self)._from_ids(self._pag, self._ids[rows], cols)

    # -- result columns ------------------------------------------------------
    @property
    def columns(self) -> tuple:
        """Names of the result columns this set carries."""
        return tuple(self._cols or ())

    def with_columns(self, **columns: Iterable[Any]) -> "_ElementSet[T]":
        """A set of the same elements that also carries ``columns``.

        Each column is one value per element, in set order; a name the
        set already carries is replaced.  Neither this set nor the PAG
        is touched.
        """
        cols = dict(self._cols or ())
        for key, col in columns.items():
            col = col.tolist() if isinstance(col, np.ndarray) else list(col)
            if len(col) != len(self._ids):
                raise ValueError(
                    f"column {key!r} has {len(col)} values for {len(self._ids)} elements"
                )
            cols[key] = col
        return type(self)._from_ids(self._pag, self._ids, cols)

    # -- container protocol ------------------------------------------------
    def __iter__(self) -> Iterator[T]:
        pag = self._pag
        att = self._ELEMENT._attached
        cols = self._cols
        if cols is None:
            return (att(pag, int(i)) for i in self._ids)
        keys = tuple(cols)
        return (
            att(pag, i, dict(zip(keys, row)))
            for i, row in zip(self._ids.tolist(), zip(*cols.values()))
        )

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return self._take(idx)
        row = None
        if self._cols is not None:
            row = {k: c[idx] for k, c in self._cols.items()}
        return self._ELEMENT._attached(self._pag, int(self._ids[idx]), row)

    def __contains__(self, el: object) -> bool:
        if not isinstance(el, self._ELEMENT) or el._pag is not self._pag:
            return False
        return el.id in self._id_members()

    def __bool__(self) -> bool:
        return len(self) > 0

    def to_list(self) -> List[T]:
        return list(self)

    def ids(self) -> np.ndarray:
        """Element ids in set order as an ``int64`` array (bulk API)."""
        return self._ids.copy()

    # -- set algebra ---------------------------------------------------------
    def union(self, *others: "_ElementSet[T]") -> "_ElementSet[T]":
        parts = [s for s in (self, *others) if len(s._ids)]
        if not parts:
            return type(self)._from_ids(self._pag, _EMPTY_IDS)
        pag = parts[0]._pag
        for s in parts:
            if s._pag is not pag:
                raise _cross_pag(type(self), pag, s._pag)
        if len(parts) == 1:
            return type(self)._from_ids(pag, parts[0]._ids, parts[0]._cols)
        cat = np.concatenate([s._ids for s in parts])
        out = type(self)._from_ids(pag, _stable_unique(cat))
        carrying = [s for s in parts if s._cols is not None]
        if carrying:
            # per id and column: the first operand holding a value wins,
            # ids no operand speaks for read the PAG as they always did
            names = dict.fromkeys(k for s in carrying for k in s._cols)
            out._cols = {k: out._bulk_values(k) for k in names}
            pos = {i: n for n, i in enumerate(out._ids.tolist())}
            for s in reversed(carrying):
                at = [pos[i] for i in s._ids.tolist()]
                for key, col in s._cols.items():
                    merged = out._cols[key]
                    for n, value in zip(at, col):
                        if value is not None:
                            merged[n] = value
        return out

    def intersection(self, other: "_ElementSet[T]") -> "_ElementSet[T]":
        if other._pag is not self._pag:
            return type(self)._from_ids(self._pag, _EMPTY_IDS)
        return self._take(_membership(self._ids, other._ids, self._nrows(self._pag)))

    def difference(self, other: "_ElementSet[T]") -> "_ElementSet[T]":
        if other._pag is not self._pag:
            return self._take(slice(None))
        return self._take(~_membership(self._ids, other._ids, self._nrows(self._pag)))

    def complement(self, universe: "_ElementSet[T]") -> "_ElementSet[T]":
        """Elements of ``universe`` not in this set."""
        return universe.difference(self)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ElementSet):
            return NotImplemented
        if len(self._ids) != len(other._ids):
            return False
        if len(self._ids) == 0:
            return True
        return self._pag is other._pag and bool(
            np.array_equal(np.sort(self._ids), np.sort(other._ids))
        )

    def __hash__(self):  # sets are mutable-ish views; keep them unhashable
        raise TypeError(f"{type(self).__name__} is unhashable")

    # -- ordering / selection ------------------------------------------------
    def sort_by(self, metric: str, reverse: bool = True) -> "_ElementSet[T]":
        """Sort by a property value, descending by default (hotspot order).

        Elements missing the metric sort as 0.  The sort is stable, so
        ties keep their original relative order either way.
        """
        if len(self._ids) == 0:
            return type(self)._from_ids(self._pag, self._ids)
        vals = self._numeric_column(metric)
        return self._take(np.argsort(-vals if reverse else vals, kind="stable"))

    def top(self, n: int) -> "_ElementSet[T]":
        """First ``n`` elements (combine with :meth:`sort_by`, Listing 3)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self._take(slice(n))

    def filter(self, predicate: Callable[[T], bool]) -> "_ElementSet[T]":
        kept = [n for n, el in enumerate(self) if predicate(el)]
        return self._take(np.array(kept, dtype=np.int64))

    def classify(self, key: Callable[[T], Any]) -> Dict[Any, "_ElementSet[T]"]:
        """Partition the set by a key function (the classification op of §4.3.1)."""
        groups: Dict[Any, List[int]] = {}
        for n, el in enumerate(self):
            groups.setdefault(key(el), []).append(n)
        return {k: self._take(np.array(v, dtype=np.int64)) for k, v in groups.items()}

    # -- bulk property access -------------------------------------------------
    def values(self, key: str) -> List[Any]:
        """Property values in set order (bulk API; ``None`` where absent).

        Equivalent to ``[el[key] for el in self]``: the result column if
        the set carries ``key``, else a direct read of the owning PAG's
        column.
        """
        if len(self._ids) == 0:
            return []
        if self._cols is not None and key in self._cols:
            return list(self._cols[key])
        return self._bulk_values(key)

    def map_property(self, metric: str) -> List[Any]:
        """Property values in set order (alias of :meth:`values`)."""
        return self.values(metric)

    def _bulk_values(self, key: str) -> List[Any]:
        """The PAG's values of ``key`` in set order."""
        return self._store().values(key, self._ids)

    def _store(self):
        """The PAG's property store of this element family."""
        raise NotImplementedError

    def _numeric_column(self, metric: str) -> np.ndarray:
        """Float values aligned with ``self._ids``; non-numeric reads as 0."""
        if self._cols is not None and metric in self._cols:
            return np.array(
                [float(v) if isinstance(v, (int, float)) else 0.0 for v in self._cols[metric]]
            )
        return self._store().numeric(metric, self._ids, 0.0)

    def sum(self, metric: str) -> float:
        if len(self._ids) == 0:
            return 0.0
        return float(self._numeric_column(metric).sum())

    def max(self, metric: str) -> float:
        if len(self._ids) == 0:
            return 0.0
        return float(self._numeric_column(metric).max())

    def _prop_mask(self, key: str, want: Any) -> np.ndarray:
        """Vectorized ``el[key] == want`` over typed columns where possible."""
        ids = self._ids
        if self._cols is not None and key in self._cols:
            return np.fromiter((v == want for v in self._cols[key]), dtype=bool, count=len(ids))
        store = self._store()
        col = store.column(key)
        if isinstance(col, (FloatColumn, IntColumn)) and isinstance(
            want, (int, float)
        ) and not isinstance(want, bool):
            data, valid = col.arrays(store.nrows)
            return valid[ids] & (data[ids] == want)
        if isinstance(col, StrColumn) and isinstance(want, str):
            sid = store.strings.find(want)
            return col.sid_array(store.nrows)[ids] == (-2 if sid is None else sid)
        if col is None:
            # missing property reads as None everywhere
            return np.full(len(ids), want is None)
        vals = col.values_at(ids)
        return np.fromiter((v == want for v in vals), dtype=bool, count=len(ids))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} elements)"


class VertexSet(_ElementSet[Vertex]):
    """A set of PAG vertices."""

    _ELEMENT = Vertex

    @staticmethod
    def _nrows(pag) -> int:
        return pag.num_vertices if pag is not None else 0

    def _bulk_values(self, key: str) -> List[Any]:
        pag = self._pag
        ids = self._ids
        if key == "name":
            sids = _np_view(pag._v_name, np.int64)[ids]
            value = pag.strings.value
            return [value(int(s)) for s in sids]
        if key == "type":
            labels = _np_view(pag._v_label, np.int8)[ids]
            kinds = _np_view(pag._v_kind, np.int8)[ids]
            is_mpi = (labels == _CALL_CODE) & (kinds == _COMM_CODE)
            label_values = _VLABEL_VALUES
            return [
                "mpi" if m else label_values[c]
                for m, c in zip(is_mpi.tolist(), labels.tolist())
            ]
        return super()._bulk_values(key)

    def _store(self):
        return self._pag._vprops

    def _numeric_column(self, metric: str) -> np.ndarray:
        if metric in ("name", "type"):
            return np.zeros(len(self._ids))
        return super()._numeric_column(metric)

    def select(
        self,
        name: Optional[str] = None,
        label: Optional[VertexLabel] = None,
        call_kind: Optional[CallKind] = None,
        **props: Any,
    ) -> "VertexSet":
        """Filter by name glob (``"MPI_*"``), label, call kind, or property.

        This is the "filter" set operation of §4.3.1: e.g.
        ``V.select(name="MPI_*")`` keeps communication vertices and
        ``V.select(name="istream::read")`` keeps IO vertices.

        ``name`` has ``fnmatch.fnmatchcase`` semantics.  Runs
        vectorized: label/kind compare code arrays; a literal name is one
        string-table lookup and a glob is matched once per *distinct*
        name among the vertices still selected; typed property columns
        compare in bulk.
        """
        pag = self._pag
        ids = self._ids
        if len(ids) == 0:
            return VertexSet._from_ids(pag, _EMPTY_IDS)
        mask = np.ones(len(ids), dtype=bool)
        if label is not None:
            mask &= _np_view(pag._v_label, np.int8)[ids] == VLABEL_CODE[label]
        if call_kind is not None:
            mask &= _np_view(pag._v_kind, np.int8)[ids] == CALLKIND_CODE[call_kind]
        if name is not None:
            sids = _np_view(pag._v_name, np.int64)[ids]
            if _GLOB_CHARS.isdisjoint(name):  # a literal matches itself only
                sid = pag.strings.find(name)
                mask &= (sids == sid) if sid is not None else False
            else:
                lookup = np.zeros(len(pag.strings), dtype=bool)
                lookup[sids[mask]] = True
                distinct = np.flatnonzero(lookup)
                values = map(pag.strings.value, distinct.tolist())
                hits = map(bool, map(re.compile(fnmatch.translate(name)).match, values))
                lookup[distinct] = np.fromiter(hits, dtype=bool, count=len(distinct))
                mask &= lookup[sids]
        for key, want in props.items():
            if not mask.any():
                break
            if key == "name" or key == "type":
                vals = self._bulk_values(key)
                mask &= np.fromiter(
                    (v == want for v in vals), dtype=bool, count=len(ids)
                )
            else:
                mask &= self._prop_mask(key, want)
        return self._take(mask)

    @property
    def pag(self):
        """The PAG the elements belong to (``None`` for an empty set).

        Listing 6 uses ``V.pag`` to hand the environment graph to a graph
        algorithm.
        """
        return self._pag if len(self._ids) else None


class EdgeSet(_ElementSet[Edge]):
    """A set of PAG edges."""

    _ELEMENT = Edge

    @staticmethod
    def _nrows(pag) -> int:
        return pag.num_edges if pag is not None else 0

    def _store(self):
        return self._pag._eprops

    def select(
        self,
        direction: Optional[str] = None,
        type: Optional[EdgeLabel] = None,  # noqa: A002 - paper API name
        comm_kind: Optional[CommKind] = None,
        of: Optional[Vertex] = None,
        **props: Any,
    ) -> "EdgeSet":
        """Filter edges by direction relative to ``of``, label, or property.

        ``select(IN_EDGE, of=v)`` keeps edges entering ``v``;
        ``select(type=EdgeLabel.INTER_PROCESS)`` keeps communication edges
        (the paper's ``in_es.select(type=pflow.COMM)``, Listing 7).
        """
        pag = self._pag
        ids = self._ids
        if len(ids) == 0:
            return EdgeSet._from_ids(pag, _EMPTY_IDS)
        mask = np.ones(len(ids), dtype=bool)
        if direction == IN_EDGE and of is not None:
            mask &= _np_view(pag._e_dst, np.int64)[ids] == of.id
        if direction == OUT_EDGE and of is not None:
            mask &= _np_view(pag._e_src, np.int64)[ids] == of.id
        if type is not None:
            mask &= _np_view(pag._e_label, np.int8)[ids] == ELABEL_CODE[type]
        if comm_kind is not None:
            mask &= _np_view(pag._e_kind, np.int8)[ids] == COMMKIND_CODE[comm_kind]
        for key, want in props.items():
            if not mask.any():
                break
            mask &= self._prop_mask(key, want)
        return self._take(mask)

    def sources(self) -> VertexSet:
        if len(self._ids) == 0:
            return VertexSet._from_ids(None, _EMPTY_IDS)
        vids = _np_view(self._pag._e_src, np.int64)[self._ids]
        return VertexSet._from_ids(self._pag, _stable_unique(vids))

    def destinations(self) -> VertexSet:
        if len(self._ids) == 0:
            return VertexSet._from_ids(None, _EMPTY_IDS)
        vids = _np_view(self._pag._e_dst, np.int64)[self._ids]
        return VertexSet._from_ids(self._pag, _stable_unique(vids))


#: Precomputed codes for the vectorized ``"type"`` pseudo-property.
_CALL_CODE = VLABEL_CODE[VertexLabel.CALL]
_COMM_CODE = CALLKIND_CODE[CallKind.COMM]
_VLABEL_VALUES = [label.value for label in VLABELS]
