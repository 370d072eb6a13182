"""PAG vertices: labels, call kinds, and the attributed vertex type.

Paper §3.1: each vertex represents a code snippet or control structure.
Vertex *labels* give the structural type (function, call, loop, branch,
instruction); call vertices are further divided into user-defined,
communication, external, recursive, and indirect calls.  Vertex
*properties* are performance data — execution time, PMU counters,
communication data, call counts, iteration counts — attached during
performance-data embedding (§3.3).

Storage note: a vertex is a flyweight handle — owning PAG + row id —
that only its PAG mints (``PAG.add_vertex``, ``PAG.vertex``, iterating
a set); attribute and ``v[...]`` access read the PAG's columnar store
(:mod:`repro.pag.columns`).  There is no public constructor.  Handles
are cheap to mint and compare equal by (graph, id), so passes can
freely re-create them.

A handle drawn from a set that carries result columns (``for v in V``,
``V[i]``; see :mod:`repro.pag.sets`) also holds that set's row for its
element, and ``v[key]`` answers from the row before the PAG's columns —
a pass's annotations live on the set it returned, never on the graph.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterator, MutableMapping, Optional


class VertexLabel(enum.Enum):
    """Structural type of a PAG vertex (paper §3.1, "labels")."""

    FUNCTION = "function"
    CALL = "call"
    LOOP = "loop"
    BRANCH = "branch"
    INSTRUCTION = "instruction"
    #: Synthetic roots used by the parallel view to anchor per-process and
    #: per-thread flows.  They carry no cost themselves.
    PROCESS = "process"
    THREAD = "thread"


class CallKind(enum.Enum):
    """Refinement of :attr:`VertexLabel.CALL` (paper §3.1)."""

    USER = "user"
    #: MPI / communication library call.
    COMM = "comm"
    #: Call into an external library whose body is not analyzed.
    EXTERNAL = "external"
    RECURSIVE = "recursive"
    #: Call through a pointer; target resolvable only at runtime (§3.2).
    INDIRECT = "indirect"
    #: Threading-library call (pthread_create/join, lock operations).
    THREAD = "thread"


#: Dense code tables for the columnar store (code = index).
VLABELS = tuple(VertexLabel)
VLABEL_CODE = {label: code for code, label in enumerate(VLABELS)}
CALLKINDS = tuple(CallKind)
CALLKIND_CODE = {kind: code for code, kind in enumerate(CALLKINDS)}
#: Code meaning "no call kind".
NO_KIND = -1


#: Property keys with conventional meaning across the pass library.
TIME = "time"
CYCLES = "cycles"
INSTRUCTIONS = "instructions"
L1_MISSES = "l1_misses"
L2_MISSES = "l2_misses"
CALL_COUNT = "count"
ITER_COUNT = "iterations"
COMM_INFO = "comm-info"
DEBUG_INFO = "debug-info"
NAME = "name"

#: Vector-valued properties (one entry per process/thread) used by the
#: imbalance and breakdown passes on the top-down view.
TIME_PER_RANK = "time_per_rank"


class PropsView(MutableMapping):
    """Dict-compatible live view of one row of a :class:`ColumnStore`.

    Supports the full ``MutableMapping`` protocol (``.get``, ``.pop``,
    ``.items``, ``dict(view)``, ``==`` against plain dicts), writing
    through to the columns.
    """

    __slots__ = ("_store", "_row")

    def __init__(self, store, row: int) -> None:
        self._store = store
        self._row = row

    def __getitem__(self, key: str) -> Any:
        if not self._store.has(self._row, key):
            raise KeyError(key)
        return self._store.get(self._row, key)

    def __setitem__(self, key: str, value: Any) -> None:
        self._store.set(self._row, key, value)

    def __delitem__(self, key: str) -> None:
        self._store.delete(self._row, key)

    def __iter__(self) -> Iterator[str]:
        return self._store.keys_at(self._row)

    def __len__(self) -> int:
        return sum(1 for _ in self._store.keys_at(self._row))

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self._store.has(self._row, key)

    def get(self, key: str, default: Any = None) -> Any:
        if self._store.has(self._row, key):
            return self._store.get(self._row, key)
        return default

    def __repr__(self) -> str:
        return repr(dict(self))


class Vertex:
    """An attributed PAG vertex.

    Properties are accessed dict-style (``v["time"]``), mirroring the
    paper's listings (e.g. Listing 4 ``v[metric] = v1[metric] - v2[metric]``).
    Structural fields (``id``, ``label``, ``name``) are plain attributes.

    A vertex belongs to exactly one :class:`~repro.pag.graph.PAG`; its
    ``id`` is the index assigned by that graph.
    """

    __slots__ = ("id", "_pag", "_row")

    @classmethod
    def _attached(cls, pag, vid: int, row: Optional[Dict[str, Any]] = None) -> "Vertex":
        """The only constructor; ``vid`` must be a row of ``pag``.

        ``row`` is the element's row of the result columns of the set the
        handle is drawn from (``None`` for a handle minted by the graph).
        """
        v = object.__new__(cls)
        v.id = vid
        v._pag = pag
        v._row = row
        return v

    # -- structural fields -------------------------------------------------
    @property
    def label(self) -> VertexLabel:
        return VLABELS[self._pag._v_label[self.id]]

    @property
    def call_kind(self) -> Optional[CallKind]:
        code = self._pag._v_kind[self.id]
        return None if code == NO_KIND else CALLKINDS[code]

    @property
    def name(self) -> str:
        return self._pag.strings.value(self._pag._v_name[self.id])

    @name.setter
    def name(self, value: str) -> None:
        # mmap-loaded graphs hold read-only structural views
        self._pag._thaw_structure()
        self._pag._v_name[self.id] = self._pag.strings.intern(value)
        self._pag._struct_version += 1

    @property
    def properties(self) -> MutableMapping:
        return PropsView(self._pag._vprops, self.id)

    # -- property access (paper's ``v[...]`` idiom) ----------------------
    def __getitem__(self, key: str) -> Any:
        if key == NAME:
            return self.name
        if key == "type":
            # Listing 7 compares ``v[type]`` against pflow.MPI / pflow.LOOP /
            # pflow.BRANCH; communication calls report "mpi", every other
            # vertex its structural label.
            return "mpi" if self.is_comm() else self.label.value
        if self._row is not None and key in self._row:
            return self._row[key]
        return self._pag._vprops.get(self.id, key)

    def __setitem__(self, key: str, value: Any) -> None:
        if key == NAME:
            self.name = value
        else:
            self._pag._vprops.set(self.id, key, value)

    def __contains__(self, key: str) -> bool:
        if key == NAME:
            return True
        if self._row is not None and key in self._row:
            return True
        return self._pag._vprops.has(self.id, key)

    @property
    def metrics(self) -> Iterator[str]:
        """Names of numeric properties, used by the differential pass."""
        for key, value in self.properties.items():
            if isinstance(value, (int, float)):
                yield key

    # -- graph navigation -------------------------------------------------
    @property
    def pag(self):
        """The owning :class:`~repro.pag.graph.PAG`."""
        return self._pag

    @property
    def es(self):
        """All edges incident to this vertex, as an :class:`EdgeSet`.

        Mirrors the paper's ``v.es`` (Listing 7 line 13).  Use
        ``.select(...)`` on the result to restrict by direction or label.
        """
        return self._pag.incident(self.id)

    def in_edges(self):
        return self._pag.in_edges(self.id)

    def out_edges(self):
        return self._pag.out_edges(self.id)

    # -- misc --------------------------------------------------------------
    def is_comm(self) -> bool:
        """True for communication (MPI) call vertices."""
        return (
            VLABELS[self._pag._v_label[self.id]] is VertexLabel.CALL
            and self._pag._v_kind[self.id] == CALLKIND_CODE[CallKind.COMM]
        )

    def __repr__(self) -> str:
        kind = f"/{self.call_kind.value}" if self.call_kind else ""
        return f"Vertex({self.id}, {self.label.value}{kind}, {self.name!r})"

    def __hash__(self) -> int:
        return hash((self._pag.token, self.id))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vertex):
            return NotImplemented
        return self._pag is other._pag and self.id == other.id
