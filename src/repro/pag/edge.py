"""PAG edges: labels, communication kinds, and the attributed edge type.

Paper §3.1: edge labels are *intra-procedural* (control flow inside a
function), *inter-procedural* (call relationships), *inter-thread*
(dependences across threads, e.g. lock waits), and *inter-process*
(communications: synchronous/asynchronous point-to-point and
collectives).  Edge properties carry performance data — communication
time, message bytes, wait time.

Like vertices, attached edges are flyweight handles over the owning
PAG's columnar store; directly constructed edges are detached and carry
their own storage.  A handle drawn from a set with result columns holds
that set's row and reads it first (see :mod:`repro.pag.vertex`).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, MutableMapping, Optional

from repro.pag.vertex import PropsView


class EdgeLabel(enum.Enum):
    """Type of a PAG edge (paper §3.1)."""

    INTRA_PROCEDURAL = "intra-procedural"
    INTER_PROCEDURAL = "inter-procedural"
    INTER_THREAD = "inter-thread"
    INTER_PROCESS = "inter-process"


class CommKind(enum.Enum):
    """Refinement of :attr:`EdgeLabel.INTER_PROCESS` edges."""

    P2P_SYNC = "p2p-sync"
    P2P_ASYNC = "p2p-async"
    COLLECTIVE = "collective"


#: Dense code tables for the columnar store (code = index).
ELABELS = tuple(EdgeLabel)
ELABEL_CODE = {label: code for code, label in enumerate(ELABELS)}
COMMKINDS = tuple(CommKind)
COMMKIND_CODE = {kind: code for code, kind in enumerate(COMMKINDS)}
#: Code meaning "no comm kind".
NO_KIND = -1


#: Conventional edge property keys.
COMM_TIME = "comm_time"
COMM_BYTES = "comm_bytes"
WAIT_TIME = "wait_time"


class _DetachedData:
    """Own storage of an edge created outside any PAG."""

    __slots__ = ("src_id", "dst_id", "label", "comm_kind", "properties")

    def __init__(self, src_id, dst_id, label, comm_kind, properties) -> None:
        self.src_id = src_id
        self.dst_id = dst_id
        self.label = label
        self.comm_kind = comm_kind
        self.properties = properties


class Edge:
    """An attributed, directed PAG edge ``src -> dst``.

    ``src``/``dst`` are vertex ids within the owning PAG; ``src_vertex``
    and ``dst_vertex`` resolve them.  The paper's listings use ``e.src``
    for the source *vertex* (Listing 7 line 25), so :attr:`src_vertex`
    is also exposed under that name via :meth:`__getattr__`-free explicit
    properties below.
    """

    __slots__ = ("id", "_pag", "_data", "_row")

    def __init__(
        self,
        eid: int,
        src_id: int,
        dst_id: int,
        label: EdgeLabel,
        comm_kind: Optional[CommKind] = None,
        properties: Optional[Dict[str, Any]] = None,
        pag: Any = None,
    ) -> None:
        if label is not EdgeLabel.INTER_PROCESS and comm_kind is not None:
            raise ValueError("comm_kind is only meaningful for INTER_PROCESS edges")
        self.id = eid
        self._row = None
        if pag is None:
            self._pag = None
            self._data = _DetachedData(
                src_id, dst_id, label, comm_kind, dict(properties or {})
            )
        else:
            self._pag = pag
            self._data = None

    @classmethod
    def _attached(cls, pag, eid: int, row: Optional[Dict[str, Any]] = None) -> "Edge":
        """Fast handle constructor — skips validation entirely."""
        e = object.__new__(cls)
        e.id = eid
        e._pag = pag
        e._data = None
        e._row = row
        return e

    # -- structural fields -------------------------------------------------
    @property
    def src_id(self) -> int:
        if self._pag is None:
            return self._data.src_id
        return self._pag._e_src[self.id]

    @property
    def dst_id(self) -> int:
        if self._pag is None:
            return self._data.dst_id
        return self._pag._e_dst[self.id]

    @property
    def label(self) -> EdgeLabel:
        if self._pag is None:
            return self._data.label
        return ELABELS[self._pag._e_label[self.id]]

    @property
    def comm_kind(self) -> Optional[CommKind]:
        if self._pag is None:
            return self._data.comm_kind
        code = self._pag._e_kind[self.id]
        return None if code == NO_KIND else COMMKINDS[code]

    @property
    def properties(self) -> MutableMapping:
        if self._pag is None:
            return self._data.properties
        return PropsView(self._pag._eprops, self.id)

    # -- property access ----------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        if self._row is not None and key in self._row:
            return self._row[key]
        if self._pag is None:
            return self._data.properties.get(key)
        return self._pag._eprops.get(self.id, key)

    def __setitem__(self, key: str, value: Any) -> None:
        if self._pag is None:
            self._data.properties[key] = value
        else:
            self._pag._eprops.set(self.id, key, value)

    def __contains__(self, key: str) -> bool:
        if self._row is not None and key in self._row:
            return True
        if self._pag is None:
            return key in self._data.properties
        return self._pag._eprops.has(self.id, key)

    # -- endpoint resolution --------------------------------------------------
    @property
    def pag(self):
        return self._pag

    @property
    def src(self):
        """Source :class:`~repro.pag.vertex.Vertex` (paper's ``e.src``)."""
        return self._pag.vertex(self.src_id)

    @property
    def dst(self):
        """Destination :class:`~repro.pag.vertex.Vertex`."""
        return self._pag.vertex(self.dst_id)

    def other(self, vid: int) -> int:
        """The endpoint id that is not ``vid``."""
        if vid == self.src_id:
            return self.dst_id
        if vid == self.dst_id:
            return self.src_id
        raise ValueError(f"vertex {vid} is not an endpoint of edge {self.id}")

    def _token(self) -> int:
        """Stable identity token of the owning graph (0 if detached)."""
        return 0 if self._pag is None else self._pag.token

    def __repr__(self) -> str:
        kind = f"/{self.comm_kind.value}" if self.comm_kind else ""
        return f"Edge({self.id}, {self.src_id}->{self.dst_id}, {self.label.value}{kind})"

    def __hash__(self) -> int:
        return hash((self._token(), self.id))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        if self._pag is None:
            # detached handles have no graph-assigned id to compare by
            return self is other
        return self._pag is other._pag and self.id == other.id
