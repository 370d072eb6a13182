"""PAG edges: labels, communication kinds, and the attributed edge type.

Paper §3.1: edge labels are *intra-procedural* (control flow inside a
function), *inter-procedural* (call relationships), *inter-thread*
(dependences across threads, e.g. lock waits), and *inter-process*
(communications: synchronous/asynchronous point-to-point and
collectives).  Edge properties carry performance data — communication
time, message bytes, wait time.

Like vertices, edges are flyweight handles over the owning PAG's
columnar store that only the PAG mints (``PAG.add_edge``, ``PAG.edge``,
iterating a set).  A handle drawn from a set with result columns holds
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


class Edge:
    """An attributed, directed PAG edge ``src -> dst``.

    ``src_id``/``dst_id`` are vertex ids within the owning PAG; ``src``
    and ``dst`` resolve them to vertices, as the paper's listings use
    ``e.src`` (Listing 7 line 25).
    """

    __slots__ = ("id", "_pag", "_row")

    @classmethod
    def _attached(cls, pag, eid: int, row: Optional[Dict[str, Any]] = None) -> "Edge":
        """The only constructor; ``eid`` must be a row of ``pag``."""
        e = object.__new__(cls)
        e.id = eid
        e._pag = pag
        e._row = row
        return e

    # -- structural fields -------------------------------------------------
    @property
    def src_id(self) -> int:
        return self._pag._e_src[self.id]

    @property
    def dst_id(self) -> int:
        return self._pag._e_dst[self.id]

    @property
    def label(self) -> EdgeLabel:
        return ELABELS[self._pag._e_label[self.id]]

    @property
    def comm_kind(self) -> Optional[CommKind]:
        code = self._pag._e_kind[self.id]
        return None if code == NO_KIND else COMMKINDS[code]

    @property
    def properties(self) -> MutableMapping:
        return PropsView(self._pag._eprops, self.id)

    # -- property access ----------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        if self._row is not None and key in self._row:
            return self._row[key]
        return self._pag._eprops.get(self.id, key)

    def __setitem__(self, key: str, value: Any) -> None:
        self._pag._eprops.set(self.id, key, value)

    def __contains__(self, key: str) -> bool:
        if self._row is not None and key in self._row:
            return True
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

    def __repr__(self) -> str:
        kind = f"/{self.comm_kind.value}" if self.comm_kind else ""
        return f"Edge({self.id}, {self.src_id}->{self.dst_id}, {self.label.value}{kind})"

    def __hash__(self) -> int:
        return hash((self._pag.token, self.id))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self._pag is other._pag and self.id == other.id
