"""Record types produced by a simulated run.

These are the inputs of PAG construction: per-context vertex statistics
feed performance-data embedding (§3.3), communication and lock events
become the inter-process and inter-thread edges of the parallel view
(§3.4), and runtime-resolved indirect calls complete the static
structure (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.ir.model import CommOp, Program

PathElem = Union[int, str]
Path = Tuple[PathElem, ...]
UnitKey = Tuple[int, int]  # (rank, thread)


@dataclass
class VertexStat:
    """Accumulated dynamic data for one (context path, rank, thread).

    ``time`` is total simulated seconds spent at the context (for
    communication calls this includes wait + transfer), ``wait`` the wait
    portion, ``nbytes`` total communicated payload, ``count`` the number
    of executions/calls.
    """

    time: float = 0.0
    wait: float = 0.0
    nbytes: float = 0.0
    count: int = 0

    def add(self, time: float, wait: float = 0.0, nbytes: float = 0.0, count: int = 1) -> None:
        self.time += time
        self.wait += wait
        self.nbytes += nbytes
        self.count += count


@dataclass
class CommEvent:
    """One matched communication.

    For point-to-point events ``src_*`` describe the sender side and
    ``dst_*`` the receive-completion side (the Recv call, or the
    Wait/Waitall that completed an Irecv).  For collectives
    ``participants`` lists ``(rank, path, arrival, wait)`` for every rank
    and ``src_rank`` is the *last-arriving* rank — the participant that
    made everyone else wait, which is where backtracking edges point
    from.
    """

    op: CommOp
    nbytes: float
    t_complete: float
    src_rank: int = -1
    dst_rank: int = -1
    src_path: Optional[Path] = None
    dst_path: Optional[Path] = None
    wait_time: float = 0.0
    sender_wait: float = 0.0
    participants: Optional[List[Tuple[int, Path, float, float]]] = None

    @property
    def is_collective(self) -> bool:
        return self.participants is not None


@dataclass
class LockEvent:
    """One contended lock acquisition inside a process.

    ``holder_*`` identify who held the lock while this waiter queued
    (absent for uncontended acquisitions, which produce no event).
    """

    rank: int
    lock: str
    waiter_thread: int
    waiter_path: Path
    holder_thread: int
    holder_path: Path
    t_acquire: float
    wait_time: float


@dataclass
class RunResult:
    """Everything a simulated run produced.

    This plus the program model is sufficient to build both PAG views:
    no other channel exists between the runtime and the analysis layer,
    mirroring the paper's profile-data-only interface.
    """

    program: Program
    nprocs: int
    nthreads: int
    params: Dict[str, Any] = field(default_factory=dict)
    #: (path -> (rank, thread) -> stats)
    vertex_stats: Dict[Path, Dict[UnitKey, VertexStat]] = field(default_factory=dict)
    comm_events: List[CommEvent] = field(default_factory=list)
    lock_events: List[LockEvent] = field(default_factory=list)
    #: call-site uid -> resolved callee names (runtime fill-in of §3.2)
    indirect_targets: Dict[int, Set[str]] = field(default_factory=dict)
    per_rank_elapsed: Dict[int, float] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        """Simulated wall time of the run (slowest rank)."""
        return max(self.per_rank_elapsed.values()) if self.per_rank_elapsed else 0.0

    def stat(self, path: Path, rank: int, thread: int = 0) -> VertexStat:
        """Accumulator for one (context, rank, thread); creates if absent."""
        per_unit = self.vertex_stats.setdefault(path, {})
        key = (rank, thread)
        if key not in per_unit:
            per_unit[key] = VertexStat()
        return per_unit[key]

    def total_time(self, path: Path) -> float:
        """Summed time at a context across all ranks/threads."""
        per_unit = self.vertex_stats.get(path)
        if not per_unit:
            return 0.0
        return sum(s.time for s in per_unit.values())

