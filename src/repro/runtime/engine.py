"""The discrete-event engine.

Execution units (one per MPI rank, plus one per spawned thread) are
Python generators that yield :class:`Request` objects and are resumed
with :class:`Completion` objects carrying the simulated completion time
and wait time.  The engine resolves MPI matching, collective
synchronization, thread spawn/join, and lock serialization.

Determinism: message matching is per-(src, dst, tag) FIFO (MPI
non-overtaking); collectives match by per-rank call ordinal (MPI
requires identical collective sequences per communicator); locks are
granted in arrival order with deterministic tie-breaking.  Completion
*times* are computed from posted times on both sides, so the order in
which the engine happens to process units never changes results.

Wildcard receives (``MPI_ANY_SOURCE``) are deliberately unsupported:
their matching is timing-dependent on real machines, and none of the
modelled applications need them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.ir.model import CommOp, ThreadOp
from repro.runtime.machine import MachineModel
from repro.runtime.records import CommEvent, LockEvent, Path, UnitKey
from repro.runtime.tracer import Tracer


class DeadlockError(RuntimeError):
    """Raised when no unit can make progress but some are blocked.

    ``blocked`` carries one dict per permanently blocked unit —
    ``{"rank", "thread", "blocker", "path"}`` — the structured evidence
    behind the rendered message.
    """

    def __init__(self, message: str, blocked: Optional[List[Dict[str, Any]]] = None):
        super().__init__(message)
        self.blocked: List[Dict[str, Any]] = list(blocked or [])


# ---------------------------------------------------------------------------
# requests / completions
# ---------------------------------------------------------------------------
@dataclass
class Request:
    """Base class; ``t`` is the requesting unit's clock at the call."""

    t: float = 0.0
    path: Optional[Path] = None


@dataclass
class SendReq(Request):
    dst: int = -1
    tag: int = 0
    nbytes: float = 0.0
    blocking: bool = True
    label: str = ""


@dataclass
class RecvReq(Request):
    src: int = -1
    tag: int = 0
    nbytes: float = 0.0
    blocking: bool = True
    label: str = ""


@dataclass
class WaitReq(Request):
    #: request labels to complete; empty tuple means "all outstanding".
    labels: Tuple[str, ...] = ()
    op: CommOp = CommOp.WAITALL


@dataclass
class CollReq(Request):
    op: CommOp = CommOp.BARRIER
    nbytes: float = 0.0
    root: int = 0


@dataclass
class LockReq(Request):
    lock: str = ""
    hold: float = 0.0
    op: ThreadOp = ThreadOp.MUTEX_LOCK


@dataclass
class SpawnReq(Request):
    #: callables (thread_id, start_clock) -> generator; the engine
    #: allocates thread ids and start times (serialized create cost).
    factories: List[Callable[[int, float], Generator]] = field(default_factory=list)


@dataclass
class JoinReq(Request):
    pass


@dataclass
class FinishReq(Request):
    """Yielded once by every unit before returning, carrying its final clock."""


@dataclass
class Completion:
    """Engine's answer to a request."""

    t: float
    wait: float = 0.0
    info: Any = None


# ---------------------------------------------------------------------------
# internal state
# ---------------------------------------------------------------------------
@dataclass
class _PendingMsg:
    """A posted send or recv awaiting its counterpart."""

    unit: UnitKey
    t_post: float
    nbytes: float
    label: str
    path: Optional[Path]
    blocking: bool
    is_recv: bool = False
    #: filled at match time
    matched: bool = False
    t_complete: float = 0.0
    peer_unit: Optional[UnitKey] = None
    peer_path: Optional[Path] = None
    event_emitted: bool = False


@dataclass
class _CollInstance:
    op: Optional[CommOp] = None
    nbytes: float = 0.0
    arrivals: Dict[int, Tuple[float, Optional[Path]]] = field(default_factory=dict)


@dataclass
class _Unit:
    key: UnitKey
    gen: Generator
    clock: float = 0.0
    status: str = "ready"  # ready | blocked | done
    pending: Optional[Completion] = None
    blocker: Optional[str] = None
    #: children spawned by this unit, for JoinReq
    children: List[UnitKey] = field(default_factory=list)
    #: unit waiting on our FinishReq via join, if any
    parent: Optional[UnitKey] = None
    #: outstanding nonblocking requests by label
    requests: Dict[str, _PendingMsg] = field(default_factory=dict)
    #: set when blocked on a WaitReq / blocking msg / join
    waiting_on: Any = None


class Engine:
    """Runs a set of execution units to completion."""

    def __init__(self, nprocs: int, machine: MachineModel, tracer: Tracer):
        self.nprocs = nprocs
        self.machine = machine
        self.tracer = tracer
        self._units: Dict[UnitKey, _Unit] = {}
        self._ready: Deque[UnitKey] = deque()
        self._sends: Dict[Tuple[int, int, int], Deque[_PendingMsg]] = {}
        self._recvs: Dict[Tuple[int, int, int], Deque[_PendingMsg]] = {}
        self._coll_seq: Dict[int, int] = {}
        self._coll: Dict[int, _CollInstance] = {}
        #: lock name -> (free_at, holder_thread, holder_path) per rank
        self._locks: Dict[Tuple[int, str], Tuple[float, int, Optional[Path]]] = {}
        #: parked lock requests per (rank, lock): (t, seq, unit key, req)
        self._lock_pending: Dict[Tuple[int, str], List[Tuple[float, int, UnitKey, LockReq]]] = {}
        self._lock_seq = 0
        self._next_thread: Dict[int, int] = {}
        self._anon_label = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def add_unit(self, rank: int, thread: int, gen: Generator, clock: float = 0.0) -> UnitKey:
        key = (rank, thread)
        if key in self._units:
            raise ValueError(f"duplicate unit {key}")
        # pending=None: the first resume is gen.send(None), which starts the
        # generator; units learn their start clock from their constructor.
        self._units[key] = _Unit(key=key, gen=gen, clock=clock, pending=None)
        self._ready.append(key)
        self._next_thread[rank] = max(self._next_thread.get(rank, 0), thread + 1)
        return key

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> Dict[int, float]:
        """Run all units to completion; returns per-rank elapsed time."""
        while True:
            while self._ready:
                key = self._ready.popleft()
                unit = self._units[key]
                if unit.status == "done":
                    continue
                unit.status = "running"
                while True:
                    completion, unit.pending = unit.pending, None
                    try:
                        req = unit.gen.send(completion)
                    except StopIteration:
                        self._finish(unit)
                        break
                    unit.clock = max(unit.clock, req.t)
                    done_now = self._handle(unit, req)
                    if not done_now:
                        unit.status = "blocked"
                        break
                    # request completed synchronously; keep driving this unit
                # the unit paused: its clock is now a firm lower bound on its
                # future lock requests, so parked grants may have unblocked.
                self._drain_all_locks()
            self._drain_all_locks()
            if not self._ready:
                break
        blocked = [u for u in self._units.values() if u.status == "blocked"]
        if blocked:
            detail = ", ".join(
                f"rank {u.key[0]} thread {u.key[1]} on {u.blocker}" for u in blocked[:8]
            )
            evidence = [
                {
                    "rank": u.key[0],
                    "thread": u.key[1],
                    "blocker": u.blocker,
                    "path": getattr(u.waiting_on, "path", None),
                }
                for u in sorted(blocked, key=lambda u: u.key)
            ]
            raise DeadlockError(
                f"{len(blocked)} unit(s) blocked forever: {detail}", blocked=evidence
            )
        per_rank: Dict[int, float] = {}
        for (rank, _thread), unit in self._units.items():
            per_rank[rank] = max(per_rank.get(rank, 0.0), unit.clock)
        return per_rank

    def _finish(self, unit: _Unit) -> None:
        unit.status = "done"
        parent_key = unit.parent
        if parent_key is not None:
            parent = self._units[parent_key]
            if parent.status == "blocked" and isinstance(parent.waiting_on, JoinReq):
                self._try_complete_join(parent)

    def _wake(self, unit: _Unit, completion: Completion) -> None:
        unit.pending = completion
        unit.clock = max(unit.clock, completion.t)
        unit.status = "ready"
        unit.blocker = None
        unit.waiting_on = None
        self._ready.append(unit.key)

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _handle(self, unit: _Unit, req: Request) -> bool:
        """Process a request.

        Returns True if the request completed synchronously (``unit.pending``
        holds the completion); False if the unit is now blocked.
        """
        if isinstance(req, FinishReq):
            unit.clock = max(unit.clock, req.t)
            # Let StopIteration follow on the next resume.
            unit.pending = Completion(unit.clock)
            return True
        if isinstance(req, SendReq):
            return self._handle_send(unit, req)
        if isinstance(req, RecvReq):
            return self._handle_recv(unit, req)
        if isinstance(req, WaitReq):
            return self._handle_wait(unit, req)
        if isinstance(req, CollReq):
            return self._handle_coll(unit, req)
        if isinstance(req, LockReq):
            return self._handle_lock(unit, req)
        if isinstance(req, SpawnReq):
            return self._handle_spawn(unit, req)
        if isinstance(req, JoinReq):
            unit.waiting_on = req
            return self._try_complete_join(unit, initial=True)
        raise TypeError(f"unknown request {type(req).__name__}")

    # -- point-to-point -----------------------------------------------------
    def _post(self, table, key, msg) -> None:
        table.setdefault(key, deque()).append(msg)

    def _match_key(self, src: int, dst: int, tag: int) -> Tuple[int, int, int]:
        return (src, dst, tag)

    def _try_match(self, src: int, dst: int, tag: int) -> None:
        key = self._match_key(src, dst, tag)
        sends = self._sends.get(key)
        recvs = self._recvs.get(key)
        while sends and recvs:
            s = sends.popleft()
            r = recvs.popleft()
            xfer = self.machine.transfer_time(s.nbytes)
            t_complete = max(s.t_post, r.t_post) + xfer
            for msg, peer in ((s, r), (r, s)):
                msg.matched = True
                msg.t_complete = t_complete
                msg.peer_unit = peer.unit
                msg.peer_path = peer.path
            # Blocking sides resume now that completion time is known.
            if s.blocking:
                sender = self._units[s.unit]
                wait = max(0.0, r.t_post - s.t_post)
                self._wake(sender, Completion(t_complete, wait))
            if r.blocking:
                receiver = self._units[r.unit]
                wait = max(0.0, s.t_post - r.t_post)
                self._emit_p2p_event(s, r, r.path, wait, t_complete, blocking_recv=True)
                self._wake(receiver, Completion(t_complete, wait))
            # Nonblocking receivers parked in a Wait get re-checked.
            for side in (s, r):
                u = self._units[side.unit]
                if u.status == "blocked" and isinstance(u.waiting_on, WaitReq):
                    self._try_complete_waitreq(u)

    def _emit_p2p_event(
        self,
        send: _PendingMsg,
        recv: _PendingMsg,
        dst_path: Optional[Path],
        wait: float,
        t_complete: float,
        blocking_recv: bool,
    ) -> None:
        if recv.event_emitted:
            return
        recv.event_emitted = True
        op = CommOp.RECV if blocking_recv else CommOp.IRECV
        self.tracer.record_comm(
            CommEvent(
                op=op,
                nbytes=send.nbytes,
                t_complete=t_complete,
                src_rank=send.unit[0],
                dst_rank=recv.unit[0],
                src_path=send.path,
                dst_path=dst_path,
                wait_time=wait,
                sender_wait=max(0.0, recv.t_post - send.t_post),
            )
        )

    def _handle_send(self, unit: _Unit, req: SendReq) -> bool:
        rank = unit.key[0]
        if not (0 <= req.dst < self.nprocs):
            raise ValueError(f"send to invalid rank {req.dst} (nprocs={self.nprocs})")
        label = req.label or self._fresh_label()
        msg = _PendingMsg(unit.key, req.t, req.nbytes, label, req.path, req.blocking)
        # Eager protocol: a small blocking send buffers the payload and
        # returns; the data is available to the receiver after the copy.
        eager = req.blocking and req.nbytes <= self.machine.eager_threshold
        if eager:
            msg.t_post = req.t + self.machine.eager_copy_time(req.nbytes)
            msg.blocking = False  # nothing left to wake the sender for
        elif not req.blocking:
            msg.t_post = req.t + self.machine.nonblocking_overhead
            unit.requests[label] = msg
        self._post(self._sends, self._match_key(rank, req.dst, req.tag), msg)
        self._try_match(rank, req.dst, req.tag)
        if eager:
            unit.pending = Completion(msg.t_post)
            return True
        if req.blocking:
            if msg.matched:
                # _try_match woke us already via _wake; but we are the running
                # unit, so pending was set — report synchronous completion.
                return self._adopt_wake(unit)
            unit.blocker = f"MPI_Send to {req.dst}"
            unit.waiting_on = msg
            return False
        unit.pending = Completion(msg.t_post)
        return True

    def _handle_recv(self, unit: _Unit, req: RecvReq) -> bool:
        rank = unit.key[0]
        if not (0 <= req.src < self.nprocs):
            raise ValueError(
                f"recv from invalid rank {req.src} (nprocs={self.nprocs}); "
                "MPI_ANY_SOURCE is unsupported by the simulator"
            )
        label = req.label or self._fresh_label()
        msg = _PendingMsg(
            unit.key, req.t, req.nbytes, label, req.path, req.blocking, is_recv=True
        )
        if not req.blocking:
            msg.t_post = req.t + self.machine.nonblocking_overhead
            unit.requests[label] = msg
        self._post(self._recvs, self._match_key(req.src, rank, req.tag), msg)
        self._try_match(req.src, rank, req.tag)
        if req.blocking:
            if msg.matched:
                return self._adopt_wake(unit)
            unit.blocker = f"MPI_Recv from {req.src}"
            unit.waiting_on = msg
            return False
        unit.pending = Completion(msg.t_post)
        return True

    def _adopt_wake(self, unit: _Unit) -> bool:
        """A _wake targeted us while we were the running unit.

        The wake enqueued us in _ready with a pending completion; claim it
        and keep running synchronously.
        """
        if unit.pending is None:  # pragma: no cover - defensive
            raise RuntimeError("expected a pending completion")
        try:
            self._ready.remove(unit.key)
        except ValueError:
            pass
        unit.status = "running"
        return True

    # -- wait ------------------------------------------------------------
    def _handle_wait(self, unit: _Unit, req: WaitReq) -> bool:
        labels = req.labels or tuple(unit.requests.keys())
        req.labels = labels
        unit.waiting_on = req
        done = self._try_complete_waitreq(unit, initial=True)
        if not done:
            unit.blocker = f"{req.op.value}({len(labels)} reqs)"
        return done

    def _try_complete_waitreq(self, unit: _Unit, initial: bool = False) -> bool:
        req = unit.waiting_on
        assert isinstance(req, WaitReq)
        msgs = []
        for label in req.labels:
            msg = unit.requests.get(label)
            if msg is None:
                raise ValueError(f"wait on unknown request {label!r}")
            msgs.append(msg)
        if not all(m.matched for m in msgs):
            return False
        t_complete = req.t
        for m in msgs:
            t_complete = max(t_complete, m.t_complete)
        wait = t_complete - req.t
        for label, m in zip(req.labels, msgs):
            del unit.requests[label]
            # Receive completions surface at the Wait site (paper Fig. 10:
            # backtracking edges land on mpi_waitall_ vertices), so the
            # inter-process edge is emitted here with the Wait's path as
            # destination and the sender's post path as source.
            if m.is_recv and not m.event_emitted and m.peer_unit is not None:
                m.event_emitted = True
                self.tracer.record_comm(
                    CommEvent(
                        op=CommOp.IRECV,
                        nbytes=m.nbytes,
                        t_complete=m.t_complete,
                        src_rank=m.peer_unit[0],
                        dst_rank=unit.key[0],
                        src_path=m.peer_path,
                        dst_path=req.path,
                        wait_time=max(0.0, m.t_complete - req.t),
                    )
                )
        if initial and unit.status == "running":
            unit.pending = Completion(t_complete, wait)
            unit.waiting_on = None
            return True
        self._wake(unit, Completion(t_complete, wait))
        return True

    # -- collectives -------------------------------------------------------
    def _handle_coll(self, unit: _Unit, req: CollReq) -> bool:
        rank = unit.key[0]
        seq = self._coll_seq.get(rank, 0)
        self._coll_seq[rank] = seq + 1
        inst = self._coll.setdefault(seq, _CollInstance())
        if inst.op is None:
            inst.op = req.op
        elif inst.op is not req.op:
            raise DeadlockError(
                f"collective mismatch at ordinal {seq}: rank {rank} called "
                f"{req.op.value}, others called {inst.op.value}"
            )
        if rank in inst.arrivals:
            raise DeadlockError(f"rank {rank} re-entered collective ordinal {seq}")
        inst.arrivals[rank] = (req.t, req.path)
        inst.nbytes = max(inst.nbytes, req.nbytes)
        unit.blocker = f"{req.op.value} (ordinal {seq})"
        unit.waiting_on = req
        if len(inst.arrivals) == self.nprocs:
            self._complete_collective(seq, inst)
            if unit.pending is not None:
                return self._adopt_wake(unit)
            return True
        return False

    def _complete_collective(self, seq: int, inst: _CollInstance) -> None:
        t_max = max(t for t, _ in inst.arrivals.values())
        src_rank = max(inst.arrivals, key=lambda r: (inst.arrivals[r][0], r))
        cost = self.machine.collective_time(inst.op, inst.nbytes, self.nprocs)
        t_complete = t_max + cost
        participants = [
            (rank, path, t_arr, t_max - t_arr)
            for rank, (t_arr, path) in sorted(inst.arrivals.items())
        ]
        self.tracer.record_comm(
            CommEvent(
                op=inst.op,
                nbytes=inst.nbytes,
                t_complete=t_complete,
                src_rank=src_rank,
                src_path=inst.arrivals[src_rank][1],
                participants=participants,
            )
        )
        del self._coll[seq]
        for rank, (t_arr, _path) in inst.arrivals.items():
            u = self._units[(rank, 0)]
            completion = Completion(t_complete, t_max - t_arr)
            if u.status == "running":
                u.pending = completion
                u.clock = max(u.clock, t_complete)
                u.waiting_on = None
                u.blocker = None
            else:
                self._wake(u, completion)

    # -- locks --------------------------------------------------------------
    #
    # Lock grants must follow *simulated* time, not engine processing
    # order: unit A may be driven through its whole program before unit B
    # starts, so A's requests are all processed first even though B's
    # happen earlier on the simulated clock.  Requests therefore park in
    # a per-lock queue and are granted earliest-first, but only once the
    # requested time is a safe lower bound: every other live unit of the
    # rank has advanced past it (a unit's clock is monotone and bounds
    # its future request times).  Units blocked on pthread_join are
    # exempt from the bound — their next request necessarily follows
    # their children's completion, which follows every parked request.
    def _handle_lock(self, unit: _Unit, req: LockReq) -> bool:
        rank = unit.key[0]
        key = (rank, req.lock)
        self._lock_seq += 1
        pending = self._lock_pending.setdefault(key, [])
        pending.append((req.t, self._lock_seq, unit.key, req))
        pending.sort(key=lambda item: (item[0], item[1]))
        unit.blocker = f"lock {req.lock!r}"
        unit.waiting_on = req
        self._drain_lock(key)
        if unit.pending is not None:
            return self._adopt_wake(unit)
        return False

    def _lock_bound(self, rank: int, exclude: UnitKey) -> float:
        bound = float("inf")
        for key, u in self._units.items():
            if key[0] != rank or key == exclude or u.status == "done":
                continue
            if isinstance(u.waiting_on, JoinReq):
                continue
            bound = min(bound, u.clock)
        return bound

    def _drain_lock(self, key: Tuple[int, str]) -> None:
        pending = self._lock_pending.get(key)
        while pending:
            t, _seq, ukey, req = pending[0]
            if t > self._lock_bound(key[0], exclude=ukey):
                return
            pending.pop(0)
            self._grant_lock(self._units[ukey], req)
        if pending is not None and not pending:
            self._lock_pending.pop(key, None)

    def _drain_all_locks(self) -> None:
        for key in list(self._lock_pending.keys()):
            self._drain_lock(key)

    def _grant_lock(self, unit: _Unit, req: LockReq) -> None:
        rank = unit.key[0]
        key = (rank, req.lock)
        free_at, holder_thread, holder_path = self._locks.get(key, (0.0, -1, None))
        start = max(req.t, free_at)
        wait = start - req.t
        t_complete = start + req.hold + self.machine.lock_overhead
        self._locks[key] = (t_complete, unit.key[1], req.path)
        if wait > 0.0 and holder_thread >= 0 and holder_path is not None:
            self.tracer.record_lock(
                LockEvent(
                    rank=rank,
                    lock=req.lock,
                    waiter_thread=unit.key[1],
                    waiter_path=req.path,
                    holder_thread=holder_thread,
                    holder_path=holder_path,
                    t_acquire=start,
                    wait_time=wait,
                )
            )
        if unit.status == "running":
            unit.pending = Completion(t_complete, wait)
            unit.clock = max(unit.clock, t_complete)
            unit.waiting_on = None
            unit.blocker = None
        else:
            self._wake(unit, Completion(t_complete, wait))

    # -- threads --------------------------------------------------------------
    def _handle_spawn(self, unit: _Unit, req: SpawnReq) -> bool:
        rank = unit.key[0]
        t = req.t
        for factory in req.factories:
            t += self.machine.thread_spawn_cost
            tid = self._next_thread.get(rank, 1)
            self._next_thread[rank] = tid + 1
            child_key = self.add_unit(rank, tid, factory(tid, t), clock=t)
            self._units[child_key].parent = unit.key
            unit.children.append(child_key)
        unit.pending = Completion(t)
        return True

    def _try_complete_join(self, unit: _Unit, initial: bool = False) -> bool:
        req = unit.waiting_on
        assert isinstance(req, JoinReq)
        children = [self._units[k] for k in unit.children]
        if any(c.status != "done" for c in children):
            unit.blocker = f"pthread_join({len(children)} threads)"
            return False
        t_complete = req.t
        for c in children:
            t_complete = max(t_complete, c.clock)
        t_complete += self.machine.thread_join_cost * len(children)
        wait = t_complete - req.t
        unit.children.clear()
        if initial and unit.status == "running":
            unit.pending = Completion(t_complete, wait)
            unit.waiting_on = None
            return True
        self._wake(unit, Completion(t_complete, wait))
        return True

    def _fresh_label(self) -> str:
        self._anon_label += 1
        return f"__anon{self._anon_label}"
