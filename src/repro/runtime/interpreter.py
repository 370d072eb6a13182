"""IR interpreter: lowers a program model into engine execution units.

Each :func:`~repro.runtime.executor.run_program` call builds one
:class:`Lowering`: one closure per context path the run reaches, holding
the path (the keys the static analysis assigns, so embedding is exact),
an integer context id, and each model attribute resolved to constant or
callable.  Subtrees that cannot issue an engine request run as plain
calls, the rest as generators yielding the requests of each
synchronizing operation.  Branch arms and call targets are lowered on
first execution, so code a run never enters is never lowered.  Each
execution unit (rank or spawned thread) is a :class:`_Unit` with its own
clock, writing its stats through the context id.

Accounting conventions
----------------------
* :class:`~repro.ir.model.Stmt` and opaque external calls add their cost
  to the local clock and record *exclusive* time at their own path;
  inclusive times are aggregated up the tree during embedding.
* Communication calls record the full time spent inside the call
  (wait + transfer) plus the wait portion separately.
* Loops record iteration counts; calls record call counts.
* Lock/allocator calls record hold + wait time at their path.

``RunResult.vertex_stats`` lists paths, and units within a path, in
first-record order.  A record skips adding ``0.0``: a sum starting at
``0.0`` is never ``-0.0``, so that add would change no bit.

Only thread 0 of a rank may issue MPI operations (the usual
``MPI_THREAD_FUNNELED`` discipline, which all modelled apps follow).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Sequence, Tuple

from repro.ir.context import ExecContext
from repro.ir.model import (
    Branch,
    Call,
    CallTarget,
    CommCall,
    CommOp,
    Loop,
    Node,
    Program,
    Stmt,
    ThreadCall,
    ThreadOp,
)
from repro.runtime.engine import (
    CollReq,
    Completion,
    FinishReq,
    JoinReq,
    LockReq,
    RecvReq,
    SendReq,
    SpawnReq,
    WaitReq,
)
from repro.runtime.records import Path, RunResult, VertexStat
from repro.runtime.tracer import Tracer

_COLLECTIVES = frozenset({
    CommOp.BARRIER, CommOp.BCAST, CommOp.REDUCE,
    CommOp.ALLREDUCE, CommOp.ALLGATHER, CommOp.ALLTOALL,
})

#: Lock name used by the modelled (thread-unsafe) allocator.
MALLOC_LOCK = "__malloc__"

#: ``(plain, run)``: ``run(unit, ctx)`` is a plain call or, if not ``plain``, a generator.
Lowered = Tuple[bool, Callable]


class RequestBook:
    """The non-blocking requests one unit has outstanding.

    ISEND/IRECV post an engine label ``"<req>#<n>"`` under their user
    label; a Wait takes the labels of the user labels it names (of all,
    if none), grouped by user label.  Taking nothing is a Wait on
    ``MPI_REQUEST_NULL``: it completes at once.
    """

    __slots__ = ("_outstanding", "_n")

    def __init__(self) -> None:
        self._outstanding: Dict[str, List[str]] = {}
        self._n = 0

    def label(self, user_label: str) -> str:
        """A fresh engine label no Wait takes (SENDRECV waits on its own)."""
        self._n += 1
        return f"{user_label}#{self._n - 1}"

    def post(self, user_label: str) -> str:
        label = self.label(user_label)
        self._outstanding.setdefault(user_label, []).append(label)
        return label

    def take(self, user_labels: Sequence[str]) -> Tuple[str, ...]:
        book = self._outstanding
        names = tuple(user_labels) or tuple(book)
        labels = tuple(lab for ul in names for lab in book.get(ul, ()))
        for ul in names:
            book.pop(ul, None)
        return labels


class _Unit:
    """One rank or spawned thread: its clock, stats by context id and requests."""

    __slots__ = ("rank", "thread", "clock", "stats", "book")

    def __init__(self, rank: int, thread: int, clock: float = 0.0) -> None:
        self.rank, self.thread, self.clock = rank, thread, clock
        self.stats: Dict[int, VertexStat] = {}
        self.book = RequestBook()


def _fn(value):
    """A model attribute as a callable of the context, resolved once."""
    return value if callable(value) else (lambda _ctx: value)


def _run(lowered: Lowered, u: _Unit, ctx: ExecContext) -> Generator:
    plain, run = lowered
    if plain:
        run(u, ctx)
    else:
        yield from run(u, ctx)
    yield FinishReq(t=u.clock)


class Lowering:
    """The lowered IR of one run: one closure per context path reached."""

    def __init__(self, program: Program, result: RunResult, tracer: Tracer) -> None:
        self.program, self.result, self.tracer = program, result, tracer
        self._cids: Dict[Path, int] = {}
        #: per context id: its path and the stats of each unit there
        self._contexts: List[Tuple[Path, dict]] = []

    def ranks(self, nthreads: int) -> List[Generator]:
        """One top-level generator per rank's main thread.  The lowering
        keeps no closure, so no cycle outlives the engine's units."""
        entry = self.program.entry_function
        lowered = self._body(entry.body, (f"f:{entry.name}",))
        nprocs, params = self.result.nprocs, self.result.params
        return [
            _run(lowered, _Unit(rank, 0), ExecContext(rank, nprocs, 0, nthreads, (), params))
            for rank in range(nprocs)
        ]

    def _cid(self, path: Path) -> int:
        cid = self._cids.get(path)
        if cid is None:
            cid = self._cids[path] = len(self._contexts)
            self._contexts.append((path, {}))
        return cid

    def _first(self, u: _Unit, cid: int) -> VertexStat:
        """``u``'s first record at ``cid``: its stat joins ``vertex_stats``."""
        path, per_unit = self._contexts[cid]
        if not per_unit:
            self.result.vertex_stats[path] = per_unit
        stat = u.stats[cid] = per_unit[(u.rank, u.thread)] = VertexStat()
        return stat

    def _body(self, body: Sequence[Node], path: Path) -> Lowered:
        parts = [self._node(node, path + (node.uid,)) for node in body]
        if all(plain for plain, _ in parts):
            runs = [run for _, run in parts]

            def run_plain(u, ctx):
                for run in runs:
                    run(u, ctx)

            return True, run_plain

        def run_gen(u, ctx):
            for plain, run in parts:
                if plain:
                    run(u, ctx)
                else:
                    yield from run(u, ctx)

        return False, run_gen

    def _node(self, node: Node, path: Path) -> Lowered:
        cid, first = self._cid(path), self._first
        if isinstance(node, Stmt):
            return True, self._work(cid, node.cost)
        if isinstance(node, Loop):
            trips = _fn(node.trips)
            plain, body = self._body(node.body, path)

            def loop(u, ctx):
                n = int(trips(ctx))
                (u.stats.get(cid) or first(u, cid)).count += n
                push = ctx.push_iteration
                for i in range(n):
                    body(u, push(i))

            def loop_gen(u, ctx):
                n = int(trips(ctx))
                (u.stats.get(cid) or first(u, cid)).count += n
                push = ctx.push_iteration
                for i in range(n):
                    yield from body(u, push(i))

            return plain, loop if plain else loop_gen
        if isinstance(node, Branch):
            arms: Dict[bool, Lowered] = {}

            def branch(u, ctx):
                taken = bool(node.condition(ctx))
                (u.stats.get(cid) or first(u, cid)).count += 1
                arm = arms.get(taken)
                if arm is None:
                    arm = arms[taken] = self._body(node.then_body if taken else node.else_body, path)
                if arm[0]:
                    arm[1](u, ctx)
                else:
                    yield from arm[1](u, ctx)

            return False, branch
        if isinstance(node, Call):
            return self._call(node, path, cid)
        if isinstance(node, CommCall):
            return False, self._comm(node, path, cid)
        if isinstance(node, ThreadCall):
            return False, self._thread(node, path, cid)
        raise TypeError(f"unknown IR node {type(node).__name__}")  # pragma: no cover

    def _work(self, cid: int, cost) -> Callable:
        """A statement or opaque call: ``cost`` on the clock and as exclusive time."""
        first, cost = self._first, _fn(cost)

        def work(u, ctx):
            c = float(cost(ctx))
            u.clock += c
            s = u.stats.get(cid) or first(u, cid)
            s.time += c
            s.count += 1

        return work

    # -- calls ---------------------------------------------------------------
    def _call(self, node: Call, path: Path, cid: int) -> Lowered:
        first, functions = self._first, self.program.functions
        external = self._work(cid, node.cost)
        indirect = node.target is CallTarget.INDIRECT
        if node.target is CallTarget.EXTERNAL or not (
            indirect or callable(node.callee) or node.callee in functions
        ):
            # Body absent from the model: treat as opaque external work.
            return True, external
        callee_of, record_indirect = _fn(node.callee), self.tracer.record_indirect
        targets: Dict[str, Tuple[int, Lowered]] = {}

        def call(u, ctx):
            callee = callee_of(ctx)
            if indirect:
                record_indirect(node.uid, callee)
            if callee not in functions:
                external(u, ctx)
                return
            (u.stats.get(cid) or first(u, cid)).count += 1
            target = targets.get(callee)
            if target is None:
                fpath = path + (f"f:{callee}",)
                target = targets[callee] = (
                    self._cid(fpath), self._body(functions[callee].body, fpath)
                )
            fcid, (plain, body) = target
            (u.stats.get(fcid) or first(u, fcid)).count += 1
            if plain:
                body(u, ctx)
            else:
                yield from body(u, ctx)

        return False, call

    # -- communication --------------------------------------------------------
    def _comm(self, node: CommCall, path: Path, cid: int) -> Callable:
        first, nprocs, op, tag = self._first, self.result.nprocs, node.op, node.tag
        nbytes_of, peer_of = _fn(node.nbytes), _fn(node.peer)
        source_of = None if node.source is None else _fn(node.source)
        blocking = op in (CommOp.SEND, CommOp.RECV)

        def comm(u, ctx):
            if u.thread != 0:
                raise RuntimeError(
                    f"{node.name} issued from thread {u.thread}; the simulator "
                    "models MPI_THREAD_FUNNELED (MPI from thread 0 only)"
                )
            t0 = u.clock
            nbytes = float(nbytes_of(ctx))
            if op in _COLLECTIVES:
                completion = yield CollReq(t=t0, path=path, op=op, nbytes=nbytes, root=node.root)
            elif op in (CommOp.SEND, CommOp.ISEND):
                completion = yield SendReq(
                    t=t0, path=path, dst=int(peer_of(ctx)), tag=tag, nbytes=nbytes,
                    blocking=blocking, label="" if blocking else u.book.post(node.req or "isend"),
                )
            elif op in (CommOp.RECV, CommOp.IRECV):
                completion = yield RecvReq(
                    t=t0, path=path, src=int(peer_of(ctx)), tag=tag, nbytes=nbytes,
                    blocking=blocking, label="" if blocking else u.book.post(node.req or "irecv"),
                )
            elif op in (CommOp.WAIT, CommOp.WAITALL):
                labels = u.book.take(node.requests)
                completion = (
                    (yield WaitReq(t=t0, path=path, labels=labels, op=op))
                    if labels else Completion(t0)
                )
            elif op is CommOp.SENDRECV:
                # Deadlock-free exchange: isend + irecv + waitall.  The receive
                # side defaults to the destination (symmetric pairwise swap) but
                # honors an explicit `source` for ring shifts.
                peer = int(peer_of(ctx))
                src = peer if source_of is None else int(source_of(ctx))
                ls, lr = u.book.label("srs"), u.book.label("srr")
                completion = yield SendReq(
                    t=u.clock, path=path, dst=peer, tag=tag, nbytes=nbytes,
                    blocking=False, label=ls,
                )
                u.clock = completion.t
                completion = yield RecvReq(
                    t=u.clock, path=path, src=src % nprocs, tag=tag, nbytes=nbytes,
                    blocking=False, label=lr,
                )
                u.clock = completion.t
                completion = yield WaitReq(
                    t=u.clock, path=path, labels=(ls, lr), op=CommOp.WAITALL
                )
            else:  # pragma: no cover - defensive
                raise ValueError(f"unhandled comm op {op}")
            u.clock = completion.t
            s = u.stats.get(cid) or first(u, cid)
            s.time += u.clock - t0
            s.wait += completion.wait
            s.nbytes += nbytes
            s.count += 1

        return comm

    # -- threads ----------------------------------------------------------------
    def _thread(self, node: ThreadCall, path: Path, cid: int) -> Callable:
        first, op = self._first, node.op
        count_of, hold_of, body = _fn(node.count), _fn(node.hold), []
        lock = node.lock or ("mutex" if op is ThreadOp.MUTEX_LOCK else MALLOC_LOCK)

        def thread(u, ctx):
            t0, count, wait = u.clock, 1, 0.0
            if op is ThreadOp.CREATE:
                count = int(count_of(ctx))
                nthreads = max(count, 1)
                if not body:
                    body.append(self._body(node.body, path))

                def factory(tid: int, t_start: float) -> Generator:
                    child_ctx = ctx.with_thread(tid, nthreads)
                    return _run(body[0], _Unit(u.rank, tid, t_start), child_ctx)

                u.clock = (yield SpawnReq(t=t0, path=path, factories=[factory] * count)).t
            elif op is ThreadOp.JOIN:
                completion = yield JoinReq(t=t0, path=path)
                u.clock, wait = completion.t, completion.wait
            elif op is ThreadOp.MUTEX_UNLOCK:
                # Lock release is folded into MUTEX_LOCK's hold; the engine
                # does not block on an explicit unlock.
                pass
            elif op in (ThreadOp.MUTEX_LOCK, ThreadOp.ALLOC, ThreadOp.REALLOC, ThreadOp.DEALLOC):
                hold = float(hold_of(ctx))
                completion = yield LockReq(t=t0, path=path, lock=lock, hold=hold, op=op)
                u.clock, wait = completion.t, completion.wait
            else:  # pragma: no cover - defensive
                raise ValueError(f"unhandled thread op {op}")
            s = u.stats.get(cid) or first(u, cid)
            s.time += u.clock - t0
            s.wait += wait
            s.count += count

        return thread
