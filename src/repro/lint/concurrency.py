"""Concurrency correctness rules: deadlock, orphans, lock order, races.

This module is the second analysis tier above the PF0## smell rules —
four rules that reason about *correctness* of the concurrent structure,
each with a dynamic-confirmation path against a recorded
:class:`~repro.runtime.records.RunTrace` of the same program:

=======  =====================  ===========================================
PF101    comm-deadlock          per-rank communication projections fed to
                                a miniature match simulator (the engine's
                                (src, dst, tag) FIFO + eager-protocol
                                semantics); a cycle in the resulting
                                wait-for graph is a guaranteed deadlock
PF102    orphaned-comm          the same simulation: a rank blocked on a
                                peer that already finished, or a
                                collective-sequence mismatch
PF103    lock-order-inversion   interprocedural lock-acquisition graph
                                from ThreadCall nesting; a cycle means two
                                units can acquire the same locks in
                                opposite orders
PF104    data-race              vector-clock happens-before checking over
                                recorded access/sync events: two accesses
                                to the same variable from different
                                threads, at least one write, no
                                happens-before edge (trace-only)
=======  =====================  ===========================================

When :attr:`LintContext.trace` is set, PF101–PF103 findings are marked
``confirmed`` (the trace exhibits the defect; severity raised to ERROR)
or ``unobserved`` (it does not; severity lowered to INFO so CI can keep
watching without failing).  The static tiers are deliberately
*projection-complete or silent*: whenever a rank's communication
projection hits an unprobeable value, an unresolved indirect call, or
the op budget, PF101/PF102 report nothing rather than guess.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.diagnostics import Severity
from repro.ir.context import ExecContext
from repro.ir.model import (
    Branch,
    Call,
    CallTarget,
    CommCall,
    CommOp,
    Function,
    Loop,
    Node,
    Program,
    Stmt,
    ThreadCall,
    ThreadOp,
)
from repro.lint.context import LintContext, Site
from repro.lint.registry import Finding, rule
from repro.runtime.interpreter import MALLOC_LOCK, RequestBook
from repro.runtime.machine import MachineModel

#: Per-rank projected-operation cap; past it the projection is truncated
#: and PF101/PF102 stay silent (soundness over coverage).
_MAX_OPS = 2048
#: Per-rank IR-node visit budget for the projection walk.
_NODE_BUDGET = 60_000
#: Call-inlining depth guard for the lock-order walk.
_MAX_LOCK_DEPTH = 32
#: Accesses per variable fed to the pairwise race scan.
_MAX_ACCESSES_PER_VAR = 200
#: Wait-for cycle hops spelled out in a PF101 message.
_MAX_CYCLE_HOPS = 4

_COLLECTIVES = frozenset({
    CommOp.BARRIER, CommOp.BCAST, CommOp.REDUCE,
    CommOp.ALLREDUCE, CommOp.ALLGATHER, CommOp.ALLTOALL,
})


def _loc(site: Optional[Site]) -> str:
    if site is None:
        return "<unknown>"
    f = site.function.source_file
    return f"{f}:{site.node.line}" if site.node.line else f


# ===========================================================================
# Communication projection (PF101 / PF102 static tier)
# ===========================================================================
@dataclass
class _AbsOp:
    """One projected communication operation of one rank."""

    kind: str  #: send | recv | isend | irecv | wait | coll
    site: Site
    peer: int = -1
    tag: int = 0
    nbytes: float = 0.0
    label: str = ""
    labels: Tuple[str, ...] = ()
    op: Optional[CommOp] = None
    # simulator state
    posted: bool = False
    matched: bool = False
    slot: int = -1


@dataclass
class _Projection:
    rank: int
    ops: List[_AbsOp] = field(default_factory=list)
    complete: bool = True
    truncated: bool = False

    @property
    def usable(self) -> bool:
        return self.complete and not self.truncated


class _Projector:
    """Walks the IR once per rank, mirroring the interpreter's lowering
    (SENDRECV -> isend+irecv+waitall, request labels kept in the
    interpreter's own :class:`RequestBook`) but keeping only what the
    engine's matcher sees."""

    def __init__(self, ctx: LintContext, has_comm: Dict[int, bool]):
        self.ctx = ctx
        self.program: Program = ctx.program
        self.has_comm = has_comm
        self.any_comm = any(has_comm.values())

    def project(self, rank: int) -> _Projection:
        proj = _Projection(rank=rank)
        cfg = self.ctx.config
        ectx = ExecContext(
            rank=rank, nprocs=cfg.nprocs, thread=0, nthreads=cfg.nthreads,
            params=dict(cfg.params),
        )
        entry = self.program.entry_function
        state = {"budget": _NODE_BUDGET, "book": RequestBook()}
        self._walk(entry.body, ectx, frozenset({entry.name}), proj, state)
        return proj

    # -- helpers -----------------------------------------------------------
    def _probe(self, value: Any, ectx: ExecContext) -> Any:
        return self.ctx.probe(value, ectx)

    def _subtree_has_comm(self, node: Node) -> bool:
        return self.has_comm.get(node.uid, False)

    # -- walk --------------------------------------------------------------
    def _walk(
        self,
        body: Sequence[Node],
        ectx: ExecContext,
        visiting: FrozenSet[str],
        proj: _Projection,
        state: Dict[str, Any],
    ) -> bool:
        """Returns False when the walk must stop (incomplete/truncated)."""
        for node in body:
            state["budget"] -= 1
            if state["budget"] <= 0:
                proj.complete = False
                return False
            if len(proj.ops) >= _MAX_OPS:
                proj.truncated = True
                return False
            if isinstance(node, Stmt):
                continue
            if isinstance(node, Loop):
                if not self._subtree_has_comm(node):
                    continue
                trips = self._probe(node.trips, ectx)
                if self.ctx.is_unknown(trips):
                    proj.complete = False
                    return False
                try:
                    trips = int(trips)
                except (TypeError, ValueError):
                    proj.complete = False
                    return False
                for i in range(trips):
                    if not self._walk(node.body, ectx.push_iteration(i),
                                      visiting, proj, state):
                        return False
            elif isinstance(node, Branch):
                if not self._subtree_has_comm(node):
                    continue
                cond = self._probe(node.condition, ectx)
                if self.ctx.is_unknown(cond):
                    proj.complete = False
                    return False
                taken = node.then_body if bool(cond) else node.else_body
                if not self._walk(taken, ectx, visiting, proj, state):
                    return False
            elif isinstance(node, ThreadCall):
                # MPI_THREAD_FUNNELED: spawned bodies may not communicate
                # (the interpreter raises if they try); a comm call inside
                # one means the model is out of contract — stay silent.
                if node.op is ThreadOp.CREATE and node.body:
                    if any(self._subtree_has_comm(c) for c in node.body):
                        proj.complete = False
                        return False
            elif isinstance(node, Call):
                if not self._walk_call(node, ectx, visiting, proj, state):
                    return False
            elif isinstance(node, CommCall):
                if not self._project_comm(node, ectx, proj, state):
                    return False
        return True

    def _walk_call(self, node: Call, ectx, visiting, proj, state) -> bool:
        if node.target is CallTarget.EXTERNAL:
            return True
        callee = self._probe(node.callee, ectx)
        if self.ctx.is_unknown(callee) or not isinstance(callee, str):
            # Unresolvable indirect call: only poisons the projection when
            # the program communicates at all (the call could hide comm).
            if self.any_comm:
                proj.complete = False
                return False
            return True
        if callee not in self.program.functions:
            return True
        func = self.program.function(callee)
        if callee in visiting:
            # Recursion re-entry: give up if the cycle can communicate.
            if any(self._subtree_has_comm(n) for n in func.body):
                proj.complete = False
                return False
            return True
        if not any(self._subtree_has_comm(n) for n in func.body):
            return True
        return self._walk(func.body, ectx, visiting | {callee}, proj, state)

    def _project_comm(self, node: CommCall, ectx, proj: _Projection,
                      state: Dict[str, Any]) -> bool:
        site = self.ctx.site_for_uid(node.uid)
        if site is None:  # pragma: no cover - defensive
            proj.complete = False
            return False
        nprocs = self.ctx.config.nprocs

        def peer_of(value) -> Optional[int]:
            v = self._probe(value, ectx)
            if self.ctx.is_unknown(v):
                return None
            try:
                v = int(v)
            except (TypeError, ValueError):
                return None
            return v if 0 <= v < nprocs else None

        op = node.op
        if op in _COLLECTIVES:
            proj.ops.append(_AbsOp(kind="coll", site=site, op=op))
            return True
        if op in (CommOp.SEND, CommOp.ISEND, CommOp.RECV, CommOp.IRECV):
            peer = peer_of(node.peer)
            if peer is None:
                proj.complete = False
                return False
            if op is CommOp.SEND:
                nbytes = self._probe(node.nbytes, ectx)
                if self.ctx.is_unknown(nbytes) or not isinstance(nbytes, (int, float)):
                    proj.complete = False
                    return False
                proj.ops.append(_AbsOp(kind="send", site=site, peer=peer,
                                       tag=node.tag, nbytes=float(nbytes)))
            elif op is CommOp.RECV:
                proj.ops.append(_AbsOp(kind="recv", site=site, peer=peer,
                                       tag=node.tag))
            elif op is CommOp.ISEND:
                label = state["book"].post(node.req or "isend")
                proj.ops.append(_AbsOp(kind="isend", site=site, peer=peer,
                                       tag=node.tag, label=label))
            else:  # IRECV
                label = state["book"].post(node.req or "irecv")
                proj.ops.append(_AbsOp(kind="irecv", site=site, peer=peer,
                                       tag=node.tag, label=label))
            return True
        if op in (CommOp.WAIT, CommOp.WAITALL):
            labels = state["book"].take(node.requests)
            proj.ops.append(_AbsOp(kind="wait", site=site, labels=labels))
            return True
        if op is CommOp.SENDRECV:
            dst = peer_of(node.peer)
            source = node.peer if node.source is None else node.source
            src = self._probe(source, ectx)
            if dst is None or self.ctx.is_unknown(src):
                proj.complete = False
                return False
            try:
                src = int(src) % nprocs
            except (TypeError, ValueError):
                proj.complete = False
                return False
            ls, lr = state["book"].label("srs"), state["book"].label("srr")
            proj.ops.append(_AbsOp(kind="isend", site=site, peer=dst,
                                   tag=node.tag, label=ls))
            proj.ops.append(_AbsOp(kind="irecv", site=site, peer=src,
                                   tag=node.tag, label=lr))
            proj.ops.append(_AbsOp(kind="wait", site=site, labels=(ls, lr)))
            return True
        proj.complete = False  # pragma: no cover - future comm ops
        return False


# ===========================================================================
# Match simulator + wait-for graph
# ===========================================================================
@dataclass
class _Mismatch:
    rank: int
    site: Site
    ordinal: int
    op: CommOp
    other_rank: int
    other_op: CommOp
    other_site: Site


@dataclass
class _CommAnalysis:
    usable: bool
    stuck: Dict[int, _AbsOp] = field(default_factory=dict)
    finished: Set[int] = field(default_factory=set)
    wait_for: Dict[int, List[int]] = field(default_factory=dict)
    descriptions: Dict[int, str] = field(default_factory=dict)
    mismatches: List[_Mismatch] = field(default_factory=list)
    cycles: List[List[int]] = field(default_factory=list)


def _compute_has_comm(program: Program) -> Dict[int, bool]:
    """uid -> does this node's subtree (through USER calls) reach a CommCall.

    INDIRECT calls count as potentially-communicating whenever the
    program communicates anywhere; the fixpoint below treats any call
    whose target cannot be pinned as reaching comm conservatively.
    """
    has: Dict[int, bool] = {}
    func_has: Dict[str, bool] = {}

    def node_comm(node: Node, visiting: FrozenSet[str]) -> bool:
        if node.uid in has and node.uid >= 0:
            return has[node.uid]
        if isinstance(node, CommCall):
            out = True
        elif isinstance(node, Call):
            if node.target is CallTarget.EXTERNAL:
                out = False
            elif isinstance(node.callee, str) and node.callee in program.functions:
                out = fn_comm(node.callee, visiting)
            else:
                # Dyn or unknown callee: anything could be behind it.
                out = True
        else:
            # No short-circuit: every child must land in the memo, since
            # the projector queries arbitrary subtrees.
            out = any([node_comm(c, visiting) for c in node.children()])
        if node.uid >= 0:
            has[node.uid] = out
        return out

    def fn_comm(name: str, visiting: FrozenSet[str]) -> bool:
        if name in func_has:
            return func_has[name]
        if name in visiting:
            return False  # cycle edge; other paths decide
        out = any([
            node_comm(n, visiting | {name}) for n in program.function(name).body
        ])
        func_has[name] = out
        return out

    for fname in sorted(program.functions):
        fn_comm(fname, frozenset())
    return has


def _simulate(projs: List[_Projection], nprocs: int, eager: float) -> _CommAnalysis:
    ana = _CommAnalysis(usable=True)
    sends: Dict[Tuple[int, int, int], deque] = {}
    recvs: Dict[Tuple[int, int, int], deque] = {}
    colls: Dict[int, Dict[str, Any]] = {}
    coll_ix = [0] * nprocs
    pc = [0] * nprocs
    finished = [False] * nprocs
    labelmap: List[Dict[str, _AbsOp]] = [dict() for _ in range(nprocs)]
    mismatched = [False] * nprocs

    def post_send(r: int, op: _AbsOp) -> None:
        key = (r, op.peer, op.tag)
        q = recvs.get(key)
        if q:
            q.popleft().matched = True
            op.matched = True
        else:
            sends.setdefault(key, deque()).append(op)

    def post_recv(r: int, op: _AbsOp) -> None:
        key = (op.peer, r, op.tag)
        q = sends.get(key)
        if q:
            q.popleft().matched = True
            op.matched = True
        else:
            recvs.setdefault(key, deque()).append(op)

    def step(r: int) -> bool:
        if finished[r] or mismatched[r]:
            return False
        ops = projs[r].ops
        if pc[r] >= len(ops):
            finished[r] = True
            ana.finished.add(r)
            return False
        op = ops[pc[r]]
        if op.kind == "isend":
            post_send(r, op)
            labelmap[r][op.label] = op
            pc[r] += 1
            return True
        if op.kind == "irecv":
            post_recv(r, op)
            labelmap[r][op.label] = op
            pc[r] += 1
            return True
        if op.kind == "send":
            if not op.posted:
                post_send(r, op)
                op.posted = True
            if op.matched or op.nbytes <= eager:
                pc[r] += 1
                return True
            return False
        if op.kind == "recv":
            if not op.posted:
                post_recv(r, op)
                op.posted = True
            if op.matched:
                pc[r] += 1
                return True
            return False
        if op.kind == "wait":
            refs = [labelmap[r][l] for l in op.labels if l in labelmap[r]]
            if all(x.matched for x in refs):
                pc[r] += 1
                return True
            return False
        # collective
        if not op.posted:
            k = coll_ix[r]
            slot = colls.setdefault(
                k, {"op": op.op, "arrived": set(), "ops": {}}
            )
            if slot["op"] is not op.op:
                s = min(slot["arrived"]) if slot["arrived"] else -1
                other = slot["ops"].get(s)
                ana.mismatches.append(_Mismatch(
                    rank=r, site=op.site, ordinal=k, op=op.op,
                    other_rank=s, other_op=slot["op"],
                    other_site=other.site if other else op.site,
                ))
                mismatched[r] = True
                return False
            slot["arrived"].add(r)
            slot["ops"][r] = op
            op.posted = True
            op.slot = k
            coll_ix[r] += 1
        if len(colls[op.slot]["arrived"]) == nprocs:
            pc[r] += 1
            return True
        return False

    progress = True
    while progress:
        progress = False
        for r in range(nprocs):
            while step(r):
                progress = True

    for r in range(nprocs):
        if finished[r] or mismatched[r]:
            continue
        op = projs[r].ops[pc[r]]
        ana.stuck[r] = op
        if op.kind == "send":
            ana.wait_for[r] = [op.peer]
            ana.descriptions[r] = f"blocking {CommOp.SEND.value} to rank {op.peer}"
        elif op.kind == "recv":
            ana.wait_for[r] = [op.peer]
            ana.descriptions[r] = f"blocking {CommOp.RECV.value} from rank {op.peer}"
        elif op.kind == "wait":
            peers = sorted({
                labelmap[r][l].peer for l in op.labels
                if l in labelmap[r] and not labelmap[r][l].matched
            })
            ana.wait_for[r] = peers
            ana.descriptions[r] = (
                f"{CommOp.WAITALL.value} on unmatched request(s) to/from "
                f"rank(s) {', '.join(map(str, peers))}"
            )
        else:  # coll
            arrived = colls[op.slot]["arrived"]
            missing = sorted(set(range(nprocs)) - arrived)
            ana.wait_for[r] = missing
            ana.descriptions[r] = (
                f"{op.op.value} waiting for rank(s) "
                f"{', '.join(map(str, missing[:6]))}"
            )

    ana.cycles = _cyclic_sccs(ana.wait_for, set(ana.stuck))
    return ana


def _cyclic_sccs(edges: Dict[int, List[int]], nodes: Set[int]) -> List[List[int]]:
    """Tarjan SCCs restricted to ``nodes``; only cyclic ones returned."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    counter = [0]
    out: List[List[int]] = []

    def strongconnect(v: int) -> None:
        # Iterative Tarjan (defensive against deep chains).
        work = [(v, iter([u for u in edges.get(v, ()) if u in nodes]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter([w for w in edges.get(u, ()) if w in nodes])))
                    advanced = True
                    break
                if u in on_stack:
                    low[node] = min(low[node], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1 or node in edges.get(node, ()):
                    out.append(sorted(scc))

    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)
    return sorted(out)


def _comm_analysis(ctx: LintContext) -> Optional[_CommAnalysis]:
    """Project + simulate once per lint run; ``None`` = not usable."""
    cached = getattr(ctx, "_cc_comm", False)
    if cached is not False:
        return cached
    has_comm = _compute_has_comm(ctx.program)
    ana: Optional[_CommAnalysis]
    if not any(has_comm.values()):
        ana = _CommAnalysis(usable=True)  # no comm at all: trivially clean
    else:
        projector = _Projector(ctx, has_comm)
        projs: List[_Projection] = []
        usable = True
        for r in range(ctx.config.nprocs):
            proj = projector.project(r)
            projs.append(proj)
            if not proj.usable:
                usable = False
                break
        if not usable:
            ana = None
        else:
            ana = _simulate(projs, ctx.config.nprocs,
                            MachineModel().eager_threshold)
    setattr(ctx, "_cc_comm", ana)
    return ana


# ===========================================================================
# PF101 — communication deadlock cycle
# ===========================================================================
def _trace_deadlocked(ctx: LintContext) -> bool:
    return ctx.trace is not None and bool(getattr(ctx.trace, "deadlocked", False))


def _confirm(ctx: LintContext, finding: Finding) -> Finding:
    """Apply the dynamic-confirmation tier to a deadlock-class finding."""
    if ctx.trace is None:
        return finding
    if _trace_deadlocked(ctx):
        return Finding(
            message=finding.message, file=finding.file, line=finding.line,
            function=finding.function, node=finding.node,
            severity=Severity.ERROR, status="confirmed",
        )
    return Finding(
        message=finding.message, file=finding.file, line=finding.line,
        function=finding.function, node=finding.node,
        severity=Severity.INFO, status="unobserved",
    )


def _trace_only_deadlock_findings(ctx: LintContext) -> List[Finding]:
    """PF101 evidence straight from a deadlocked trace (no static cycle)."""
    trace = ctx.trace
    blocked = (trace.deadlock or {}).get("blocked", [])
    if not blocked:
        return []
    parts = []
    anchor: Optional[Site] = None
    for b in blocked[:4]:
        path = tuple(b.get("path") or ())
        uid = next((p for p in reversed(path) if isinstance(p, int)), None)
        site = ctx.site_for_uid(uid) if uid is not None else None
        if anchor is None and site is not None:
            anchor = site
        where = _loc(site) if site is not None else (
            ctx.static.debug_of(path) or "<unknown>"
        )
        parts.append(
            f"rank {b['rank']} blocked on {b.get('blocker', '?')} ({where})"
        )
    more = len(blocked) - len(parts)
    tail = f"; and {more} more rank(s)" if more > 0 else ""
    msg = "deadlock observed in recorded trace: " + "; ".join(parts) + tail
    if anchor is not None:
        return [anchor.finding(msg, severity=Severity.ERROR)]
    return [Finding(message=msg, severity=Severity.ERROR)]


@rule(
    "PF101",
    name="comm-deadlock",
    severity=Severity.ERROR,
    description=(
        "Per-rank communication projections, replayed through the runtime "
        "engine's (src, dst, tag) FIFO + eager-protocol matching, leave a "
        "cycle in the wait-for graph: every rank in the cycle blocks on "
        "the next and the program can never progress."
    ),
)
def check_comm_deadlock(ctx: LintContext) -> Iterator[Finding]:
    ana = _comm_analysis(ctx)
    findings: List[Finding] = []
    if ana is not None:
        for scc in ana.cycles:
            hops = []
            for r in scc[:_MAX_CYCLE_HOPS]:
                hops.append(
                    f"rank {r} blocked in {ana.descriptions[r]} "
                    f"at {_loc(ana.stuck[r].site)}"
                )
            tail = (
                f" -> ... ({len(scc)} ranks in cycle)"
                if len(scc) > _MAX_CYCLE_HOPS
                else f" -> back to rank {scc[0]}"
            )
            msg = (
                "communication deadlock cycle across ranks "
                f"{{{', '.join(map(str, scc[:8]))}{', ...' if len(scc) > 8 else ''}}}: "
                + " -> ".join(hops) + tail
            )
            findings.append(ana.stuck[scc[0]].site.finding(msg))
    if ctx.trace is None:
        for f in findings:
            yield f
        return
    if findings:
        for f in findings:
            yield _confirm(ctx, f)
    elif _trace_deadlocked(ctx):
        # The run deadlocked but the static tier saw nothing (incomplete
        # projection, data-dependent schedule): still surface it.
        for f in _trace_only_deadlock_findings(ctx):
            yield Finding(
                message=f.message, file=f.file, line=f.line,
                function=f.function, node=f.node,
                severity=Severity.ERROR, status="confirmed",
            )


# ===========================================================================
# PF102 — orphaned communication / collective mismatch
# ===========================================================================
@rule(
    "PF102",
    name="orphaned-comm",
    severity=Severity.ERROR,
    description=(
        "The communication match simulation leaves a rank blocked on a "
        "peer that already finished (an orphaned send/recv/wait), or two "
        "ranks disagree on the collective sequence — either way the "
        "blocked rank can never complete."
    ),
)
def check_orphaned_comm(ctx: LintContext) -> Iterator[Finding]:
    ana = _comm_analysis(ctx)
    findings: List[Finding] = []
    if ana is not None:
        for mm in ana.mismatches:
            other = (
                f"rank {mm.other_rank} called {mm.other_op.value} "
                f"({_loc(mm.other_site)})"
                if mm.other_rank >= 0
                else f"other ranks called {mm.other_op.value}"
            )
            findings.append(mm.site.finding(
                f"collective sequence mismatch at collective #{mm.ordinal}: "
                f"rank {mm.rank} calls {mm.op.value} where {other}"
            ))
        in_cycle = {r for scc in ana.cycles for r in scc}
        seen: Set[Tuple[int, str]] = set()
        for r, op in sorted(ana.stuck.items()):
            if r in in_cycle:
                continue
            peers = ana.wait_for.get(r, [])
            fins = sorted(p for p in peers if p in ana.finished)
            if not peers or fins != sorted(peers):
                # Blocked into the cycle or on another stuck rank: the
                # PF101 cycle finding is the root cause.
                continue
            key = (op.site.node.uid, ",".join(map(str, fins)))
            if key in seen:
                continue
            seen.add(key)
            findings.append(op.site.finding(
                f"orphaned communication: rank {r} blocked in "
                f"{ana.descriptions[r]} but rank(s) "
                f"{', '.join(map(str, fins))} already finished — the "
                "operation can never complete"
            ))
    for f in findings:
        yield _confirm(ctx, f)


# ===========================================================================
# PF103 — lock-order inversion
# ===========================================================================
_LockEdge = Tuple[str, str]


@dataclass
class _LockGraph:
    #: (held, acquired) -> (site where `held` was taken, site acquiring)
    edges: Dict[_LockEdge, Tuple[Optional[Site], Optional[Site]]] = field(
        default_factory=dict
    )

    def add(self, held: str, hsite: Optional[Site],
            lock: str, site: Optional[Site]) -> None:
        self.edges.setdefault((held, lock), (hsite, site))


def _lock_name(node: ThreadCall) -> str:
    if node.op is ThreadOp.MUTEX_LOCK or node.op is ThreadOp.MUTEX_UNLOCK:
        return node.lock or "mutex"
    return node.lock or MALLOC_LOCK


def _walk_locks(
    ctx: LintContext,
    body: Sequence[Node],
    func: Function,
    held: List[Tuple[str, Optional[Site]]],
    visiting: FrozenSet[str],
    graph: _LockGraph,
    depth: int,
) -> None:
    if depth > _MAX_LOCK_DEPTH:
        return
    for node in body:
        if isinstance(node, ThreadCall):
            site = ctx.site_for_uid(node.uid)
            if node.op is ThreadOp.MUTEX_LOCK:
                lock = _lock_name(node)
                for h, hs in held:
                    graph.add(h, hs, lock, site)
                held.append((lock, site))
            elif node.op is ThreadOp.MUTEX_UNLOCK:
                lock = _lock_name(node)
                for i in range(len(held) - 1, -1, -1):
                    if held[i][0] == lock:
                        del held[i]
                        break
            elif node.op in (ThreadOp.ALLOC, ThreadOp.REALLOC, ThreadOp.DEALLOC):
                lock = _lock_name(node)
                for h, hs in held:
                    graph.add(h, hs, lock, site)
            elif node.op is ThreadOp.CREATE and node.body:
                # Spawned threads start with no locks held.
                _walk_locks(ctx, node.body, func, [], visiting, graph, depth + 1)
        elif isinstance(node, Loop):
            _walk_locks(ctx, node.body, func, list(held), visiting, graph, depth + 1)
        elif isinstance(node, Branch):
            _walk_locks(ctx, node.then_body, func, list(held), visiting, graph, depth + 1)
            _walk_locks(ctx, node.else_body, func, list(held), visiting, graph, depth + 1)
        elif isinstance(node, Call):
            callee = node.callee if isinstance(node.callee, str) else None
            if (
                node.target is CallTarget.USER
                and callee
                and callee in ctx.program.functions
                and callee not in visiting
            ):
                _walk_locks(
                    ctx, ctx.program.function(callee).body,
                    ctx.program.function(callee),
                    held, visiting | {callee}, graph, depth + 1,
                )


def _lock_cycles(ctx: LintContext) -> List[Tuple[List[_LockEdge], _LockGraph]]:
    graph = _LockGraph()
    entry = ctx.program.entry_function
    _walk_locks(ctx, entry.body, entry, [], frozenset({entry.name}), graph, 0)
    adj: Dict[str, List[str]] = {}
    nodes: Set[str] = set()
    node_ids: Dict[str, int] = {}
    for (a, b) in graph.edges:
        nodes.update((a, b))
        adj.setdefault(a, []).append(b)
    # Reuse the integer SCC helper via an index mapping.
    names = sorted(nodes)
    node_ids = {n: i for i, n in enumerate(names)}
    int_edges = {
        node_ids[a]: sorted(node_ids[b] for b in bs) for a, bs in adj.items()
    }
    sccs = _cyclic_sccs(int_edges, set(node_ids.values()))
    out: List[Tuple[List[_LockEdge], _LockGraph]] = []
    for scc in sccs:
        members = {names[i] for i in scc}
        cycle_edges = sorted(
            (a, b) for (a, b) in graph.edges
            if a in members and b in members
        )
        out.append((cycle_edges, graph))
    return out


def _observed_lock_edges(trace: Any) -> Set[_LockEdge]:
    """Lock-order edges actually exhibited by a recorded trace."""
    observed: Set[_LockEdge] = set()
    by_unit: Dict[Tuple[int, int], List[Any]] = {}
    for ev in trace.sync_events:
        if ev.kind in ("acquire", "release"):
            by_unit.setdefault((ev.rank, ev.thread), []).append(ev)
    for events in by_unit.values():
        events.sort(key=lambda e: e.seq)
        held: List[str] = []
        for ev in events:
            if ev.kind == "acquire":
                for h in held:
                    observed.add((h, ev.lock))
                held.append(ev.lock)
            else:
                for i in range(len(held) - 1, -1, -1):
                    if held[i] == ev.lock:
                        del held[i]
                        break
    return observed


@rule(
    "PF103",
    name="lock-order-inversion",
    severity=Severity.WARNING,
    description=(
        "The interprocedural lock-acquisition graph (every lock acquired "
        "while another is held, across function and thread boundaries) "
        "contains a cycle: two units can take the same locks in opposite "
        "orders and deadlock under the right interleaving."
    ),
)
def check_lock_order(ctx: LintContext) -> Iterator[Finding]:
    observed = (
        _observed_lock_edges(ctx.trace) if ctx.trace is not None else None
    )
    for cycle_edges, graph in _lock_cycles(ctx):
        if not cycle_edges:
            continue
        parts = []
        anchor: Optional[Site] = None
        for (a, b) in cycle_edges[:4]:
            hsite, asite = graph.edges[(a, b)]
            if anchor is None:
                anchor = asite
            if a == b:
                parts.append(
                    f"{_loc(asite)} re-acquires {a!r} while already held "
                    f"(from {_loc(hsite)})"
                )
            else:
                parts.append(
                    f"{_loc(asite)} acquires {b!r} while holding {a!r} "
                    f"(taken at {_loc(hsite)})"
                )
        locks = sorted({l for e in cycle_edges for l in e})
        msg = (
            f"lock-order inversion among {', '.join(repr(l) for l in locks)}: "
            + "; ".join(parts)
        )
        severity: Optional[Severity] = None
        status = ""
        if observed is not None:
            if all(e in observed for e in cycle_edges):
                severity, status = Severity.ERROR, "confirmed"
            else:
                severity, status = Severity.INFO, "unobserved"
        if anchor is not None:
            base = anchor.finding(msg, severity=severity)
            yield Finding(
                message=base.message, file=base.file, line=base.line,
                function=base.function, node=base.node,
                severity=severity, status=status,
            )
        else:
            yield Finding(message=msg, severity=severity, status=status)


# ===========================================================================
# PF104 — happens-before data races (trace-only)
# ===========================================================================
def _vector_clocks(
    sync: List[Any], access: List[Any]
) -> Dict[int, List[int]]:
    """seq -> vector-clock snapshot for every event of one rank.

    Happens-before edges: per-thread program order (ascending ``seq``),
    spawn -> child's first event, child's last event -> join, and
    release -> next acquire per lock in the engine's grant order.
    """
    events = sorted(sync + access, key=lambda e: e.seq)
    if not events:
        return {}
    threads = sorted({e.thread for e in events})
    tix = {t: i for i, t in enumerate(threads)}
    by_thread: Dict[int, List[Any]] = {t: [] for t in threads}
    for e in events:
        by_thread[e.thread].append(e)

    preds: Dict[int, List[int]] = {e.seq: [] for e in events}
    # program order
    for stream in by_thread.values():
        for a, b in zip(stream, stream[1:]):
            preds[b.seq].append(a.seq)
    # spawn / join
    for e in sync:
        if e.kind == "spawn" and e.child in by_thread and by_thread[e.child]:
            preds[by_thread[e.child][0].seq].append(e.seq)
        elif e.kind == "join" and e.child in by_thread and by_thread[e.child]:
            preds[e.seq].append(by_thread[e.child][-1].seq)
    # lock chains: pair acquire/release structurally per thread, then
    # chain critical sections in logical grant order (engine grants are
    # serialized per lock, so sorting acquires by (t, seq) is exact).
    release_of: Dict[int, Any] = {}
    for stream in by_thread.values():
        stacks: Dict[str, List[Any]] = {}
        for e in stream:
            if getattr(e, "kind", "") == "acquire":
                stacks.setdefault(e.lock, []).append(e)
            elif getattr(e, "kind", "") == "release":
                st = stacks.get(e.lock)
                if st:
                    release_of[st.pop().seq] = e
    acquires_by_lock: Dict[str, List[Any]] = {}
    for e in sync:
        if e.kind == "acquire":
            acquires_by_lock.setdefault(e.lock, []).append(e)
    for acqs in acquires_by_lock.values():
        acqs.sort(key=lambda e: (e.t, e.seq))
        for a, b in zip(acqs, acqs[1:]):
            rel = release_of.get(a.seq, a)
            preds[b.seq].append(rel.seq)

    # Kahn topological processing with a defensive stall-break.
    ev_by_seq = {e.seq: e for e in events}
    indeg = {s: len(ps) for s, ps in preds.items()}
    succs: Dict[int, List[int]] = {s: [] for s in preds}
    for s, ps in preds.items():
        for p in ps:
            succs[p].append(s)
    ready = sorted(s for s, d in indeg.items() if d == 0)
    vc: Dict[int, List[int]] = {}
    done: Set[int] = set()
    pending = set(preds)
    while pending:
        if not ready:  # pragma: no cover - HB graphs are acyclic
            ready = [min(pending, key=lambda s: (ev_by_seq[s].t, s))]
        s = ready.pop(0)
        if s in done:
            continue
        done.add(s)
        pending.discard(s)
        clock = [0] * len(threads)
        for p in preds[s]:
            pc = vc.get(p)
            if pc:
                for i, v in enumerate(pc):
                    if v > clock[i]:
                        clock[i] = v
        clock[tix[ev_by_seq[s].thread]] += 1
        vc[s] = clock
        for n in succs.get(s, ()):
            indeg[n] -= 1
            if indeg[n] <= 0 and n not in done:
                ready.append(n)
    return {s: c for s, c in vc.items()}


@dataclass
class _Race:
    rank: int
    var: str
    a: Any
    b: Any


def find_races(trace: Any) -> List[_Race]:
    """All happens-before races in a recorded trace, one per variable."""
    races: List[_Race] = []
    flagged: Set[str] = set()
    ranks = sorted({e.rank for e in trace.access_events})
    for rank in ranks:
        sync = [e for e in trace.sync_events if e.rank == rank]
        access = [e for e in trace.access_events if e.rank == rank]
        if len({e.thread for e in access}) < 2:
            continue
        vc = _vector_clocks(sync, access)
        threads = sorted({e.thread for e in sync + access})
        tix = {t: i for i, t in enumerate(threads)}

        def hb(a: Any, b: Any) -> bool:
            ca, cb = vc.get(a.seq), vc.get(b.seq)
            if ca is None or cb is None:
                return False
            return ca[tix[a.thread]] <= cb[tix[a.thread]]

        by_var: Dict[str, List[Any]] = {}
        for e in access:
            by_var.setdefault(e.var, []).append(e)
        for var in sorted(by_var):
            if var in flagged:
                continue
            evs = sorted(by_var[var], key=lambda e: e.seq)[:_MAX_ACCESSES_PER_VAR]
            hit = None
            for i, a in enumerate(evs):
                for b in evs[i + 1:]:
                    if a.thread == b.thread:
                        continue
                    if a.mode != "w" and b.mode != "w":
                        continue
                    if hb(a, b) or hb(b, a):
                        continue
                    hit = (a, b)
                    break
                if hit:
                    break
            if hit:
                flagged.add(var)
                races.append(_Race(rank=rank, var=var, a=hit[0], b=hit[1]))
    return races


@rule(
    "PF104",
    name="data-race",
    severity=Severity.ERROR,
    description=(
        "Vector-clock happens-before checking over a recorded trace found "
        "two accesses to the same shared variable from different threads, "
        "at least one a write, with no ordering through program order, "
        "spawn/join, or lock release->acquire chains."
    ),
)
def check_data_race(ctx: LintContext) -> Iterator[Finding]:
    if ctx.trace is None:
        return
    for race in find_races(ctx.trace):
        a, b = race.a, race.b
        site = ctx.site_for_uid(a.uid) or ctx.site_for_uid(b.uid)
        bsite = ctx.site_for_uid(b.uid)
        msg = (
            f"data race on shared variable {race.var!r}: rank {race.rank} "
            f"thread {a.thread} {'write' if a.mode == 'w' else 'read'} and "
            f"thread {b.thread} {'write' if b.mode == 'w' else 'read'} "
            f"({_loc(bsite)}) have no happens-before ordering"
        )
        if site is not None:
            base = site.finding(msg)
            yield Finding(
                message=base.message, file=base.file, line=base.line,
                function=base.function, node=base.node, status="confirmed",
            )
        else:
            yield Finding(message=msg, status="confirmed")
