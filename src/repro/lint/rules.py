"""The built-in rule set: the paper's pathology classes, statically.

Each case study's injected bug has a static signature in the IR, and
each rule below detects one of them *before any simulated run*:

=======  ======================  ==========================================
PF001    blocking-p2p-in-loop    blocking MPI_Send/MPI_Recv inside a hot
                                 loop serializes neighbor exchange
                                 (LAMMPS §5.4, Listing 9)
PF002    unmatched-p2p           blocking send/recv with no statically
                                 matchable counterpart — potential
                                 deadlock under the engine's
                                 (src, dst, tag) FIFO matching
PF003    divergent-collective    collective under a rank-divergent
                                 branch: ranks disagree on the
                                 collective sequence ⇒ hang
PF004    serialized-allocator    allocator calls / held mutexes across
                                 comm-or-alloc inside threaded loops
                                 (Vite §5.5's root cause)
PF005    indirect-in-loop        statically unresolvable call in a hot
                                 loop: a performance-data embedding
                                 blind spot (§3.2)
PF006    rank-divergent-cost     probed workload differs across
                                 ranks/threads beyond jitter: static
                                 load imbalance (ZeusMP §5.3)
PF007    pag-structure           extracted top-down PAG violates the
                                 structural invariants of
                                 :mod:`repro.pag.validate`
=======  ======================  ==========================================

Rules only *read* the program; probing model callables is best-effort
and a failed probe never produces a diagnostic.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from repro.diagnostics import Severity
from repro.ir.model import (
    Branch,
    Call,
    CallTarget,
    CommCall,
    CommOp,
    Stmt,
    ThreadCall,
    ThreadOp,
)
from repro.lint.context import LintContext
from repro.lint.registry import Finding, rule

_BLOCKING_P2P = (CommOp.SEND, CommOp.RECV)
_ALLOC_OPS = (ThreadOp.ALLOC, ThreadOp.REALLOC, ThreadOp.DEALLOC)

#: (src_rank, dst_rank, tag) — the engine's match key.
_Direction = Tuple[int, int, int]


# ---------------------------------------------------------------------------
# PF001 — blocking point-to-point communication in a hot loop
# ---------------------------------------------------------------------------
@rule(
    "PF001",
    name="blocking-p2p-in-loop",
    severity=Severity.WARNING,
    description=(
        "Blocking MPI_Send/MPI_Recv inside a loop (or in a function called "
        "from a loop) serializes the exchange and propagates neighbour "
        "delays; prefer Isend/Irecv + Wait or MPI_Sendrecv."
    ),
)
def check_blocking_p2p_in_loop(ctx: LintContext) -> Iterator[Finding]:
    for site in ctx.sites_of(CommCall):
        node = site.node
        if node.op not in _BLOCKING_P2P or not ctx.in_hot_path(site):
            continue
        where = (
            f"loop {site.innermost_loop.name or '<anonymous>'!r}"
            if site.in_loop
            else "a function reached from a loop"
        )
        yield site.finding(
            f"blocking {node.op.value} inside {where}: the exchange "
            "serializes and propagates neighbour delays each iteration"
        )


# ---------------------------------------------------------------------------
# PF002 — blocking send/recv with no statically matchable counterpart
# ---------------------------------------------------------------------------
def _probe_peer(ctx: LintContext, value, ectx) -> int:
    peer = ctx.probe(value, ectx)
    if ctx.is_unknown(peer):
        return -1
    try:
        return int(peer)
    except (TypeError, ValueError):
        return -1


def _message_directions(ctx: LintContext) -> Tuple[Set[_Direction], Set[_Direction]]:
    """All (src, dst, tag) directions any send/recv site can produce.

    Branch reachability is deliberately ignored on this side: a missed
    matching site would be a false deadlock report, so the match sets
    are kept maximal.
    """
    sends: Set[_Direction] = set()
    recvs: Set[_Direction] = set()
    nprocs = ctx.config.nprocs
    contexts = ctx.rank_contexts()
    for site in ctx.sites_of(CommCall):
        node = site.node
        for ectx in contexts:
            r = ectx.rank
            if node.op in (CommOp.SEND, CommOp.ISEND, CommOp.SENDRECV):
                dst = _probe_peer(ctx, node.peer, ectx)
                if 0 <= dst < nprocs:
                    sends.add((r, dst, node.tag))
            if node.op in (CommOp.RECV, CommOp.IRECV):
                src = _probe_peer(ctx, node.peer, ectx)
                if 0 <= src < nprocs:
                    recvs.add((src, r, node.tag))
            if node.op is CommOp.SENDRECV:
                source = node.source if node.source is not None else node.peer
                src = _probe_peer(ctx, source, ectx)
                if 0 <= src < nprocs:
                    recvs.add((src, r, node.tag))
    return sends, recvs


@rule(
    "PF002",
    name="unmatched-p2p",
    severity=Severity.ERROR,
    description=(
        "A blocking point-to-point call none of whose probed "
        "(src, dst, tag) directions is produced by any matching site — "
        "under the runtime engine's FIFO matching it can never complete."
    ),
)
def check_unmatched_p2p(ctx: LintContext) -> Iterator[Finding]:
    sends, recvs = _message_directions(ctx)
    contexts = {e.rank: e for e in ctx.rank_contexts()}
    for site in ctx.sites_of(CommCall):
        node = site.node
        needs: List[Tuple[str, _Direction]] = []
        for r in ctx.reachable_ranks(site):
            ectx = contexts[r]
            if node.op in (CommOp.RECV, CommOp.SENDRECV):
                source = (
                    node.source
                    if node.op is CommOp.SENDRECV and node.source is not None
                    else node.peer
                )
                src = _probe_peer(ctx, source, ectx)
                if 0 <= src < ctx.config.nprocs:
                    needs.append(("send", (src, r, node.tag)))
            if node.op in (CommOp.SEND, CommOp.SENDRECV):
                dst = _probe_peer(ctx, node.peer, ectx)
                if 0 <= dst < ctx.config.nprocs:
                    needs.append(("recv", (r, dst, node.tag)))
        for kind, table in (("send", sends), ("recv", recvs)):
            wanted = [d for k, d in needs if k == kind]
            if wanted and not any(d in table for d in wanted):
                src, dst, tag = wanted[0]
                yield site.finding(
                    f"{node.op.value} has no statically matchable {kind} "
                    f"for any probed rank (e.g. rank {src} -> rank {dst}, "
                    f"tag {tag}): potential deadlock"
                )


# ---------------------------------------------------------------------------
# PF003 — collective under a rank-divergent branch
# ---------------------------------------------------------------------------
def _is_rank_divergent(ctx: LintContext, branch: Branch) -> bool:
    for it in ctx.config.sample_iterations:
        seen = set()
        for ectx in ctx.rank_contexts(iteration=it):
            val = ctx.probe(branch.condition, ectx)
            if not ctx.is_unknown(val):
                seen.add(bool(val))
        if len(seen) > 1:
            return True
    return False


@rule(
    "PF003",
    name="divergent-collective",
    severity=Severity.ERROR,
    description=(
        "A branch whose condition differs across ranks guards different "
        "collective sequences on its two paths; MPI requires identical "
        "per-rank collective sequences, so the mismatch hangs."
    ),
)
def check_divergent_collective(ctx: LintContext) -> Iterator[Finding]:
    for site in ctx.sites_of(Branch):
        branch = site.node
        sig_then = ctx.collective_signature(branch.then_body)
        sig_else = ctx.collective_signature(branch.else_body)
        if sig_then == sig_else:
            continue
        if not _is_rank_divergent(ctx, branch):
            continue
        described = ", ".join(sig_then or ("<none>",))
        other = ", ".join(sig_else or ("<none>",))
        yield site.finding(
            f"rank-divergent branch guards mismatched collectives "
            f"(then: {described}; else: {other}): ranks taking different "
            "paths disagree on the collective sequence and hang"
        )


# ---------------------------------------------------------------------------
# PF004 — serialized allocator / lock held across comm or alloc
# ---------------------------------------------------------------------------
@rule(
    "PF004",
    name="serialized-allocator",
    severity=Severity.WARNING,
    description=(
        "Heap-allocator calls inside threaded loops serialize on the "
        "process-wide allocator lock, and mutexes held across "
        "communication or allocation extend the serialized window — the "
        "Vite case study's root cause."
    ),
)
def check_serialized_allocator(ctx: LintContext) -> Iterator[Finding]:
    for site in ctx.sites:
        node = site.node
        is_alloc = isinstance(node, ThreadCall) and node.op in _ALLOC_OPS
        is_comm = isinstance(node, CommCall)
        if is_alloc and site.in_threaded_region and site.in_loop:
            yield site.finding(
                f"allocator call {node.name!r} inside a threaded loop "
                "serializes all threads on the process-wide allocator "
                "lock; its cost grows with the thread count"
            )
        elif (is_alloc or is_comm) and site.held_locks and (
            site.in_threaded_region or site.in_loop
        ):
            what = "allocator call" if is_alloc else "communication call"
            locks = ", ".join(repr(l) for l in site.held_locks)
            yield site.finding(
                f"lock {locks} held across {what} {node.name!r}: other "
                "threads block for the full communication/allocation time"
            )


# ---------------------------------------------------------------------------
# PF005 — unresolved indirect call in a hot loop
# ---------------------------------------------------------------------------
@rule(
    "PF005",
    name="indirect-in-loop",
    severity=Severity.WARNING,
    description=(
        "An indirect call in a hot loop is statically unresolvable "
        "(§3.2): its subtree is missing from the top-down view until a "
        "runtime trace fills it in, leaving an embedding blind spot "
        "exactly where the time is spent."
    ),
)
def check_indirect_in_loop(ctx: LintContext) -> Iterator[Finding]:
    for site in ctx.sites_of(Call):
        node = site.node
        if node.target is CallTarget.INDIRECT and ctx.in_hot_path(site):
            yield site.finding(
                f"indirect call {node.name!r} in a hot loop cannot be "
                "resolved statically: performance data embedded below it "
                "is blind until a runtime trace supplies the target"
            )


# ---------------------------------------------------------------------------
# PF006 — rank-/thread-divergent workload (static load imbalance)
# ---------------------------------------------------------------------------
def _spread(values: List[float]) -> float:
    mean = sum(values) / len(values)
    if mean <= 0.0:
        return 0.0
    return (max(values) - min(values)) / mean


def _probe_costs(ctx: LintContext, cost, contexts) -> List[float]:
    out: List[float] = []
    for ectx in contexts:
        val = ctx.probe(cost, ectx)
        if ctx.is_unknown(val) or not isinstance(val, (int, float)):
            return []
        out.append(float(val))
    return out


@rule(
    "PF006",
    name="rank-divergent-cost",
    severity=Severity.WARNING,
    description=(
        "A hot statement's modelled cost, probed across sample ranks "
        "(and threads, inside threaded regions), diverges beyond the "
        "jitter floor: load imbalance visible before any run."
    ),
)
def check_rank_divergent_cost(ctx: LintContext) -> Iterator[Finding]:
    threshold = ctx.config.cost_spread_threshold
    rank_ctxs = ctx.rank_contexts()
    for site in ctx.sites_of(Stmt, Call):
        node = site.node
        cost = getattr(node, "cost", None)
        if cost is None or not ctx.in_hot_path(site):
            continue
        values = _probe_costs(ctx, cost, rank_ctxs)
        if values:
            spread = _spread(values)
            if spread > threshold:
                yield site.finding(
                    f"cost of {node.name!r} diverges across ranks "
                    f"(spread {spread:.0%} of mean, jitter floor "
                    f"{threshold:.0%}): statically visible load imbalance"
                )
                continue
        if site.in_threaded_region:
            nthreads = ctx.config.nthreads
            thread_ctxs = [
                rank_ctxs[0].with_thread(t, nthreads) for t in range(nthreads)
            ]
            values = _probe_costs(ctx, cost, thread_ctxs)
            if values and _spread(values) > threshold:
                yield site.finding(
                    f"cost of {node.name!r} diverges across threads "
                    f"(spread {_spread(values):.0%} of mean): unequal "
                    "thread workloads stretch the joining thread's wait"
                )


# ---------------------------------------------------------------------------
# PF007 — extracted PAG violates structural invariants
# ---------------------------------------------------------------------------
@rule(
    "PF007",
    name="pag-structure",
    severity=Severity.ERROR,
    description=(
        "The top-down PAG extracted from the program violates the "
        "structural invariants of repro.pag.validate (tree shape, edge "
        "labels, debug info) — downstream passes would misbehave."
    ),
)
def check_pag_structure(ctx: LintContext) -> Iterator[Finding]:
    from repro.pag.validate import ValidationError, edge_label_problems, validate_top_down

    pag = ctx.static.pag
    problems: List[str] = []
    try:
        validate_top_down(pag)
    except ValidationError as err:
        problems.extend(err.problems)
    problems.extend(edge_label_problems(pag))
    for problem in problems:
        yield Finding(message=f"top-down PAG invariant violated: {problem}",
                      node=pag.name)
