"""Shared state for lint rules: the walked IR plus static evaluation.

The model IR expresses rank-dependent behaviour as callables of
:class:`~repro.ir.context.ExecContext` (peers, branch conditions,
costs).  A static analyzer cannot *run* the program, but it can *probe*
those callables over a small sample of contexts — one per rank of a
hypothetical communicator — which is how the rules reason about
rank-divergent branches, statically matchable sends/recvs, and
workload skew without executing anything.  Probing is best-effort:
callables that raise are treated as unknown, never as violations.

:class:`LintContext` pre-walks every function once, recording for each
IR node its :class:`Site` — the lexical surroundings a rule needs:
enclosing loops, enclosing branches *with polarity* (then/else),
enclosing threaded regions, and the set of mutexes held at that point.
It also computes which functions are reachable from inside a loop via
the static call graph ("hot" functions), and lazily extracts the
top-down PAG for structural rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

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
    ThreadCall,
    ThreadOp,
)
from repro.lint.registry import Finding

_UNKNOWN = object()  #: sentinel: probing a callable failed


@dataclass(frozen=True)
class LintConfig:
    """Sample configuration for static probing.

    ``nprocs`` ranks are probed (16 covers every modelled imbalance
    stride); ``sample_iterations`` are the loop-iteration indices tried
    when a callable may depend on the iteration; ``params`` mirrors the
    run parameters of :func:`repro.runtime.executor.run_program` so the
    linter can analyze e.g. an app's ``optimized`` variant.
    """

    nprocs: int = 16
    nthreads: int = 4
    params: Dict[str, Any] = field(default_factory=dict)
    sample_iterations: Tuple[int, ...] = (0, 1, 2, 3)
    #: minimum relative per-rank cost spread flagged as divergence
    #: (modelled jitter is ±2%, injected imbalances are ≥12%).
    cost_spread_threshold: float = 0.10

    def __post_init__(self) -> None:
        if self.nprocs < 2:
            raise ValueError("lint probing needs nprocs >= 2")


@dataclass(frozen=True)
class Site:
    """One IR node plus its lexical surroundings inside a function."""

    node: Node
    function: Function
    #: enclosing loops, outermost first.
    loops: Tuple[Loop, ...] = ()
    #: enclosing branches with polarity (True = then-body, False = else).
    branches: Tuple[Tuple[Branch, bool], ...] = ()
    #: enclosing multi-thread regions (ThreadOp.CREATE bodies).
    thread_regions: Tuple[ThreadCall, ...] = ()
    #: mutex names locked but not yet unlocked when this node runs.
    held_locks: Tuple[str, ...] = ()

    @property
    def in_loop(self) -> bool:
        return bool(self.loops)

    @property
    def in_threaded_region(self) -> bool:
        return bool(self.thread_regions)

    @property
    def innermost_loop(self) -> Optional[Loop]:
        return self.loops[-1] if self.loops else None

    def finding(self, message: str, severity=None) -> Finding:
        """A :class:`Finding` anchored to this site's debug info."""
        return Finding(
            message=message,
            file=self.function.source_file,
            line=self.node.line,
            function=self.function.name,
            node=self.node.name,
            severity=severity,
        )


class LintContext:
    """Everything the rule set needs, computed once per lint run."""

    def __init__(self, program: Program, config: Optional[LintConfig] = None):
        self.program = program
        self.config = config or LintConfig()
        #: all sites in deterministic pre-order, per function name order.
        self.sites: List[Site] = []
        self._sites_by_function: Dict[str, List[Site]] = {}
        self._static_result = None
        self._collective_signatures: Dict[str, Tuple[str, ...]] = {}
        self._walk_program()
        self.hot_functions: Set[str] = self._compute_hot_functions()

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def rank_contexts(
        self, iteration: int = 0, thread: int = 0
    ) -> List[ExecContext]:
        """One probe context per sample rank."""
        cfg = self.config
        return [
            ExecContext(
                rank=r,
                nprocs=cfg.nprocs,
                thread=thread,
                nthreads=cfg.nthreads,
                iterations=(iteration,),
                params=dict(cfg.params),
            )
            for r in range(cfg.nprocs)
        ]

    @staticmethod
    def probe(value: Any, ctx: ExecContext) -> Any:
        """Evaluate a model attribute; ``_UNKNOWN`` when probing fails."""
        if not callable(value):
            return value
        try:
            return value(ctx)
        except Exception:
            return _UNKNOWN

    @staticmethod
    def is_unknown(value: Any) -> bool:
        return value is _UNKNOWN

    def reachable_ranks(self, site: Site) -> List[int]:
        """Sample ranks whose enclosing branch conditions can be satisfied.

        A rank is reachable when, for *some* sample iteration, every
        enclosing branch condition evaluates to the polarity that leads
        to the site.  Conditions that cannot be probed count as
        satisfiable (conservative: never hides a site).
        """
        out = []
        for rank in range(self.config.nprocs):
            for it in self.config.sample_iterations:
                ctx = ExecContext(
                    rank=rank,
                    nprocs=self.config.nprocs,
                    nthreads=self.config.nthreads,
                    iterations=(it,),
                    params=dict(self.config.params),
                )
                ok = True
                for branch, polarity in site.branches:
                    val = self.probe(branch.condition, ctx)
                    if val is _UNKNOWN:
                        continue
                    if bool(val) != polarity:
                        ok = False
                        break
                if ok:
                    out.append(rank)
                    break
        return out

    # ------------------------------------------------------------------
    # site queries
    # ------------------------------------------------------------------
    def sites_of(self, *types: Type[Node]) -> Iterator[Site]:
        for site in self.sites:
            if isinstance(site.node, types):
                yield site

    def in_hot_path(self, site: Site) -> bool:
        """True when the node repeats: lexically inside a loop, or in a
        function reachable from a loop through the static call graph."""
        return site.in_loop or site.function.name in self.hot_functions

    # ------------------------------------------------------------------
    # static structure (lazy)
    # ------------------------------------------------------------------
    @property
    def static(self):
        """The :class:`~repro.ir.static_analysis.StaticAnalysisResult`."""
        if self._static_result is None:
            from repro.ir.static_analysis import analyze

            self._static_result = analyze(self.program)
        return self._static_result

    # ------------------------------------------------------------------
    # collective signatures (for divergent-branch matching)
    # ------------------------------------------------------------------
    def collective_signature(self, body: Sequence[Node]) -> Tuple[str, ...]:
        """The static sequence of collective ops a body executes.

        User calls are inlined (cycle-guarded) because a collective
        hidden behind a call still hangs when only some ranks reach it.
        """
        return self._collectives_in(body, frozenset())

    def _collectives_in(
        self, body: Sequence[Node], visiting: frozenset
    ) -> Tuple[str, ...]:
        out: List[str] = []
        for node in body:
            if isinstance(node, CommCall):
                if node.op in _COLLECTIVES:
                    out.append(node.op.value)
            elif isinstance(node, Call):
                if (
                    node.target is CallTarget.USER
                    and node.callee in self.program.functions
                    and node.callee not in visiting
                ):
                    fname = node.callee
                    if fname not in self._collective_signatures:
                        self._collective_signatures[fname] = self._collectives_in(
                            self.program.function(fname).body,
                            visiting | {fname},
                        )
                    out.extend(self._collective_signatures[fname])
            elif isinstance(node, (Loop, Branch, ThreadCall)):
                out.extend(self._collectives_in(node.children(), visiting))
        return tuple(out)

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------
    def _walk_program(self) -> None:
        for fname in sorted(self.program.functions):
            func = self.program.function(fname)
            sites: List[Site] = []
            self._walk_body(func.body, func, (), (), (), (), sites)
            self._sites_by_function[fname] = sites
            self.sites.extend(sites)

    def _walk_body(
        self,
        body: Sequence[Node],
        func: Function,
        loops: Tuple[Loop, ...],
        branches: Tuple[Tuple[Branch, bool], ...],
        regions: Tuple[ThreadCall, ...],
        held: Tuple[str, ...],
        out: List[Site],
    ) -> None:
        held_now = held
        for node in body:
            site = Site(
                node=node,
                function=func,
                loops=loops,
                branches=branches,
                thread_regions=regions,
                held_locks=held_now,
            )
            out.append(site)
            if isinstance(node, Loop):
                self._walk_body(
                    node.body, func, loops + (node,), branches, regions, held_now, out
                )
            elif isinstance(node, Branch):
                self._walk_body(
                    node.then_body, func, loops, branches + ((node, True),),
                    regions, held_now, out,
                )
                self._walk_body(
                    node.else_body, func, loops, branches + ((node, False),),
                    regions, held_now, out,
                )
            elif isinstance(node, ThreadCall):
                if node.op is ThreadOp.MUTEX_LOCK and node.lock:
                    held_now = held_now + (node.lock,)
                elif node.op is ThreadOp.MUTEX_UNLOCK and node.lock in held_now:
                    idx = len(held_now) - 1 - held_now[::-1].index(node.lock)
                    held_now = held_now[:idx] + held_now[idx + 1:]
                elif node.op is ThreadOp.CREATE and node.body:
                    new_regions = (
                        regions + (node,) if self._is_multithreaded(node) else regions
                    )
                    self._walk_body(
                        node.body, func, loops, branches, new_regions, held_now, out
                    )

    def _is_multithreaded(self, node: ThreadCall) -> bool:
        """A CREATE region counts as threaded when it can spawn > 1 thread."""
        for ctx in self.rank_contexts()[:1]:
            count = self.probe(node.count, ctx)
            if count is _UNKNOWN:
                return True  # unknown spawn width: assume threaded
            try:
                return int(count) > 1
            except (TypeError, ValueError):
                return True
        return False

    # ------------------------------------------------------------------
    # call-graph hotness
    # ------------------------------------------------------------------
    def _compute_hot_functions(self) -> Set[str]:
        """Functions whose bodies can repeat because some call path from
        the entry passes through a loop."""
        # call edges: caller -> [(callee, call site lexically in a loop)]
        edges: Dict[str, List[Tuple[str, bool]]] = {}
        for fname, sites in self._sites_by_function.items():
            for site in sites:
                node = site.node
                if isinstance(node, Call) and node.callee in self.program.functions:
                    edges.setdefault(fname, []).append((node.callee, site.in_loop))
        hot: Set[str] = set()
        seen: Set[Tuple[str, bool]] = set()
        entry = self.program.entry
        stack: List[Tuple[str, bool]] = []
        if entry in self.program.functions:
            stack.append((entry, False))
        while stack:
            fname, is_hot = stack.pop()
            if (fname, is_hot) in seen:
                continue
            seen.add((fname, is_hot))
            if is_hot:
                hot.add(fname)
            for callee, in_loop in edges.get(fname, ()):
                stack.append((callee, is_hot or in_loop))
        return hot


_COLLECTIVES = frozenset(
    {
        CommOp.BARRIER,
        CommOp.BCAST,
        CommOp.REDUCE,
        CommOp.ALLREDUCE,
        CommOp.ALLTOALL,
        CommOp.ALLGATHER,
    }
)
