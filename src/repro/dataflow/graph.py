"""PerFlowGraph: the dataflow graph of analysis passes (paper §4.1-4.2).

Vertices are passes (analysis sub-tasks); edges carry the sets flowing
between them.  A graph is built by declaring external inputs and adding
pass nodes whose inputs are earlier nodes' outputs — construction order
guarantees acyclicity, and execution is a single topological sweep.

Fixpoint groups express Fig. 11's "repeat until the output set no
longer changes": a sub-pipeline applied iteratively to its own output
until two consecutive iterations agree (by vertex/edge identity) or an
iteration cap is hit.

Every run goes through the one drive loop in
:mod:`repro.dataflow.scheduler`; :meth:`PerFlowGraph.run` only picks
the executor.  ``jobs=1`` (the default) completes each node inline —
the serial sweep — and ``jobs=N`` (or ``PERFLOW_JOBS``) runs
independent nodes concurrently on threads or forked processes, with
the same result mapping, the same fixpoints and the same first error.

Pipelines are *type-checked before execution*: passes carry
:class:`~repro.dataflow.signatures.PassSignature` declarations
(via the ``@signature`` decorator or ``add_pass(signature=...)``), and
:meth:`PerFlowGraph.check` validates arity and set kinds along every
edge, reporting wiring errors as ``PF8##`` :class:`Diagnostic` records.
:meth:`run` checks first and raises :class:`PipelineError` instead of
letting a mis-wired pass die mid-run with a bare ``TypeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.signatures import (
    PassSignature,
    SetKind,
    make_signature,
    signature_of,
)
from repro.obs import metrics as _metrics
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.pag.sets import EdgeSet, VertexSet

_LOG = get_logger("dataflow.graph")


@dataclass(frozen=True)
class Diagnostic:
    """One wiring error found by :meth:`PerFlowGraph.check`."""

    code: str  #: rule code, "PF80#"
    message: str
    node: str  #: the offending node (or unknown binding)
    graph: str  #: the PerFlowGraph's name

    def format(self) -> str:
        where = f" [{self.graph}]" if self.graph else ""
        return f"{self.code} error: {self.message}{where}"


class PipelineError(TypeError):
    """A pipeline failed its pre-execution check.

    Subclasses :class:`TypeError` because the failure it prevents is the
    mid-run ``TypeError`` a mis-wired pass would have raised; carries
    the structured diagnostics on ``.diagnostics``.
    """

    def __init__(self, name: str, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(d.format() for d in self.diagnostics[:5])
        extra = len(self.diagnostics) - 5
        super().__init__(
            f"PerFlowGraph {name!r} failed its pipeline check: {lines}"
            + (f" (+{extra} more)" if extra > 0 else "")
        )


@dataclass(frozen=True)
class NodeRef:
    """Reference to one output of a node (passes may return tuples)."""

    node_id: int
    output_index: Optional[int] = None

    def out(self, index: int) -> "NodeRef":
        """Select one element of a multi-output pass's result tuple."""
        return NodeRef(self.node_id, index)


@dataclass
class _Node:
    node_id: int
    name: str
    kind: str  # "input" | "pass" | "fixpoint"
    fn: Optional[Callable] = None
    inputs: Tuple[NodeRef, ...] = ()
    max_iters: int = 10
    #: declared kind for input nodes (ANY = unchecked).
    declared_kind: SetKind = SetKind.ANY
    #: declared signature for pass/fixpoint nodes (None = unchecked).
    signature: Optional[PassSignature] = None
    #: opt-out for impure passes (side effects / hidden state): never
    #: skipped by the result cache (:mod:`repro.cache`).
    cacheable: bool = True


def _coerce_signature(spec: Any, fn: Callable) -> Optional[PassSignature]:
    """Resolve a signature: explicit spec first, then ``fn``'s decoration."""
    if spec is None:
        return signature_of(fn)
    if isinstance(spec, PassSignature):
        return spec
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return make_signature(*spec)
    raise TypeError(
        "signature must be a PassSignature or an (inputs, outputs) pair, "
        f"got {spec!r}"
    )


def _size_of(value: Any) -> Optional[int]:
    """Cardinality of a flowing value for span annotation.

    Sized values report their ``len``; tuples (multi-output passes)
    report the sum of their sized members; scalars report ``None``.
    Only computed while tracing is enabled.
    """
    try:
        return len(value)
    except TypeError:
        pass
    if isinstance(value, tuple):
        total = 0
        for item in value:
            size = _size_of(item)
            if size is not None:
                total += size
        return total
    return None


def _sum_sizes(values: Sequence[Any]) -> Optional[int]:
    sizes = [_size_of(v) for v in values]
    known = [s for s in sizes if s is not None]
    return sum(known) if known else None


def _stable_key(value: Any) -> Any:
    """Identity key for fixpoint comparison.

    A set is keyed by its PAG's monotonically assigned token rather than
    ``id(pag)`` — interpreter address reuse after a GC could otherwise
    alias elements of a dead PAG with a newly allocated one across fixpoint
    iterations.
    """
    if isinstance(value, (VertexSet, EdgeSet)):
        ids = frozenset(value._ids.tolist())
        return (value._pag.token if ids else 0, ids)
    if isinstance(value, tuple):
        return tuple(_stable_key(v) for v in value)
    return value


class PerFlowGraph:
    """A dataflow graph of performance-analysis passes."""

    def __init__(
        self,
        name: str = "perflowgraph",
        jobs: Optional[int] = None,
        cache: Any = None,
        backend: Optional[str] = None,
    ):
        self.name = name
        #: defaults for :meth:`run`, which resolves them (None → the
        #: ``PERFLOW_*`` variable → the constant).
        self.default_jobs = jobs
        self.default_backend = backend
        self.default_cache = cache
        self._nodes: List[_Node] = []
        self._input_names: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def input(self, name: str, kind: Any = None) -> NodeRef:
        """Declare an external input (bound at :meth:`run`).

        ``kind`` optionally types the input (``VertexSet``/``EdgeSet``,
        a kind string, or a :class:`SetKind`) so :meth:`check` can
        verify consumers even before a value is bound.
        """
        if name in self._input_names:
            node = self._nodes[self._input_names[name]]
            if kind is not None and node.declared_kind is SetKind.ANY:
                node.declared_kind = SetKind.of(kind)
            return NodeRef(node.node_id)
        node = _Node(
            len(self._nodes),
            name,
            "input",
            declared_kind=SetKind.of(kind) if kind is not None else SetKind.ANY,
        )
        self._nodes.append(node)
        self._input_names[name] = node.node_id
        return NodeRef(node.node_id)

    def add_pass(
        self,
        fn: Callable,
        *inputs: NodeRef,
        name: Optional[str] = None,
        signature: Any = None,
        cacheable: bool = True,
    ) -> NodeRef:
        """Add a pass node fed by earlier nodes' outputs.

        ``fn`` receives the resolved input values positionally and may
        return anything; tuple results are addressed with
        ``ref.out(i)``.  ``signature`` overrides (or supplies, for
        lambdas) the pass's declared
        :class:`~repro.dataflow.signatures.PassSignature`; by default
        the ``@signature`` decoration on ``fn`` is used, and undeclared
        passes are executed unchecked.  ``cacheable=False`` exempts the
        node from the result cache — required for passes with side
        effects or hidden state (e.g. an accumulator captured in a
        closure) that must run even when their inputs are unchanged.
        """
        for ref in inputs:
            if not (0 <= ref.node_id < len(self._nodes)):
                raise ValueError(f"input {ref} references an unknown node")
        node = _Node(
            len(self._nodes),
            name or getattr(fn, "__name__", "pass"),
            "pass",
            fn=fn,
            inputs=tuple(inputs),
            signature=_coerce_signature(signature, fn),
            cacheable=cacheable,
        )
        self._nodes.append(node)
        return NodeRef(node.node_id)

    def add_fixpoint(
        self,
        fn: Callable,
        initial: NodeRef,
        max_iters: int = 10,
        name: Optional[str] = None,
        signature: Any = None,
        cacheable: bool = True,
    ) -> NodeRef:
        """Apply ``fn`` to its own output until it stops changing.

        ``fn(value) -> value`` where values compare by element identity
        for PAG sets.  This is the loop of Fig. 11 ("detect imbalanced
        vertices and perform causal analysis repeatedly until the output
        set no longer changes").  ``cacheable=False`` exempts the node
        from the result cache (see :meth:`add_pass`).
        """
        if not (0 <= initial.node_id < len(self._nodes)):
            raise ValueError(f"input {initial} references an unknown node")
        node = _Node(
            len(self._nodes),
            name or f"fixpoint({getattr(fn, '__name__', 'pass')})",
            "fixpoint",
            fn=fn,
            inputs=(initial,),
            max_iters=max_iters,
            signature=_coerce_signature(signature, fn),
            cacheable=cacheable,
        )
        self._nodes.append(node)
        return NodeRef(node.node_id)

    # ------------------------------------------------------------------
    # static checking
    # ------------------------------------------------------------------
    def check(self, **bindings: Any) -> List[Diagnostic]:
        """Type-check the pipeline wiring; nothing is executed.

        ``bindings`` optionally maps input names to kinds — a class
        (``VertexSet``/``EdgeSet``), an actual value, a kind string, or
        a :class:`SetKind` — refining inputs declared without a kind.
        Returns ``PF8##`` diagnostics (empty list = well-wired):

        * ``PF801`` — set-kind mismatch along an edge (e.g. an
          ``EdgeSet`` output fed to a ``VertexSet`` input);
        * ``PF802`` — pass arity differs from its declared signature;
        * ``PF803`` — invalid output selection (``ref.out(i)`` beyond
          the producer's declared outputs);
        * ``PF804`` — a binding names no declared input.

        Only declared signatures are enforced; untyped passes and
        inputs stay unchecked, so ad-hoc scalar pipelines keep working.
        """
        diags: List[Diagnostic] = []

        def emit(code: str, message: str, node: _Node) -> None:
            diags.append(
                Diagnostic(code, message, f"{node.name} (node {node.node_id})", self.name)
            )

        for bname in sorted(set(bindings) - set(self._input_names)):
            diags.append(
                Diagnostic(
                    "PF804", f"binding {bname!r} names no declared input", bname, self.name
                )
            )

        # Kinds each node produces: None = unknown (undeclared pass).
        produced: List[Optional[Tuple[SetKind, ...]]] = []

        def ref_kind(ref: NodeRef, consumer: _Node) -> SetKind:
            kinds = produced[ref.node_id]
            if kinds is None:
                return SetKind.ANY
            if ref.output_index is None:
                # A whole multi-output tuple flowing on one edge is
                # untypable here; single outputs carry their kind.
                return kinds[0] if len(kinds) == 1 else SetKind.ANY
            if ref.output_index >= len(kinds):
                emit(
                    "PF803",
                    f"output {ref.output_index} selected from "
                    f"{self._nodes[ref.node_id].name!r}, which declares "
                    f"{len(kinds)} output(s)",
                    consumer,
                )
                return SetKind.ANY
            return kinds[ref.output_index]

        for node in self._nodes:
            if node.kind == "input":
                kind = node.declared_kind
                if node.name in bindings:
                    bound = SetKind.of(bindings[node.name])
                    if not kind.compatible(bound):
                        emit(
                            "PF801",
                            f"input {node.name!r} is declared {kind} but "
                            f"bound to a {bound}",
                            node,
                        )
                    if kind is SetKind.ANY:
                        kind = bound
                produced.append((kind,))
                continue
            sig = node.signature
            if sig is None:
                for ref in node.inputs:
                    ref_kind(ref, node)  # still validates .out() indices
                produced.append(None)
                continue
            if node.kind == "fixpoint":
                expected_in = (sig.inputs or (SetKind.ANY,))[:1]
            else:
                expected_in = sig.inputs
            if len(node.inputs) != len(expected_in):
                emit(
                    "PF802",
                    f"pass {node.name!r} declares signature {sig} "
                    f"({len(expected_in)} input(s)) but is wired to "
                    f"{len(node.inputs)}",
                    node,
                )
            for i, (ref, want) in enumerate(zip(node.inputs, expected_in)):
                got = ref_kind(ref, node)
                if not want.compatible(got):
                    emit(
                        "PF801",
                        f"input {i} of pass {node.name!r} expects a "
                        f"{want} but is fed a {got} from "
                        f"{self._nodes[ref.node_id].name!r}",
                        node,
                    )
            if node.kind == "fixpoint":
                # fn: value -> value; output kind follows the input edge.
                out = sig.outputs or expected_in
                produced.append(tuple(out))
            else:
                produced.append(sig.outputs if sig.outputs else None)
        return diags

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        jobs: Optional[int] = None,
        cache: Any = None,
        backend: Optional[str] = None,
        **inputs: Any,
    ) -> Dict[str, Any]:
        """Execute the pipeline; returns {node name: output value}.

        Every declared input must be bound by keyword.  The pipeline is
        :meth:`check`-ed against the bound values first — wiring errors
        raise :class:`PipelineError` before any pass runs.  Node names
        are unique-ified with ``#k`` suffixes in the result mapping when
        they collide.

        ``jobs`` and ``backend`` select the executor for the one drive
        loop (:mod:`repro.dataflow.scheduler`).  ``jobs=1`` (the
        default), or a one-node graph, is the serial sweep: nodes run
        inline in ascending node id, with no pool, thread or fork.
        ``jobs=N`` runs dependency-free nodes concurrently on ``N``
        threads (``backend="thread"``, the default) or ``N`` forked
        worker processes (``backend="process"``,
        :mod:`repro.dataflow.procpool`: graph and PAGs inherited through
        the fork, results returned as the result cache's ``(kind,
        fingerprint, id-array)`` references, nodes whose arguments or
        results cannot cross the process boundary run on the
        coordinator).  Whatever the executor, the ``{name: output}``
        mapping, the fixpoints and the (deterministic) first error are
        those of the serial sweep.  Passes must be thread-safe under
        ``jobs > 1`` (see ``docs/ARCHITECTURE.md``).

        This is the one place an execution option is resolved: each of
        ``jobs`` / ``backend`` / ``cache`` is the call argument, else
        the graph's default (``PerFlowGraph(...)``, which
        ``PerFlow(...)`` hands its own to), else ``PERFLOW_JOBS`` /
        ``PERFLOW_BACKEND`` / ``PERFLOW_CACHE``, else ``1`` /
        ``"thread"`` / disabled.

        With tracing enabled (:mod:`repro.obs`), the run records one
        ``pipeline:<name>`` span containing a ``pipeline.check`` span
        and one ``node:<name>`` span per node carrying ``in_size`` /
        ``out_size`` args (set cardinalities) and, for fixpoint nodes,
        ``iterations`` / ``converged``; pool executors additionally tag
        each node span with the executing ``worker``.  A fixpoint that
        exhausts ``max_iters`` without its stable key converging logs a
        warning on the ``repro.dataflow.graph`` logger and bumps the
        ``dataflow.fixpoint.nonconverged`` counter.

        ``cache`` enables the content-addressed result cache
        (:mod:`repro.cache`): ``True`` uses the process-wide default
        cache, a directory path a disk-backed one, a
        :class:`~repro.cache.store.PassCache` is used as-is, ``False``
        disables.  Cached nodes are skipped entirely (never handed to
        the executor); every node's span carries a ``cache_hit`` tag,
        and hits/misses land on the ``dataflow.cache.*`` counters.
        Nodes added with ``cacheable=False`` always execute.
        """
        from repro.dataflow.scheduler import (
            InlineExecutor,
            ThreadExecutor,
            WavefrontState,
            drive,
            resolve_backend,
            resolve_cache,
            resolve_jobs,
        )

        missing = set(self._input_names) - set(inputs)
        if missing:
            raise ValueError(f"unbound PerFlowGraph inputs: {sorted(missing)}")
        unknown = set(inputs) - set(self._input_names)
        if unknown:
            raise ValueError(f"unknown PerFlowGraph inputs: {sorted(unknown)}")
        njobs = resolve_jobs(jobs if jobs is not None else self.default_jobs)
        backend_name = resolve_backend(
            backend if backend is not None else self.default_backend
        )
        cache_obj = resolve_cache(cache if cache is not None else self.default_cache)
        session = None
        if cache_obj is not None:
            from repro.cache.session import CacheSession

            session = CacheSession(cache_obj)
        with _span(
            f"pipeline:{self.name}",
            category="dataflow",
            nodes=len(self._nodes),
            jobs=njobs,
            backend=backend_name,
            cached=session is not None,
        ) as psp:
            with _span("pipeline.check", category="dataflow") as csp:
                problems = self.check(**inputs)
                if csp:
                    csp.set(diagnostics=len(problems))
            if problems:
                raise PipelineError(self.name, problems)
            # The one place the executor is chosen; everything after is
            # the same loop.  No pool for one worker or one node — that
            # is the serial sweep.
            state = WavefrontState(self, inputs, session=session)
            if njobs == 1 or len(self._nodes) <= 1:
                executor = InlineExecutor(state)
            elif backend_name == "process":
                from repro.dataflow.procpool import ProcessExecutor

                executor = ProcessExecutor(state, njobs)
            else:
                executor = ThreadExecutor(state, njobs)
            values = drive(state, executor)
            if psp and session is not None:
                psp.set(
                    cache_hits=session.hits,
                    cache_misses=session.misses,
                    cache_uncacheable=session.uncacheable,
                )
            named: Dict[str, Any] = {}
            for node in self._nodes:
                key = node.name
                k = 1
                while key in named:
                    k += 1
                    key = f"{node.name}#{k}"
                named[key] = values[node.node_id]
            return named

    def _apply_node(self, node: _Node, args: Sequence[Any]) -> Tuple[Any, Dict[str, Any]]:
        """Pure compute core of a node — no spans, no cache, no warning.

        Runs wherever the value is actually produced; returns
        ``(value, extra)``.  An input node is the identity on its bound
        value.  A fixpoint node iterates to convergence (or
        ``max_iters``) and reports ``iterations`` / ``converged`` in
        ``extra`` — for the span and the coordinator's non-convergence
        warning — which is empty otherwise.
        """
        if node.kind == "input":
            return args[0], {}
        if node.kind == "pass":
            return node.fn(*args), {}
        value = args[0]
        prev_key = _stable_key(value)
        iterations = 0
        converged = False
        for _ in range(node.max_iters):
            value = node.fn(value)
            iterations += 1
            key = _stable_key(value)
            if key == prev_key:
                converged = True
                break
            prev_key = key
        return value, {"iterations": iterations, "converged": converged}

    def _note_nonconverged(self, node: _Node, iterations: int) -> None:
        """Warn + count a fixpoint that exhausted ``max_iters``.

        Called by ``WavefrontState.complete`` on the coordinator, so
        the warning and the ``dataflow.fixpoint.nonconverged`` counter
        land in the parent process whichever executor ran the node.
        """
        _metrics.counter("dataflow.fixpoint.nonconverged").inc()
        _LOG.warning(
            "fixpoint node %r (node %d) of PerFlowGraph %r did "
            "not converge within max_iters=%d; returning the "
            "last iterate",
            node.name,
            node.node_id,
            self.name,
            node.max_iters,
            extra={
                "graph": self.name,
                "node": node.name,
                "iterations": iterations,
            },
        )

    def _note_cache_hit(
        self, node: _Node, args: Sequence[Any], value: Any, parent: Any = None
    ) -> None:
        """Record the span of a node satisfied from cache without executing.

        Called from the scheduler's one probe site; a hit node is never
        handed to the executor.
        """
        with _span(
            f"node:{node.name}",
            category=f"dataflow.{node.kind}",
            parent=parent,
            node_id=node.node_id,
        ) as sp:
            if sp:
                sp.set(
                    in_size=_sum_sizes(args),
                    out_size=_size_of(value),
                    cache_hit=True,
                )

    def _execute_node(
        self,
        node: _Node,
        args: Sequence[Any],
        parent: Any = None,
        worker: Optional[str] = None,
        session: Any = None,
    ) -> Tuple[Any, Dict[str, Any]]:
        """The one node runner: span, compute, store; returns ``(value, extra)``.

        Used inline on the coordinator, on pool threads, and inside
        process-backend workers.  ``args`` are the node's resolved
        inputs (an input node's is its bound value).  ``parent`` /
        ``worker`` nest the span under the pipeline span from another
        thread and tag it with whoever executed it.  ``session`` is the
        run's :class:`~repro.cache.CacheSession` on the side that owns
        the cache: the scheduler already probed the node (a miss), and
        the memoized key is reused for the store.
        """
        span_args: Dict[str, Any] = {"node_id": node.node_id}
        if worker is not None:
            span_args["worker"] = worker
        with _span(
            f"node:{node.name}",
            category=f"dataflow.{node.kind}",
            parent=parent,
            **span_args,
        ) as sp:
            value, extra = self._apply_node(node, args)
            if sp:
                sp.set(in_size=_sum_sizes(args), out_size=_size_of(value), **extra)
            if session is not None and node.kind != "input":
                session.store(node, value)
                if sp:
                    sp.set(cache_hit=False)
        return value, extra

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def to_dot(self) -> str:
        """Graphviz DOT of the PerFlowGraph itself (Fig. 2/8/11/14 style)."""
        lines = [f"digraph {json.dumps(self.name)} {{", "  rankdir=LR;"]
        for node in self._nodes:
            shape = {"input": "parallelogram", "pass": "box", "fixpoint": "box3d"}[node.kind]
            lines.append(f'  n{node.node_id} [label={json.dumps(node.name)},shape={shape}];')
        for node in self._nodes:
            for ref in node.inputs:
                lines.append(f"  n{ref.node_id} -> n{node.node_id};")
        lines.append("}")
        return "\n".join(lines)
