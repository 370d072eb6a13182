"""The execution core: one drive loop behind every ``PerFlowGraph.run``.

The PerFlowGraph is a DAG whose edges always point from lower to higher
node ids (construction order guarantees acyclicity), so the classic
dependency-counting wavefront applies directly: every node carries a
count of unfinished dependencies; nodes whose count is zero form the
*ready set*; each completion decrements its dependents' counts and
releases the newly ready ones.  Three pieces, kept apart:

* :class:`WavefrontState` — *what* may run next: dependency counts, the
  ready heap, the cache probe, the per-node values, the first-error cut.
* An **executor** — *where* a node runs.  ``submit(nid)`` returns a
  future, or ``None`` after completing the node on the coordinator.
  :class:`InlineExecutor` (no pool: the serial sweep, ``jobs=1``),
  :class:`ThreadExecutor` and
  :class:`~repro.dataflow.procpool.ProcessExecutor` (forked workers)
  are the three there are.
* :func:`drive` — the loop: pop ready nodes, submit, wait for the first
  completion, settle it, repeat.

Whatever the executor, a run is observably the serial sweep:

* **Same results.**  Each node runs exactly once with the same resolved
  inputs; a fixpoint node iterates inside a single worker.
* **Deterministic first error.**  The serial sweep surfaces the failing
  node with the smallest node id whose dependencies all succeeded
  (everything after it never runs).  After a failure the loop keeps
  executing only nodes with a *smaller* id than the best failure seen
  so far (only those can precede it serially — every dependency edge
  points id-upward), then re-raises the winning node's original
  exception.  Nodes downstream of a failure, and ready nodes with
  larger ids, are cancelled without running.
* **Same observability.**  One ``node:<name>`` span per node under the
  ``pipeline:<name>`` span.  Pool executors tag it with the executing
  ``worker`` and publish the ``dataflow.scheduler.*`` metrics (``jobs``,
  ``ready_max`` — the widest observed wavefront — ``nodes_parallel``);
  the inline executor publishes none.

Passes run concurrently only when they are dependency-independent, so
a pass that touches shared mutable state must synchronize it; the
built-in set passes are pure readers of the columnar PAG.
"""

from __future__ import annotations

import heapq
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.store import PassCache
    from repro.dataflow.graph import PerFlowGraph

__all__ = [
    "ENV_JOBS",
    "ENV_BACKEND",
    "ENV_CACHE",
    "BACKENDS",
    "resolve_jobs",
    "resolve_backend",
    "resolve_cache",
    "WavefrontState",
    "InlineExecutor",
    "ThreadExecutor",
    "drive",
]

#: Environment variable supplying the default worker count.
ENV_JOBS = "PERFLOW_JOBS"

#: Environment variable supplying the default execution backend.
ENV_BACKEND = "PERFLOW_BACKEND"

#: Environment variable enabling the pass-result cache by default
#: (1/true/yes/on; 0/false/no/off/empty).
ENV_CACHE = "PERFLOW_CACHE"

#: Supported worker-pool flavors for ``PerFlowGraph.run(backend=…)``.
BACKENDS = ("thread", "process")

_LOG = get_logger("dataflow.scheduler")


def resolve_jobs(jobs: Any = None) -> int:
    """Resolve a ``jobs`` request to a worker count (``>= 1``).

    ``None`` falls back to the ``PERFLOW_JOBS`` environment variable,
    and to ``1`` (serial execution) when that is unset or empty.
    Anything that is not a positive integer raises ``ValueError`` — a
    silently clamped typo would mask the difference between "serial on
    purpose" and "parallel as configured".
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{ENV_JOBS} must be a positive integer, got {raw!r}"
            ) from None
        if jobs < 1:
            raise ValueError(f"{ENV_JOBS} must be >= 1, got {jobs}")
        return jobs
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_backend(backend: Any = None) -> str:
    """Resolve a ``backend`` request to a pool flavor (``BACKENDS``).

    ``None`` falls back to the ``PERFLOW_BACKEND`` environment
    variable, and to ``"thread"`` when that is unset or empty.
    Anything that is not a known backend name raises ``ValueError`` —
    mirroring :func:`resolve_jobs`, a typo must not silently fall back
    to a different executor.
    """
    source = "backend"
    if backend is None:
        raw = os.environ.get(ENV_BACKEND, "").strip()
        if not raw:
            return "thread"
        backend = raw
        source = ENV_BACKEND
    if isinstance(backend, str):
        name = backend.strip().lower()
        if name in BACKENDS:
            return name
    raise ValueError(
        f"{source} must be one of {', '.join(BACKENDS)}, got {backend!r}"
    )


def resolve_cache(spec: Any = None) -> Optional["PassCache"]:
    """Resolve a cache request to a :class:`~repro.cache.store.PassCache`
    or ``None``.

    ``None`` consults ``PERFLOW_CACHE`` (a malformed flag raises
    ``ValueError``, like :func:`resolve_jobs`); ``False`` disables;
    ``True`` uses the process default; a path enables a disk-backed
    cache at that directory; a ``PassCache`` is used as-is.  The cache
    store is imported only when a cache is asked for.
    """
    if spec is None:
        raw = os.environ.get(ENV_CACHE, "").strip().lower()
        if raw not in ("", "0", "false", "no", "off", "1", "true", "yes", "on"):
            raise ValueError(
                f"{ENV_CACHE} must be a boolean flag "
                f"(1/true/yes/on or 0/false/no/off), got {raw!r}"
            )
        spec = raw in ("1", "true", "yes", "on")
    if spec is False:
        return None
    from repro.cache.store import DiskStore, PassCache, default_cache

    if spec is True:
        return default_cache()
    if isinstance(spec, PassCache):
        return spec
    if isinstance(spec, (str, Path)):
        return PassCache(disk=DiskStore(Path(spec).expanduser()))
    raise TypeError(
        "cache must be None, a bool, a directory path, or a PassCache, "
        f"got {spec!r}"
    )


class WavefrontState:
    """What may run next, and what has been computed so far.

    Owns everything that makes any executor serial-equivalent —
    dependency counting, the id-ordered ready heap, the deterministic
    first-error cut, the one cache probe, and the per-node ``values``
    slab.  Not thread-safe: :func:`drive` and the executors call every
    method except :meth:`run_node` from the coordinator thread only
    (workers hand results back through futures).
    """

    def __init__(
        self,
        graph: "PerFlowGraph",
        inputs: Dict[str, Any],
        session: Any = None,
    ):
        self.graph = graph
        self.inputs = inputs
        self.session = session
        self.nodes = graph._nodes
        n = len(self.nodes)
        self.n = n
        # Dependency edges always point id-upward; duplicate refs to the
        # same producer (e.g. two .out() selections) count once.
        dep_ids = [sorted({ref.node_id for ref in node.inputs}) for node in self.nodes]
        self.dependents: List[List[int]] = [[] for _ in range(n)]
        self.pending = [len(deps) for deps in dep_ids]
        for nid, deps in enumerate(dep_ids):
            for dep in deps:
                self.dependents[dep].append(nid)
        self.values: List[Any] = [None] * n

        # The open pipeline span (entered on the calling thread) becomes
        # the explicit parent of every worker-side node span; falsy when
        # tracing is disabled, which _execute_node treats as "no parent".
        pipeline_span = _trace.current_span()
        self.parent = pipeline_span if pipeline_span else None

        # A heap of node ids: every executor pops in the order the
        # first-error rule is defined by.
        self.ready: List[int] = [nid for nid in range(n) if self.pending[nid] == 0]
        heapq.heapify(self.ready)
        self.errors: List[Tuple[int, BaseException]] = []
        self.best_error_id = n  # smallest failing node id seen so far
        self.fatal: Optional[BaseException] = None
        self.executed = 0
        self.cache_hits = 0
        self.ready_max = len(self.ready)

    # -- value plumbing ----------------------------------------------------
    def resolve_args(self, nid: int) -> List[Any]:
        """The already-computed values node ``nid``'s input refs point at."""
        args = []
        for ref in self.nodes[nid].inputs:
            value = self.values[ref.node_id]
            args.append(value if ref.output_index is None else value[ref.output_index])
        return args

    # -- scheduling --------------------------------------------------------
    def next_ready(self) -> Optional[int]:
        """Pop the next runnable node id; ``None`` when the heap drains.

        Applies the failure cut — after a failure only nodes that could
        precede it serially (smaller id) may still run; larger-id
        entries are popped and discarded, and since ``best_error_id``
        only ever decreases a discarded node could never become
        runnable again.  Also the one cache probe: a hit completes the
        node right here — span recorded, dependents released — and the
        executor never sees it; a miss memoizes the key for the store.
        """
        while self.ready:
            nid = heapq.heappop(self.ready)
            if nid >= self.best_error_id:
                continue
            node = self.nodes[nid]
            if self.session is not None and node.kind in ("pass", "fixpoint"):
                args = self.resolve_args(nid)
                hit, value = self.session.probe(node, args)
                if hit:
                    self.values[nid] = value
                    self.cache_hits += 1
                    self.graph._note_cache_hit(node, args, value, parent=self.parent)
                    self._release_dependents(nid)
                    continue
            return nid
        return None

    def _release_dependents(self, nid: int) -> None:
        for dep in self.dependents[nid]:
            self.pending[dep] -= 1
            if self.pending[dep] == 0:
                heapq.heappush(self.ready, dep)

    def complete(self, nid: int, value: Any, extra: Dict[str, Any]) -> None:
        """Record a node's result and release its dependents.

        ``extra`` is the runner's fixpoint metadata; a fixpoint that
        did not converge is warned about and counted here, on the
        coordinator, wherever it ran.
        """
        if extra.get("converged") is False:
            self.graph._note_nonconverged(self.nodes[nid], extra["iterations"])
        self.values[nid] = value
        self.executed += 1
        self._release_dependents(nid)

    def fail(self, nid: int, exc: BaseException) -> None:
        """Record a node failure; tightens the first-error cut."""
        self.errors.append((nid, exc))
        if nid < self.best_error_id:
            self.best_error_id = nid

    def abort(self, exc: BaseException) -> None:
        """Record an infrastructure failure: the first one fails the run,
        unless a node's own error does (:meth:`raise_first_error`)."""
        if self.fatal is None:
            self.fatal = exc

    # -- execution ---------------------------------------------------------
    def run_node(self, nid: int, worker: Optional[str] = None) -> Tuple[Any, Dict[str, Any]]:
        """Run node ``nid`` on the calling thread; ``(value, extra)``."""
        node = self.nodes[nid]
        args = [self.inputs[node.name]] if node.kind == "input" else self.resolve_args(nid)
        return self.graph._execute_node(
            node, args, parent=self.parent, worker=worker, session=self.session
        )

    def run_inline(self, nid: int, worker: Optional[str] = None) -> None:
        """Run node ``nid`` on the coordinator and complete or fail it."""
        try:
            result = self.run_node(nid, worker)
        except BaseException as exc:  # re-raised by raise_first_error
            self.fail(nid, exc)
        else:
            self.complete(nid, *result)

    # -- completion --------------------------------------------------------
    def raise_first_error(self) -> None:
        """Re-raise the serial-equivalent first error, if any occurred.

        The winning error is the one with the smallest node id — exactly
        the failure the serial sweep would have surfaced.  Only a run
        with no node error raises its infrastructure failure.
        """
        if not self.errors:
            if self.fatal is not None:
                raise self.fatal
            return
        cancelled = self.n - self.executed - self.cache_hits - len(self.errors)
        node_id, exc = min(self.errors, key=lambda pair: pair[0])
        _LOG.debug(
            "wavefront of PerFlowGraph %r failed at node %d (%r); "
            "%d node(s) cancelled, %d error(s) observed",
            self.graph.name,
            node_id,
            self.nodes[node_id].name,
            cancelled,
            len(self.errors),
        )
        raise exc

    def emit_metrics(self, jobs: int) -> None:
        """Publish the shared ``dataflow.scheduler.*`` metrics."""
        _metrics.gauge("dataflow.scheduler.jobs").set(jobs)
        _metrics.gauge("dataflow.scheduler.ready_max").set(self.ready_max)
        _metrics.counter("dataflow.scheduler.nodes_parallel").inc(self.executed)


class InlineExecutor:
    """No pool: a node completes on the calling thread as it is popped.

    This *is* the serial sweep.  Every dependency edge points id-upward
    and nothing is ever in flight, so the id-ordered heap yields
    0, 1, 2, … and the first failure cuts everything after it.
    """

    def __init__(self, state: WavefrontState):
        self.state = state

    def submit(self, nid: int) -> None:
        self.state.run_inline(nid)

    def close(self) -> None:
        pass


class ThreadExecutor:
    """Runs every node on a pool of ``jobs`` threads."""

    def __init__(self, state: WavefrontState, jobs: int):
        self.state = state
        self.jobs = jobs
        self.pool = ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix=f"perflow-{state.graph.name}"
        )

    def _run(self, nid: int) -> Tuple[Any, Dict[str, Any]]:
        # ThreadPoolExecutor names workers "<prefix>_<k>"; the suffix is
        # the stable worker id within this pool.
        worker = threading.current_thread().name.rsplit("_", 1)[-1]
        return self.state.run_node(nid, worker)

    def submit(self, nid: int) -> Any:
        return self.pool.submit(self._run, nid)

    def finish(self, nid: int, fut: Any) -> None:
        exc = fut.exception()
        if exc is not None:
            self.state.fail(nid, exc)
        else:
            self.state.complete(nid, *fut.result())

    def close(self) -> None:
        self.pool.shutdown()
        self.state.emit_metrics(self.jobs)


def drive(state: WavefrontState, executor: Any) -> List[Any]:
    """The one drive loop; returns per-node values.

    ``executor.submit(nid)`` returns a future for a node it started
    elsewhere, or ``None`` after completing (or failing) it on the
    coordinator; ``executor.finish(nid, future)`` settles a done future
    into ``state``; ``executor.close()`` runs on every exit path and
    joins the pool — no orphaned futures survive a failure.  Raises
    the serial-equivalent first error (see the module docstring).
    """
    running: Dict[Any, int] = {}  # future -> node_id
    try:
        while True:
            nid = state.next_ready()
            while nid is not None:
                fut = executor.submit(nid)
                if fut is not None:
                    running[fut] = nid
                nid = state.next_ready()
            if not running:
                break
            # The heap is drained: what is in flight is the wavefront.
            state.ready_max = max(state.ready_max, len(running))
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                executor.finish(running.pop(fut), fut)
    finally:
        executor.close()
    state.raise_first_error()
    return state.values
