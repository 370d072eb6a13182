"""The process executor: PerFlowGraph execution beyond the GIL.

Selected with ``run(jobs=N, backend="process")`` or
``PERFLOW_BACKEND=process``.  Scheduling and the loop itself live in
:mod:`repro.dataflow.scheduler`; :class:`ProcessExecutor` only decides
*where* a node's function executes and how its inputs and outputs cross
the process boundary.

1. **Fork.**  The coordinator walks the run's input values and collects
   every distinct PAG into ``{fingerprint: live PAG}``.  Workers are
   forked (``mp_context("fork")``) with ``(graph, registry)`` as the
   pool's ``initargs``, which a forked ``Process`` inherits and never
   pickles: the graph object — pass closures, lambdas, captured facades
   and all — and every input PAG, its memoised fingerprint included, are
   already in the worker's address space, copy-on-write.  A PAG a pass
   closed over and the PAG its argument rebinds to are therefore one
   object, in the worker as on the coordinator; a write a pass makes in
   a worker stays in that worker.  Each worker moves itself to its own
   allowed CPU once at start (see :func:`_worker_init`).
2. **Transfer** (``submit`` / ``finish``).  A task on the wire is just
   ``(node_id, encoded args, want_spans)``.  Arguments and results cross
   as cache entries (:func:`~repro.cache.store.encode_value`):
   ``VertexSet``/``EdgeSet`` and raw ``PAG`` values travel as ``(kind,
   fingerprint, id-array)`` references and rebind to the receiver's
   registry; a set's result columns ride in the payload.  Anything that
   cannot cross — a value outside the cache's value set, a set or PAG
   not among the run's inputs (one the pass created or wrote to) —
   degrades that node to coordinator execution instead of failing the
   run, so *every* pipeline keeps serial-equivalent semantics here.
3. **Merge.**  With tracing enabled, each worker records its node span
   (plus any library-internal spans) in a private recorder and ships
   the flattened batch home; the parent replays it under the pipeline
   span, ``tid`` = worker pid.  Fixpoint non-convergence warnings and
   cache stores land in the parent.

Pinned to the coordinator by construction: input nodes (trivial) and
``cacheable=False`` nodes — the flag marks side effects / hidden state
(closure accumulators, a facade's view cache), which must happen in the
parent process to be visible to the rest of the run.

Failure taxonomy (all :class:`ProcPoolError`, a ``RuntimeError``):

* a node's own exception re-raises with serial-equivalent first-error
  semantics, exactly like the thread pool, and beats the one below;
* :class:`WorkerCrashed` — a worker died without reporting (SIGKILL,
  OOM); names a node that was in flight;
* :class:`NotTransferable` — internal signal for step 2's degradation;
  callers never see it escape ``run()``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.cache.keys import Uncacheable
from repro.cache.store import CacheMiss, decode_value, encode_value, entry_layout
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.graph import PerFlowGraph
    from repro.dataflow.scheduler import WavefrontState

__all__ = [
    "ProcPoolError",
    "WorkerCrashed",
    "NotTransferable",
    "collect_pags",
    "ProcessExecutor",
]


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
class ProcPoolError(RuntimeError):
    """Base class for process-backend infrastructure failures."""


class WorkerCrashed(ProcPoolError):
    """A worker process died without reporting a result (SIGKILL, OOM)."""


class NotTransferable(ProcPoolError):
    """A value cannot cross the process boundary (degrade to inline)."""


# ----------------------------------------------------------------------
# registry: the run's input PAGs by fingerprint (coordinator side)
# ----------------------------------------------------------------------
def collect_pags(value: Any, out: Optional[Dict[str, PAG]] = None) -> Dict[str, PAG]:
    """Distinct PAGs reachable from ``value``, by fingerprint.

    Walks sets (their backing graph), raw PAG values, and
    tuple/list/dict containers.
    """
    if out is None:
        out = {}
    if isinstance(value, PAG):
        out.setdefault(value.fingerprint(), value)
    elif isinstance(value, (VertexSet, EdgeSet)):
        if value._pag is not None:
            pag = value._pag
            out.setdefault(pag.fingerprint(), pag)
    elif isinstance(value, (tuple, list)):
        for item in value:
            collect_pags(item, out)
    elif isinstance(value, dict):
        for item in value.values():
            collect_pags(item, out)
    return out


# ----------------------------------------------------------------------
# transfer: values <-> cache entries
# ----------------------------------------------------------------------
def encode_transfer(value: Any, registry: Any) -> bytes:
    """Encode a value for the wire; raises :class:`NotTransferable`.

    ``registry`` holds the fingerprints of the run's input PAGs: every
    set and PAG reference must resolve against it on the other side, so
    anything bound to another graph refuses to travel here rather than
    mis-rebinding there.
    """
    try:
        entry = encode_value(value)
    except Uncacheable as exc:
        raise NotTransferable(str(exc)) from exc
    for _kind, fp, _n in entry_layout(entry)[0]:
        if fp is not None and fp not in registry:
            raise NotTransferable(
                f"the value is bound to PAG {fp[:12]}…, which is not one of "
                "the run's input PAGs"
            )
    return entry


def decode_transfer(entry: bytes, registry: Any) -> Any:
    """Rebind a wire value against ``registry`` (fingerprint -> PAG)."""
    try:
        return decode_value(entry, registry)
    except CacheMiss as exc:
        raise NotTransferable(str(exc)) from exc


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: The ``(graph, registry)`` this worker process was forked with; set
#: only in a worker, which serves exactly one pool — hence one run.
_WORKER: Optional[Tuple["PerFlowGraph", Dict[str, PAG]]] = None


def _worker_init(payload: Tuple["PerFlowGraph", Dict[str, PAG]]) -> None:
    """Pool initializer: keep the fork-inherited ``(graph, registry)``."""
    global _WORKER
    _WORKER = payload
    # A forked child starts on its parent's CPU and an idle kernel can
    # leave every worker stacked there, serialising the run — or not, from
    # one run to the next.  Move each worker to its own allowed CPU once
    # (consecutive pids: pid modulo spreads them), then hand placement
    # back to the scheduler.  Best effort: a sandbox may forbid the call.
    if hasattr(os, "sched_setaffinity"):
        try:
            allowed = os.sched_getaffinity(0)
            cpus = sorted(allowed)
            os.sched_setaffinity(0, {cpus[os.getpid() % len(cpus)]})
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass


def _flatten_spans(rec: Any) -> List[Dict[str, Any]]:
    """A recorder's span forest as a flat, picklable, preorder list."""
    out: List[Dict[str, Any]] = []
    roots, children = rec.tree()

    def emit(sp: Any, parent_idx: Optional[int]) -> None:
        idx = len(out)
        out.append(
            {
                "name": sp.name,
                "cat": sp.category,
                "args": _trace._json_args(sp.args),
                "t0": sp.t_start,
                "t1": sp.t_end,
                "parent": parent_idx,
            }
        )
        for child in children.get(sp, ()):
            emit(child, idx)

    for root in roots:
        emit(root, None)
    return out


def _worker_run(
    nid: int, entry: bytes, want_spans: bool
) -> Tuple[bytes, Dict[str, Any]]:
    """Execute one node in a worker; returns (encoded result, meta).

    ``meta`` carries the worker pid, fixpoint ``extra`` (iterations /
    converged), and — when the parent is tracing — the flattened span
    batch to replay into the parent recorder.
    """
    graph, registry = _WORKER
    node = graph._nodes[nid]
    args = list(decode_transfer(entry, registry))
    pid = os.getpid()
    meta: Dict[str, Any] = {"pid": pid}
    # No session here: the store happens in the parent, on arrival.
    if want_spans:
        with _trace.scoped_recorder() as rec:
            value, extra = graph._execute_node(node, args, worker=f"pid-{pid}")
        meta["spans"] = _flatten_spans(rec)
    else:
        value, extra = graph._execute_node(node, args, worker=f"pid-{pid}")
    meta["extra"] = extra
    try:
        result = encode_transfer(value, registry)
    except NotTransferable:
        raise
    except Exception as exc:  # defensive: never hang the future
        raise NotTransferable(f"result of node {node.name!r} failed to encode: {exc}") from exc
    return result, meta


# ----------------------------------------------------------------------
# coordinator driver
# ----------------------------------------------------------------------
def _merge_spans(
    batch: List[Dict[str, Any]], parent: Any, pid: int
) -> List[Any]:
    """Replay a worker's span batch into the parent recorder."""
    rec = _trace.get_recorder()
    if not batch or not isinstance(rec, _trace.SpanRecorder):
        return []
    built: List[Any] = []
    for item in batch:
        pspan = built[item["parent"]] if item["parent"] is not None else parent
        built.append(
            rec.record_completed(
                item["name"],
                category=item["cat"],
                parent=pspan,
                args=item["args"],
                t_start=item["t0"],
                t_end=item["t1"],
                tid=pid,
            )
        )
    return built


class ProcessExecutor:
    """Runs transferable nodes on ``jobs`` forked workers, the rest inline.

    Registry on construction, pin/encode on :meth:`submit`, decode and
    fatal-triage on :meth:`finish`, shutdown + metrics on :meth:`close`.
    """

    def __init__(self, state: "WavefrontState", jobs: int):
        self.state = state
        self.jobs = jobs
        self.want_spans = _trace.enabled()
        # Workers rebind arguments, and the coordinator results, against
        # this one dict; a worker's copy is the fork-time snapshot.
        self.registry = collect_pags(state.inputs)
        # Forks lazily, at the first submit.
        self.pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=get_context("fork"),
            initializer=_worker_init,
            initargs=((state.graph, self.registry),),
        )
        self.inline_count = 0
        self.worker_tasks = 0
        self.transfer_bytes = 0
        self.crashes = 0

    def _inline(self, nid: int) -> None:
        """Execute a node on the coordinator (pinned or degraded)."""
        self.inline_count += 1
        is_input = self.state.nodes[nid].kind == "input"
        self.state.run_inline(nid, None if is_input else "coordinator")

    def submit(self, nid: int) -> Any:
        state = self.state
        node = state.nodes[nid]
        # Input and side-effecting nodes always stay in the parent, and
        # after a fatal infrastructure error only pinned execution
        # remains meaningful.
        if state.fatal is None and node.kind != "input" and node.cacheable:
            try:
                entry = encode_transfer(tuple(state.resolve_args(nid)), self.registry)
                fut = self.pool.submit(_worker_run, nid, entry, self.want_spans)
            except NotTransferable:
                pass
            except BrokenProcessPool as exc:
                state.abort(
                    WorkerCrashed(
                        f"worker pool broke before node {nid} ({node.name!r}) "
                        f"could be submitted: {exc}"
                    )
                )
            else:
                self.transfer_bytes += len(entry)
                self.worker_tasks += 1
                return fut
        self._inline(nid)
        return None

    def _accept(self, nid: int, entry: bytes, meta: Dict[str, Any]) -> None:
        """Rebind a worker's result in the parent; may raise NotTransferable."""
        state = self.state
        node = state.nodes[nid]
        value = decode_transfer(entry, self.registry)
        self.transfer_bytes += len(entry)
        merged = _merge_spans(meta.get("spans") or [], state.parent, meta["pid"])
        if state.session is not None:
            for sp in merged:
                if sp.name == f"node:{node.name}":
                    sp.set(cache_hit=False)
            state.session.store(node, value)
        state.complete(nid, value, meta["extra"])

    def finish(self, nid: int, fut: Any) -> None:
        state = self.state
        exc = fut.exception()
        if exc is None:
            try:
                self._accept(nid, *fut.result())
            except NotTransferable:
                self._inline(nid)
        elif isinstance(exc, NotTransferable):
            self._inline(nid)
        elif isinstance(exc, BrokenProcessPool):
            self.crashes += 1
            state.abort(
                WorkerCrashed(
                    f"worker process died while node {nid} "
                    f"({state.nodes[nid].name!r}) was in flight"
                )
            )
        else:
            state.fail(nid, exc)

    def close(self) -> None:
        self.pool.shutdown()
        self.state.emit_metrics(self.jobs)
        _metrics.gauge("dataflow.procpool.jobs").set(self.jobs)
        _metrics.counter("dataflow.procpool.tasks").inc(self.worker_tasks)
        _metrics.counter("dataflow.procpool.inline").inc(self.inline_count)
        _metrics.counter("dataflow.procpool.transfer_bytes").inc(self.transfer_bytes)
        if self.crashes:
            _metrics.counter("dataflow.procpool.crashes").inc(self.crashes)
