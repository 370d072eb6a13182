"""The process executor: PerFlowGraph execution beyond the GIL.

Selected with ``run(jobs=N, backend="process")`` or
``PERFLOW_BACKEND=process``.  Scheduling and the loop itself live in
:mod:`repro.dataflow.scheduler`; :class:`ProcessExecutor` only decides
*where* a node's function executes and how its inputs and outputs cross
the process boundary.

1. **Publish** (construction).  The coordinator walks the run's input
   values, collects every distinct PAG, and serializes each
   once — the same format-3 byte layout files use — into a
   ``multiprocessing.shared_memory`` block.  A PAG is published only if
   the stamped fingerprint equals the live graph's — format 3 stores
   every float as its raw float64, so the twin a worker computes on is
   content-identical to the bit; graphs the format cannot hold exactly
   (non-JSON metadata or object cells) stay unpublished and their nodes
   run on the coordinator.
2. **Fork.**  Workers are forked (``mp_context("fork")``), so the graph
   object — pass closures, lambdas, captured facades and all — is
   inherited through a per-run payload slot (:data:`_PAYLOADS`) and
   never pickled.  A task on the wire is just ``(token, node_id,
   encoded args, want_spans)``.  Each worker moves itself to its own
   allowed CPU once at start (see :func:`_worker_init`).
3. **Attach.**  The first time a worker needs a PAG it attaches the
   block and reconstructs a read-only zero-copy twin with
   :func:`~repro.pag.formats.format3.load_format3_buffer` (lazy numpy
   views over shared pages, copy-on-write promotion local to the
   worker) and verifies its fingerprint against the published one.
4. **Transfer** (``submit`` / ``finish``).  Arguments and results cross
   as the cache's wire form (:class:`~repro.cache.store.CachedValue`):
   ``VertexSet``/``EdgeSet`` values travel as ``(kind, fingerprint,
   id-array)`` references and rebind to the receiver's live graph, raw
   PAG values as fingerprint markers; a set's result columns ride in the
   payload.  Anything that cannot cross — an unpicklable value, a set
   over a PAG that was never published (one the pass created), a pass
   that unions its argument (bound to the twin) with elements of a graph
   it closed over (still the original object) — degrades that node to
   coordinator execution instead of failing the run, so *every*
   pipeline keeps serial-equivalent semantics under this backend.
5. **Merge.**  With tracing enabled, each worker records its node span
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
  semantics, exactly like the thread pool, and beats the two below;
* :class:`WorkerCrashed` — a worker died without reporting (SIGKILL,
  OOM); names a node that was in flight;
* :class:`ShmAttachError` — a worker could not attach or validate a
  published segment (environmental, fails the run);
* :class:`NotTransferable` — internal signal for step 4's degradation;
  callers never see it escape ``run()``.

Shared-memory lifecycle: blocks are created in ``publish_pags`` and
unlinked by ``ProcessExecutor.close`` once the pool has shut down, on
every exit path of the drive loop — a crashed run leaks nothing
(asserted by ``tests/test_procpool_faults.py``).
"""

from __future__ import annotations

import gc
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.cache.keys import Uncacheable
from repro.cache.store import CachedValue, CacheMiss, decode_value, encode_value
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.pag.formats.format3 import (
    load_format3_buffer,
    read_header_buffer,
    write_format3,
)
from repro.pag.graph import PAG
from repro.pag.sets import CrossPAGError, EdgeSet, VertexSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.graph import PerFlowGraph
    from repro.dataflow.scheduler import WavefrontState

__all__ = [
    "ProcPoolError",
    "WorkerCrashed",
    "ShmAttachError",
    "NotTransferable",
    "collect_pags",
    "publish_pags",
    "ProcessExecutor",
]

_LOG = get_logger("dataflow.procpool")


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
class ProcPoolError(RuntimeError):
    """Base class for process-backend infrastructure failures."""


class WorkerCrashed(ProcPoolError):
    """A worker process died without reporting a result (SIGKILL, OOM)."""


class ShmAttachError(ProcPoolError):
    """A worker could not attach or validate a published PAG segment."""


class NotTransferable(ProcPoolError):
    """A value cannot cross the process boundary (degrade to inline)."""


# ----------------------------------------------------------------------
# per-run payloads (fork-inherited; never pickled)
# ----------------------------------------------------------------------
@dataclass
class _Payload:
    graph: "PerFlowGraph"
    #: parent fingerprint -> shared-memory block name.
    shm_names: Dict[str, str]


_TOKENS = itertools.count(1)

#: token -> payload, set by the coordinator for the duration of a run.
#: ProcessPoolExecutor forks workers lazily (at submit time), so the
#: slot must stay populated for the whole run; the token key keeps
#: concurrent runs in one process from clobbering each other.
_PAYLOADS: Dict[int, _Payload] = {}

#: worker-side: token -> materialized state (graph + attached twins).
_WORKER_STATES: Dict[int, "_WorkerState"] = {}


# ----------------------------------------------------------------------
# publish: PAGs -> shared memory (coordinator side)
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


class _ShmSink:
    """A ``write_format3`` byte sink appending into a shared block."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def __call__(self, chunk: bytes) -> None:
        n = len(chunk)
        self.buf[self.pos : self.pos + n] = chunk
        self.pos += n


def publish_pags(pags: Dict[str, PAG]) -> Dict[str, SharedMemory]:
    """Serialize each PAG once into a fresh shared-memory block.

    Returns ``{parent fingerprint: SharedMemory}`` for every graph whose
    format-3 image round-trips to the *same* fingerprint; graphs that
    would not (non-serializable metadata or object cells) are skipped —
    their nodes degrade to coordinator execution rather than risk a
    worker computing on a lossy twin.  The caller owns every returned
    block and must ``close()`` + ``unlink()`` them; on error this
    function cleans up anything it already created.
    """
    segments: Dict[str, SharedMemory] = {}
    try:
        for fp, pag in pags.items():
            # Pass 1 counts bytes, pass 2 streams into the block.
            size = 0

            def count(chunk: bytes) -> None:
                nonlocal size
                size += len(chunk)

            write_format3(pag, count, include_per_rank=True)
            shm = SharedMemory(create=True, size=size)
            try:
                write_format3(pag, _ShmSink(shm.buf), include_per_rank=True)
                stamped = read_header_buffer(shm.buf, source=shm.name)["fingerprint"]
            except BaseException:
                shm.close()
                shm.unlink()
                raise
            if stamped != fp:
                # The serialized twin would not be content-identical
                # (e.g. metadata that json round-tripping drops).
                shm.close()
                shm.unlink()
                _metrics.counter("dataflow.procpool.unpublishable").inc()
                _LOG.debug(
                    "PAG %r not published: serialized fingerprint %s != live %s",
                    pag.name,
                    stamped[:12],
                    fp[:12],
                )
                continue
            segments[fp] = shm
    except BaseException:
        unpublish_pags(segments)
        raise
    return segments


def unpublish_pags(segments: Dict[str, SharedMemory]) -> None:
    """Close and unlink every published block (idempotent best effort)."""
    for shm in segments.values():
        for step in (shm.close, shm.unlink):
            try:
                step()
            except OSError:  # pragma: no cover - already gone
                pass
    segments.clear()


# ----------------------------------------------------------------------
# transfer: values <-> the cache's wire form
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PagMarker:
    """Stand-in for a raw PAG value inside a transferred payload."""

    fingerprint: str


def _swap_pags_out(value: Any, fps: Any) -> Any:
    """Replace raw PAG values with fingerprint markers (pre-encode walk)."""
    if isinstance(value, PAG):
        fp = value.fingerprint()
        if fp not in fps:
            raise NotTransferable(
                f"PAG {value.name!r} ({fp[:12]}…) is not published in shared memory"
            )
        return _PagMarker(fp)
    if isinstance(value, tuple):
        return tuple(_swap_pags_out(v, fps) for v in value)
    if isinstance(value, list):
        return [_swap_pags_out(v, fps) for v in value]
    if isinstance(value, dict):
        return {k: _swap_pags_out(v, fps) for k, v in value.items()}
    return value


def _swap_pags_in(value: Any, registry: Any) -> Any:
    """Replace fingerprint markers with live graphs (post-decode walk)."""
    if isinstance(value, _PagMarker):
        pag = registry.get(value.fingerprint)
        if pag is None:
            raise NotTransferable(
                f"no live PAG with fingerprint {value.fingerprint[:12]}…"
            )
        return pag
    if isinstance(value, tuple):
        return tuple(_swap_pags_in(v, registry) for v in value)
    if isinstance(value, list):
        return [_swap_pags_in(v, registry) for v in value]
    if isinstance(value, dict):
        return {k: _swap_pags_in(v, registry) for k, v in value.items()}
    return value


def encode_transfer(value: Any, fps: Any) -> CachedValue:
    """Encode a value for the wire; raises :class:`NotTransferable`.

    ``fps`` is the set of published fingerprints: every set reference
    and every raw PAG must resolve against it on the other side, so
    anything bound to an unpublished graph refuses to travel here rather
    than mis-rebinding there.
    """
    try:
        entry = encode_value(_swap_pags_out(value, fps))
    except Uncacheable as exc:
        raise NotTransferable(str(exc)) from exc
    for kind, fp, _ids in entry.set_refs:
        if fp is not None and fp not in fps:
            raise NotTransferable(
                f"a {'vertex' if kind == 'v' else 'edge'} set is bound to a "
                f"PAG ({fp[:12]}…) that is not published in shared memory"
            )
    return entry


def decode_transfer(entry: CachedValue, registry: Any) -> Any:
    """Rebind a wire value against ``registry`` (fingerprint -> PAG)."""
    try:
        value = decode_value(entry, registry)
    except CacheMiss as exc:
        raise NotTransferable(str(exc)) from exc
    return _swap_pags_in(value, registry)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _attach_segment(name: str, fp: str) -> Tuple[SharedMemory, PAG]:
    """Attach one published block and reconstruct its read-only twin."""
    try:
        shm = SharedMemory(name=name)
    except (OSError, ValueError) as exc:
        raise ShmAttachError(
            f"cannot attach shared-memory segment {name!r}: {exc}"
        ) from exc
    # Python's SharedMemory registers every attach with the resource
    # tracker.  Workers are forked, so they share the parent's tracker
    # daemon: the attach-side registration dedupes against the parent's
    # create-side one, and the parent's unlink clears it for everyone.
    # (Under a spawn context each worker would own a tracker that
    # unlinks the block at worker exit — one reason this backend
    # requires fork.)
    pag = None
    failure = cause = None
    try:
        pag = load_format3_buffer(shm.buf, source=f"shm://{name}")
        twin_fp = pag.fingerprint()
        if twin_fp != fp:
            failure = (
                f"shared-memory segment {name!r} holds fingerprint "
                f"{twin_fp[:12]}…, expected {fp[:12]}…"
            )
    except Exception as exc:
        cause = exc
        failure = (
            f"shared-memory segment {name!r} does not hold a valid "
            f"format-3 PAG: {exc}"
        )
    if failure is None:
        return shm, pag
    # Drop the half-built twin before closing — its views point into
    # shm.buf and close() refuses while they are exported.  A traceback
    # (the load failure's) can still pin stray views, so a BufferError
    # here is tolerated: the parent's unlink is the authoritative
    # cleanup, and this process is about to drop the mapping anyway.
    pag = None
    gc.collect()
    try:
        shm.close()
    except BufferError:  # pragma: no cover - traceback-pinned views
        pass
    raise ShmAttachError(failure) from cause


class _AttachRegistry:
    """Worker-side ``fingerprint -> live twin``, attaching lazily.

    Quacks like the dict :func:`~repro.cache.store.decode_value`
    expects (``.get``).  Attached blocks are kept open for the worker's
    lifetime — the twins' numpy views point into them.
    """

    def __init__(self, shm_names: Dict[str, str]):
        self._names = dict(shm_names)
        self._pags: Dict[str, PAG] = {}
        self._shms: List[SharedMemory] = []

    def get(self, fp: str, default: Any = None) -> Any:
        pag = self._pags.get(fp)
        if pag is not None:
            return pag
        name = self._names.get(fp)
        if name is None:
            return default
        shm, pag = _attach_segment(name, fp)
        self._shms.append(shm)
        self._pags[fp] = pag
        return pag


class _WorkerState:
    __slots__ = ("graph", "registry", "fps")

    def __init__(self, payload: _Payload):
        self.graph = payload.graph
        self.registry = _AttachRegistry(payload.shm_names)
        self.fps = frozenset(payload.shm_names)


def _worker_init(token: int) -> None:
    """Pool initializer: verify the fork-inherited payload arrived."""
    if token not in _PAYLOADS:  # pragma: no cover - fork guarantees it
        raise ProcPoolError(
            "worker has no fork-inherited run payload; the process "
            "backend requires the fork start method"
        )
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
        for child in sp.children:
            emit(child, idx)

    for root in rec.roots:
        emit(root, None)
    return out


def _worker_run(
    token: int, nid: int, entry: CachedValue, want_spans: bool
) -> Tuple[CachedValue, Dict[str, Any]]:
    """Execute one node in a worker; returns (encoded result, meta).

    ``meta`` carries the worker pid, fixpoint ``extra`` (iterations /
    converged), and — when the parent is tracing — the flattened span
    batch to replay into the parent recorder.
    """
    state = _WORKER_STATES.get(token)
    if state is None:  # _worker_init checked the payload arrived
        state = _WORKER_STATES[token] = _WorkerState(_PAYLOADS[token])
    graph = state.graph
    node = graph._nodes[nid]
    args = list(decode_transfer(entry, state.registry))
    pid = os.getpid()
    meta: Dict[str, Any] = {"pid": pid}
    # No session here: the store happens in the parent, on arrival.
    try:
        if want_spans:
            with _trace.scoped_recorder() as rec:
                value, extra = graph._execute_node(node, args, worker=f"pid-{pid}")
            meta["spans"] = _flatten_spans(rec)
        else:
            value, extra = graph._execute_node(node, args, worker=f"pid-{pid}")
    except CrossPAGError as exc:
        # The arguments are bound to attached twins, but a graph the pass
        # closed over is still the fork-inherited original: equal content,
        # two identities.  Only the coordinator, where both are one
        # object, can tell that from a real mixed-PAG error.
        raise NotTransferable(f"node {node.name!r} mixed graph identities: {exc}") from exc
    meta["extra"] = extra
    try:
        result = encode_transfer(value, state.fps)
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

    Publish on construction, pin/encode on :meth:`submit`, decode and
    fatal-triage on :meth:`finish`, unlink + metrics on :meth:`close`.
    """

    def __init__(self, state: "WavefrontState", jobs: int):
        self.state = state
        self.jobs = jobs
        self.want_spans = _trace.enabled()
        self.token = next(_TOKENS)
        # Created before anything is published (it forks lazily, at the
        # first submit), so no failure here can leave a segment behind.
        self.pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=get_context("fork"),
            initializer=_worker_init,
            initargs=(self.token,),
        )
        pags: Dict[str, PAG] = {}
        for value in state.inputs.values():
            collect_pags(value, pags)
        with _trace.span("procpool.publish", category="dataflow") as psp:
            self.segments = publish_pags(pags)
            self.shm_bytes = sum(shm.size for shm in self.segments.values())
            if psp:
                psp.set(pags=len(pags), segments=len(self.segments), bytes=self.shm_bytes)
        # Decode registry: published graphs by their live fingerprint (the
        # key workers rebind against is identical by construction).
        self.registry = {fp: pags[fp] for fp in self.segments}
        self.fps = frozenset(self.segments)
        _PAYLOADS[self.token] = _Payload(
            graph=state.graph,
            shm_names={fp: shm.name for fp, shm in self.segments.items()},
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
                entry = encode_transfer(tuple(state.resolve_args(nid)), self.fps)
                fut = self.pool.submit(
                    _worker_run, self.token, nid, entry, self.want_spans
                )
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
                self.transfer_bytes += entry.nbytes
                self.worker_tasks += 1
                return fut
        self._inline(nid)
        return None

    def _accept(self, nid: int, entry: CachedValue, meta: Dict[str, Any]) -> None:
        """Rebind a worker's result in the parent; may raise NotTransferable."""
        state = self.state
        node = state.nodes[nid]
        value = decode_transfer(entry, self.registry)
        self.transfer_bytes += entry.nbytes
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
        elif isinstance(exc, ShmAttachError):
            state.abort(exc)
        else:
            state.fail(nid, exc)

    def close(self) -> None:
        try:
            self.pool.shutdown()
        finally:
            _PAYLOADS.pop(self.token, None)
            unpublish_pags(self.segments)
        self.state.emit_metrics(self.jobs)
        _metrics.gauge("dataflow.procpool.jobs").set(self.jobs)
        _metrics.counter("dataflow.procpool.tasks").inc(self.worker_tasks)
        _metrics.counter("dataflow.procpool.inline").inc(self.inline_count)
        _metrics.counter("dataflow.procpool.shm_segments").inc(len(self.registry))
        _metrics.counter("dataflow.procpool.shm_bytes").inc(self.shm_bytes)
        _metrics.counter("dataflow.procpool.transfer_bytes").inc(self.transfer_bytes)
        if self.crashes:
            _metrics.counter("dataflow.procpool.crashes").inc(self.crashes)
