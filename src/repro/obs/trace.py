"""Span tracing: record *where PerFlow's own time goes*.

A **span** is one timed region of PerFlow's execution — a pipeline
node, a parallel-view construction phase, a simulated-run stage — with
a name, a category, a monotonic start/end, the recording thread, and
free-form ``args`` (set cardinalities, fixpoint iteration counts, byte
counts).  The span is the only thing :mod:`repro.obs` records: a ledger
record is a :func:`summarize` of a run's spans, a crash report is the
tail of them, and a ``repro.*`` warning is a zero-duration span of
category ``log``.

Spans nest: a span records its parent when it starts — the innermost
open span on its thread, or an explicit ``parent=`` for work fanned
out to other threads — and the tree is derived from those links when
it is read.

The module-level :func:`span` helper is what library code calls.  It is
engineered so that **disabled tracing is effectively free**: when no
recorder is installed it performs one global read, one identity check,
and returns a shared no-op span object — no allocation, no clock read,
no kwargs dict is ever inspected.  The overhead guard in
``benchmarks/test_obs_overhead.py`` holds this path, and the bounded
recorder every CLI process installs, to <2% of the LAMMPS
parallel-view paradigm.

Export formats:

* :meth:`SpanRecorder.to_chrome_trace` — the Chrome trace-event JSON
  format (``{"traceEvents": [{"ph": "X", "ts": …, "dur": …}, …]}``),
  loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Timestamps are microseconds relative to the
  first recorded span.
* :meth:`SpanRecorder.to_tree` — an indented console tree with
  durations and args, for quick terminal inspection.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "SpanRecorder",
    "NullRecorder",
    "NULL_SPAN",
    "span",
    "timed_span",
    "current_span",
    "enable",
    "disable",
    "enabled",
    "get_recorder",
    "set_recorder",
    "scoped_recorder",
    "summarize",
]


class Span:
    """One recorded region.  Created by :meth:`SpanRecorder.span`.

    Use as a context manager; inside the block, :meth:`set` attaches
    args (``sp.set(out_size=len(result))``).  ``duration`` is valid
    after exit (and live-reads while open).  ``pid`` is 0 for spans
    recorded in this process and the trace's pid for spans read back by
    :meth:`SpanRecorder.from_chrome_trace`.
    """

    __slots__ = (
        "name",
        "category",
        "args",
        "t_start",
        "t_end",
        "tid",
        "pid",
        "_recorder",
        "_parent",
    )

    def __init__(
        self,
        recorder: Optional["SpanRecorder"],
        name: str,
        category: Optional[str],
        args: Optional[Dict[str, Any]],
        parent: Optional["Span"] = None,
    ):
        self.name = name
        self.category = category
        self.args: Dict[str, Any] = dict(args) if args else {}
        self.t_start = 0.0
        self.t_end = 0.0
        self.tid = 0
        self.pid = 0
        self._recorder = recorder
        self._parent = parent

    # -- annotation --------------------------------------------------------
    def set(self, **args: Any) -> "Span":
        """Attach/overwrite args on the span (chainable)."""
        self.args.update(args)
        return self

    def __setitem__(self, key: str, value: Any) -> None:
        self.args[key] = value

    def __bool__(self) -> bool:
        """True — real spans are truthy, the null span is falsy, so hot
        code can guard expensive annotation with ``if sp: sp.set(…)``."""
        return True

    @property
    def duration(self) -> float:
        """Elapsed seconds (to *now* while the span is still open)."""
        end = self.t_end if self.t_end else time.perf_counter()
        return end - self.t_start if self.t_start else 0.0

    @property
    def children(self) -> List["Span"]:
        """The recorder's finished spans whose parent is this one, in
        start order (derived on read; see :meth:`SpanRecorder.tree`)."""
        if self._recorder is None:
            return []
        return self._recorder.tree()[1].get(self, [])

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "Span":
        self.tid = threading.get_ident()
        if self._recorder is not None:
            self._recorder._push(self)
        self.t_start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.t_end = time.perf_counter()
        if self._recorder is not None:
            self._recorder._pop(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, args={self.args})"


class _NullSpan:
    """Shared, falsy, no-op stand-in used when tracing is disabled.

    All methods are no-ops; a single instance is reused for every
    disabled ``span()`` call, so the disabled path never allocates.
    """

    __slots__ = ()

    def set(self, **args: Any) -> "_NullSpan":
        return self

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    @property
    def duration(self) -> float:
        return 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


#: The singleton no-op span returned while tracing is disabled.
NULL_SPAN = _NullSpan()


def _start(sp: Span) -> float:
    return sp.t_start


class SpanRecorder:
    """Finished spans — all of them, or only the newest ``capacity``.

    Finished spans go into one deque with ``maxlen=capacity``: that is
    the ring a bounded recorder is (the flight recorder,
    :mod:`repro.obs.flight`), and ``capacity=None`` keeps everything
    (the ``--trace`` recorder).  No span holds a child list; the
    nesting is derived from parent links on read (:meth:`tree`), so a
    root held open across any number of children pins nothing.

    Open spans sit in per-thread stacks in a plain dict keyed by thread
    id, so another thread — or a crash / SIGUSR2 dump — can list what
    each thread is doing; only the owning thread mutates its stack.
    Writers append under ``_lock``.  Readers never take it: copying the
    deque or the dict is one C-level call under the GIL, so a dump
    from a signal handler that interrupted a writer cannot deadlock.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Spans ever finished (exceeds ``len()`` once a bounded ring wraps).
        self.total = 0
        self._done: Deque[Span] = deque(maxlen=capacity)
        self._open: Dict[int, List[Span]] = {}
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def span(
        self,
        name: str,
        category: Optional[str] = None,
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Create a span attached to this recorder (enter to start it).

        ``parent`` overrides the thread-local nesting: the span becomes
        that span's child regardless of which thread enters it (used
        for cross-thread parenting of scheduler worker spans).
        """
        return Span(self, name, category, args, parent=parent)

    def _push(self, sp: Span) -> None:
        stack = self._open.get(sp.tid)
        if stack is None:
            self._open[sp.tid] = [sp]
            return
        if sp._parent is None:
            sp._parent = stack[-1]
        stack.append(sp)

    def _pop(self, sp: Span) -> None:
        stack = self._open.get(sp.tid)
        if stack:
            if stack[-1] is sp:
                stack.pop()
            elif sp in stack:  # unbalanced exit: drop the match, not the top
                stack.remove(sp)
            if not stack:
                del self._open[sp.tid]
        self._finish(sp)

    def _finish(self, sp: Span) -> None:
        with self._lock:
            self._done.append(sp)
            self.total += 1

    def current(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = self._open.get(threading.get_ident())
        return stack[-1] if stack else None

    def log(self, name: str, message: str, level: str = "WARNING") -> Span:
        """Record a log line as a zero-duration span of category ``log``,
        nested under the calling thread's innermost open span."""
        sp = Span(self, name, "log", {"level": level, "message": message})
        sp.tid = threading.get_ident()
        stack = self._open.get(sp.tid)
        if stack:
            sp._parent = stack[-1]
        sp.t_start = sp.t_end = time.perf_counter()
        self._finish(sp)
        return sp

    def record_completed(
        self,
        name: str,
        category: Optional[str] = None,
        parent: Optional[Span] = None,
        args: Optional[Dict[str, Any]] = None,
        t_start: float = 0.0,
        t_end: float = 0.0,
        tid: int = 0,
    ) -> Span:
        """Insert an already-finished span (timestamps supplied).

        The merge path for work measured outside this recorder — the
        process backend replays each worker's span batch into the
        parent trace with this, parenting the batch under the pipeline
        span and tagging ``tid`` with the worker's pid.  ``t_start`` /
        ``t_end`` are ``perf_counter`` readings; on platforms where
        that clock is system-wide (``CLOCK_MONOTONIC`` on Linux) they
        line up with the parent's own spans in the exported trace.
        Never touches the open-span stacks, so it is safe to call while
        other spans are open.
        """
        sp = Span(self, name, category, args, parent=parent)
        sp.t_start = t_start
        sp.t_end = t_end
        sp.tid = tid
        self._finish(sp)
        return sp

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._done)

    @property
    def spans(self) -> List[Span]:
        """The retained finished spans, in start order."""
        return sorted(self._done, key=_start)

    def find(self, name: str) -> List[Span]:
        """All retained spans with exactly this name, in start order."""
        return [s for s in self.spans if s.name == name]

    def open_spans(self) -> Dict[int, List[Span]]:
        """Open spans per thread id, outermost first (a copy)."""
        return {tid: list(stack) for tid, stack in list(self._open.items()) if stack}

    def tree(self) -> Tuple[List[Span], Dict[Span, List[Span]]]:
        """``(roots, children)`` of the retained spans, both in start
        order.  A span whose parent is not retained — still open, or
        pushed out of a bounded ring — is a root."""
        spans = self.spans
        kept = set(spans)
        roots: List[Span] = []
        children: Dict[Span, List[Span]] = {}
        for sp in spans:
            parent = sp._parent
            if parent is not None and parent in kept:
                children.setdefault(parent, []).append(sp)
            else:
                roots.append(sp)
        return roots, children

    @property
    def roots(self) -> List[Span]:
        return self.tree()[0]

    # -- export ------------------------------------------------------------
    def to_chrome_trace(
        self,
        process_name: str = "repro",
        metrics: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The Chrome trace-event document (Perfetto-loadable).

        One complete event (``"ph": "X"``) per span, timestamps in
        microseconds relative to the earliest span start, plus process
        and thread name metadata events.  Thread ids are compacted to
        small integers in first-seen order.

        The current metrics snapshot rides along as one extra metadata
        event (``"name": "perflow_metrics"``) so a single Perfetto file
        carries both signals.  ``metrics`` overrides the snapshot (a
        :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` document);
        by default the process-global registry is used.  The event is
        omitted entirely when the snapshot is empty, and the export is
        byte-stable for identical spans + snapshot (metric names are
        sorted, ordering is deterministic).
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        spans = self.spans
        t0 = spans[0].t_start if spans else 0.0
        tid_map: Dict[int, int] = {}
        for s in spans:
            tid = tid_map.setdefault(s.tid, len(tid_map))
            event: Dict[str, Any] = {
                "name": s.name,
                "cat": s.category or "repro",
                "ph": "X",
                "ts": round((s.t_start - t0) * 1e6, 3),
                "dur": round((s.t_end - s.t_start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
            }
            if s.args:
                event["args"] = _json_args(s.args)
            events.append(event)
        for ident, tid in tid_map.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"thread-{tid} ({ident})"},
                }
            )
        snapshot = metrics
        if snapshot is None:
            from repro.obs.metrics import registry as _registry

            snapshot = _registry.to_dict()
        if any(snapshot.get(k) for k in ("counters", "gauges")):
            events.append(
                {
                    "name": "perflow_metrics",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"metrics": snapshot},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    @classmethod
    def from_chrome_trace(cls, doc: Any) -> "SpanRecorder":
        """Rebuild a recorder from a Chrome trace-event document.

        The one reader of trace documents (``repro obs analyze`` and
        :mod:`repro.obs.selfpag` both use it), and the lossy inverse of
        :meth:`to_chrome_trace`: timestamps come back as seconds
        re-based at the export origin, ``tid`` / ``pid`` are the
        document's, and nesting is recovered by interval containment
        per ``(pid, tid)`` track — which holds for traces from other
        Chrome-trace emitters too.  ``doc`` is the document or its
        bare event list; anything else raises ``ValueError``.
        """
        events = doc.get("traceEvents") if isinstance(doc, dict) else doc
        if not isinstance(events, list):
            raise ValueError("not a Chrome trace-event document (no 'traceEvents' key)")
        tracks: Dict[Tuple[Any, Any], List[Dict[str, Any]]] = {}
        for ev in events:
            if ev.get("ph") == "X" and isinstance(ev.get("ts"), (int, float)):
                tracks.setdefault((ev.get("pid", 0), ev.get("tid", 0)), []).append(ev)
        rec = cls()
        for pid, tid in sorted(tracks, key=str):
            # Start ascending, an enclosing span before the children it
            # contains (longer first on a tie): a stack of open spans
            # rebuilds the nesting.
            evs = sorted(
                tracks[(pid, tid)], key=lambda e: (e["ts"], -float(e.get("dur", 0.0)))
            )
            stack: List[Tuple[Span, float]] = []  # (span, end in µs)
            for ev in evs:
                ts = float(ev["ts"])
                dur = float(ev.get("dur", 0.0))
                while stack and ts >= stack[-1][1] - 1e-9:
                    stack.pop()
                sp = Span(
                    rec,
                    str(ev.get("name", "?")),
                    ev.get("cat"),
                    ev.get("args"),
                    parent=stack[-1][0] if stack else None,
                )
                sp.t_start = ts / 1e6
                sp.t_end = sp.t_start + dur / 1e6
                sp.tid, sp.pid = tid, pid
                rec._finish(sp)
                stack.append((sp, ts + dur))
        return rec

    def save(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write the Chrome trace-event JSON; returns bytes written."""
        doc = json.dumps(self.to_chrome_trace(), indent=1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        return len(doc)

    def to_tree(self, min_ms: float = 0.0) -> str:
        """Indented console tree: durations, names, args.

        ``min_ms`` hides spans shorter than the threshold (their
        children are hidden with them).
        """
        roots, children = self.tree()
        lines: List[str] = []

        def render(sp: Span, depth: int) -> None:
            ms = (sp.t_end - sp.t_start) * 1e3
            if ms < min_ms:
                return
            args = ""
            if sp.args:
                args = "  " + " ".join(f"{k}={v}" for k, v in sp.args.items())
            lines.append(f"{'  ' * depth}{ms:9.3f} ms  {sp.name}{args}")
            for child in children.get(sp, ()):
                render(child, depth + 1)

        for root in roots:
            render(root, 0)
        return "\n".join(lines)


def _json_args(args: Dict[str, Any]) -> Dict[str, Any]:
    """Args coerced to JSON-safe values (repr() for anything exotic)."""
    out: Dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool, type(None))):
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def summarize(recorder: Any) -> Dict[str, Dict[str, float]]:
    """Duration summary of ``recorder``'s retained spans, per span name.

    ``{name: {count, sum, min, max, mean, p50, p95, p99}}`` in seconds.
    Quantiles are exact, interpolated linearly between order statistics
    (``statistics.quantiles(..., method="inclusive")``).  A bounded
    recorder summarizes its window — the newest ``capacity`` spans —
    and a :class:`NullRecorder` has none.  The ring is copied without
    the lock, as a crash report does, so a signal handler may call this.
    """
    durations: Dict[str, List[float]] = {}
    for sp in list(getattr(recorder, "_done", ())):
        durations.setdefault(sp.name, []).append(sp.t_end - sp.t_start)
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(durations):
        xs = sorted(durations[name])
        n, total = len(xs), sum(xs)
        summ = {"count": n, "sum": total, "min": xs[0], "max": xs[-1], "mean": total / n}
        for key, p in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            pos = p * (n - 1)
            lo = int(pos)
            summ[key] = xs[lo] + (pos - lo) * (xs[min(lo + 1, n - 1)] - xs[lo])
        out[name] = summ
    return out


class NullRecorder:
    """The disabled-mode recorder: every span is :data:`NULL_SPAN`."""

    def span(
        self,
        name: str,
        category: Optional[str] = None,
        parent: Optional[Span] = None,
        **args: Any,
    ) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


_NULL_RECORDER = NullRecorder()
_recorder: Union[SpanRecorder, NullRecorder] = _NULL_RECORDER


# ----------------------------------------------------------------------
# module-level API (what library code calls)
# ----------------------------------------------------------------------
def span(
    name: str,
    category: Optional[str] = None,
    parent: Optional[Span] = None,
    **args: Any,
):
    """A span on the installed recorder — or the shared no-op when
    tracing is disabled.  This is the instrumentation entry point::

        with obs.span("pv.flows", category="pag", flows=n) as sp:
            ...
            sp.set(edges=pv.num_edges)

    ``parent`` (a :class:`Span`) pins the new span under an explicit
    parent across threads; passing the falsy :data:`NULL_SPAN` or
    ``None`` keeps the default per-thread nesting.
    """
    rec = _recorder
    if rec is _NULL_RECORDER:
        return NULL_SPAN
    if parent is not None and not isinstance(parent, Span):
        parent = None  # NULL_SPAN / foreign objects: thread-local nesting
    return rec.span(name, category, parent=parent, **args)


def timed_span(name: str, category: Optional[str] = None, **args: Any) -> Span:
    """Like :func:`span`, but *always* measures wall time.

    For call sites that consume ``sp.duration`` themselves (e.g.
    ``static_analysis`` reporting its measured cost): when tracing is
    enabled the span lands in the trace as usual; when disabled a
    fresh unrecorded span still times the block.
    """
    rec = _recorder
    if rec is _NULL_RECORDER:
        return Span(None, name, category, args)
    return rec.span(name, category, **args)


def current_span() -> Union[Span, _NullSpan, None]:
    """The innermost open span on this thread (None/disabled-safe)."""
    return _recorder.current()


def get_recorder() -> Union[SpanRecorder, NullRecorder]:
    return _recorder


def set_recorder(recorder: Union[SpanRecorder, NullRecorder, None]) -> None:
    """Install ``recorder`` (None restores the disabled null recorder)."""
    global _recorder
    _recorder = recorder if recorder is not None else _NULL_RECORDER


def enable(recorder: Optional[SpanRecorder] = None) -> SpanRecorder:
    """Install (and return) a recorder; a fresh unbounded one if none
    is given."""
    rec = recorder if recorder is not None else SpanRecorder()
    set_recorder(rec)
    return rec


def disable() -> Union[SpanRecorder, NullRecorder]:
    """Restore the null recorder; returns the previously installed one."""
    prev = _recorder
    set_recorder(None)
    return prev


def enabled() -> bool:
    return _recorder is not _NULL_RECORDER


class scoped_recorder:
    """Context manager: install a fresh recorder, restore on exit.

    ::

        with obs.scoped_recorder() as rec:
            run_workload()
        rec.save("trace.json")
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None):
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self._prev: Union[SpanRecorder, NullRecorder, None] = None

    def __enter__(self) -> SpanRecorder:
        self._prev = _recorder
        set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc: Any) -> None:
        set_recorder(self._prev)
