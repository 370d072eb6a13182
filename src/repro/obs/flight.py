"""The flight recorder: a bounded span recorder, and what dumps it.

The flight recorder is a :class:`~repro.obs.trace.SpanRecorder` capped
at its last :data:`DEFAULT_CAPACITY` finished spans — the same spans a
``--trace`` file holds, in a ring cheap enough to leave on for every
CLI invocation (budget: the same <2% guard as disabled tracing,
enforced in ``benchmarks/test_obs_overhead.py``).  :func:`enable`
installs it as *the* process recorder; ``capacity=None`` installs the
unbounded ``--trace`` recorder instead, with the same dumps.  ``repro.*``
warnings and errors are recorded into whichever recorder is installed
as zero-duration spans of category ``log``, so they show up in crash
reports and ``--trace`` files alike.

This module holds what turns that recorder into a post-mortem:

* :func:`crash_report` — the report document (schema 2): the last
  :data:`DEFAULT_CAPACITY` finished spans, each thread's open spans
  ("what it was doing"), the metrics snapshot and the exception, with
  one wall/monotonic anchor pair for the whole report;
* :func:`dump_crash_report` — the atomic write under
  ``$PERFLOW_CRASH_DIR`` (default ``.perflow/``); ``repro.cli.main``
  calls it on an unhandled exception;
* :func:`install_signal_dump` — ``kill -USR2 <pid>`` dumps a live
  report without stopping the process.  The handler runs between two
  bytecodes of the main thread, possibly while that thread holds the
  recorder's write lock; building a report never takes it.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import sys
import time
import traceback as _traceback
from typing import Any, Dict, Optional, Union

from repro.obs import trace as _trace
from repro.obs.trace import Span, SpanRecorder

__all__ = [
    "enable",
    "disable",
    "crash_dir",
    "crash_report",
    "dump_crash_report",
    "install_signal_dump",
    "uninstall_signal_dump",
    "ENV_CRASH_DIR",
    "DEFAULT_CAPACITY",
]

#: Environment override for where crash reports land.
ENV_CRASH_DIR = "PERFLOW_CRASH_DIR"

#: Finished spans a bounded recorder keeps, and a crash report lists.
DEFAULT_CAPACITY = 2048

#: Crash-report schema version.
SCHEMA = 2


class _LogHandler(logging.Handler):
    """Records ``repro.*`` log records as ``log`` spans in the installed
    recorder."""

    def emit(self, record: logging.LogRecord) -> None:
        rec = _trace.get_recorder()
        if isinstance(rec, SpanRecorder):
            try:
                rec.log(record.name, record.getMessage(), record.levelname)
            except Exception:  # pragma: no cover - never break the caller
                pass


_log_handler: Optional[_LogHandler] = None
_prev_sigusr2: Any = None
_signal_installed = False


def crash_dir() -> str:
    """Where crash reports go: ``$PERFLOW_CRASH_DIR`` or ``.perflow``."""
    return os.environ.get(ENV_CRASH_DIR) or ".perflow"


def enable(capacity: Optional[int] = DEFAULT_CAPACITY) -> SpanRecorder:
    """Install (and return) the process recorder, keeping the newest
    ``capacity`` finished spans (None: all of them), and record
    ``repro.*`` warnings into it."""
    global _log_handler
    rec = _trace.enable(SpanRecorder(capacity))
    if _log_handler is None:
        _log_handler = _LogHandler(level=logging.WARNING)
        logging.getLogger("repro").addHandler(_log_handler)
    return rec


def disable() -> Union[SpanRecorder, _trace.NullRecorder]:
    """Uninstall the recorder, the log handler and the SIGUSR2 dump;
    returns the recorder."""
    global _log_handler
    if _log_handler is not None:
        logging.getLogger("repro").removeHandler(_log_handler)
        _log_handler = None
    uninstall_signal_dump()
    return _trace.disable()


def _span_doc(sp: Span, now: float) -> Dict[str, Any]:
    end = sp.t_end if sp.t_end else now  # open spans: elapsed so far
    doc: Dict[str, Any] = {
        "name": sp.name,
        "cat": sp.category or "repro",
        "tid": sp.tid,
        "start": round(sp.t_start, 6),
        "dur": round(max(0.0, end - sp.t_start), 6),
    }
    if sp.args:
        doc["args"] = _trace._json_args(sp.args)
    return doc


def crash_report(
    recorder: SpanRecorder, reason: str, exc: Optional[BaseException] = None
) -> Dict[str, Any]:
    """The post-mortem document for ``recorder`` (schema 2).

    ``spans`` are the last :data:`DEFAULT_CAPACITY` finished spans in
    finish order and ``open_spans`` each thread's open stack, outermost
    first.  ``start`` is a ``perf_counter`` reading: its wall-clock time
    is ``anchor.wall + start - anchor.mono``.  ``dur`` comes from the
    monotonic clock only, so a stepped system clock cannot make it
    negative.  Takes no lock (see the module docstring).
    """
    import platform

    from repro.obs.metrics import registry as _metrics_registry

    done = list(recorder._done)[-DEFAULT_CAPACITY:]
    open_spans = recorder.open_spans()
    mono = time.perf_counter()
    exc_doc: Optional[Dict[str, Any]] = None
    if exc is not None:
        exc_doc = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        }
    return {
        "schema": SCHEMA,
        "reason": reason,
        "anchor": {"wall": time.time(), "mono": round(mono, 6)},
        "pid": os.getpid(),
        "argv": list(sys.argv),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "exception": exc_doc,
        "capacity": recorder.capacity,
        "spans_total": recorder.total,
        "spans": [_span_doc(sp, mono) for sp in done],
        "open_spans": {
            str(tid): [_span_doc(sp, mono) for sp in stack]
            for tid, stack in sorted(open_spans.items())
        },
        "metrics": _metrics_registry.to_dict(),
    }


def dump_crash_report(
    recorder: SpanRecorder,
    directory: Union[str, "os.PathLike[str]", None] = None,
    reason: str = "crash",
    exc: Optional[BaseException] = None,
) -> str:
    """Write ``recorder``'s crash report atomically; returns the path.

    ``directory`` defaults to :func:`crash_dir`.  The write goes
    through a temp file + ``os.replace`` so a reader never sees a
    torn report, and the filename embeds pid + nanosecond time so
    concurrent processes never collide.
    """
    root = os.fspath(directory) if directory is not None else crash_dir()
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, f"crash-{reason}-{os.getpid()}-{time.time_ns()}.json")
    doc = json.dumps(crash_report(recorder, reason, exc), indent=1, sort_keys=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(doc)
    os.replace(tmp, path)
    return path


def install_signal_dump(
    directory: Union[str, "os.PathLike[str]", None] = None,
) -> bool:
    """Dump the installed recorder's crash report on SIGUSR2.

    Returns True when the handler was installed; False on platforms
    without SIGUSR2 (Windows) or off the main thread, where Python
    forbids ``signal.signal``.  The previous handler is restored by
    :func:`uninstall_signal_dump` (called from :func:`disable`).
    """
    global _prev_sigusr2, _signal_installed
    if not hasattr(signal, "SIGUSR2"):
        return False

    def _on_sigusr2(signum: int, frame: Any) -> None:
        rec = _trace.get_recorder()
        if isinstance(rec, SpanRecorder):
            try:
                dump_crash_report(rec, directory, reason="sigusr2")
            except OSError:  # pragma: no cover - unwritable dump dir
                pass

    try:
        _prev_sigusr2 = signal.signal(signal.SIGUSR2, _on_sigusr2)
    except ValueError:  # not the main thread
        return False
    _signal_installed = True
    return True


def uninstall_signal_dump() -> None:
    """Restore the pre-install SIGUSR2 disposition (no-op otherwise)."""
    global _prev_sigusr2, _signal_installed
    if not _signal_installed:
        return
    try:
        signal.signal(
            signal.SIGUSR2,
            _prev_sigusr2 if _prev_sigusr2 is not None else signal.SIG_DFL,
        )
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    _prev_sigusr2 = None
    _signal_installed = False
