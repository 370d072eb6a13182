"""``repro.obs`` — observability for PerFlow's own execution.

PerFlow's premise is that performance analysis should be automated and
graph-shaped; this package applies that premise to PerFlow itself.
Three small, dependency-free layers:

* :mod:`repro.obs.trace` — span tracing.  Library code wraps its phases
  in ``with obs.span("pv.flows", flows=n):`` blocks; when tracing is
  disabled (the default) a span costs one global read and returns a
  shared no-op object, and when enabled the recorder captures a
  monotonic start/end, thread id, nesting, and free-form args.
  Recorders export Chrome trace-event JSON (loadable in Perfetto /
  ``chrome://tracing``) and a pretty console tree.
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges, and histograms with JSON export (columnar fast/slow path
  hits, serialized bytes, fixpoint non-convergence, …).
* :mod:`repro.obs.log` — the ``logging.getLogger("repro.…")`` hierarchy
  so library code never prints to stdout directly; the CLI's
  ``--verbose``/``-q`` flags configure it.

Closing the loop, :mod:`repro.obs.selfpag` converts a recorded trace
into a PAG so the existing hotspot/imbalance passes run on PerFlow's
own execution (``repro obs analyze trace.json``).

Typical use::

    from repro import obs

    rec = obs.enable()                  # install a recorder
    ...                                  # run any PerFlow workload
    obs.disable()
    rec.save("trace.json")              # Chrome trace-event JSON
    print(rec.to_tree())                # console tree
    obs.metrics.registry.save("metrics.json")
"""

from __future__ import annotations

from repro.obs import flight, ledger, log, metrics, trace
from repro.obs.flight import FlightRecorder
from repro.obs.ledger import Ledger, build_run_record
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.trace import (
    NULL_SPAN,
    NullRecorder,
    Span,
    SpanRecorder,
    current_span,
    disable,
    enable,
    enabled,
    get_recorder,
    scoped_recorder,
    set_recorder,
    span,
    timed_span,
    traced,
)

__all__ = [
    "flight",
    "ledger",
    "log",
    "metrics",
    "trace",
    "FlightRecorder",
    "Ledger",
    "build_run_record",
    "configure_logging",
    "get_logger",
    "MetricsRegistry",
    "registry",
    "NULL_SPAN",
    "NullRecorder",
    "Span",
    "SpanRecorder",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "get_recorder",
    "scoped_recorder",
    "set_recorder",
    "span",
    "timed_span",
    "traced",
]
