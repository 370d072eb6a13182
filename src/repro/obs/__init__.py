"""``repro.obs`` — observability for PerFlow's own execution.

PerFlow's premise is that performance analysis should be automated and
graph-shaped; this package applies that premise to PerFlow itself.  It
records one thing, the **span**, and everything else reads spans:

* :mod:`repro.obs.trace` — span tracing.  Library code wraps its phases
  in ``with obs.span("pv.flows", flows=n):`` blocks; when tracing is
  disabled (the default) a span costs one global read and returns a
  shared no-op object, and when a :class:`SpanRecorder` is installed it
  captures a monotonic start/end, thread id, parent, and free-form
  args.  Recorders export Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) and a pretty console tree.
* :mod:`repro.obs.flight` — the flight recorder: a recorder bounded to
  its newest spans, installed by every CLI invocation, which a crash
  or SIGUSR2 dumps as a crash report; ``repro.*`` warnings land in it
  as ``log`` spans.
* :mod:`repro.obs.ledger` — the run ledger: one record per
  ``run``/``paradigm`` invocation, rolled up from the run's spans, with
  noise-aware regression detection over the history.
* :mod:`repro.obs.selfpag` — a recorded trace turned into a PAG, so the
  existing hotspot/imbalance passes run on PerFlow's own execution
  (``repro obs analyze trace.json``).
* :mod:`repro.obs.metrics` — a process-global registry of counters and
  gauges with JSON export (cache hits, fixpoint non-convergence, …);
  timing summaries come from the spans (:func:`trace.summarize`).
* :mod:`repro.obs.log` — the ``logging.getLogger("repro.…")`` hierarchy
  so library code never prints to stdout directly; the CLI's
  ``--verbose``/``-q`` flags configure it.

Typical use::

    from repro import obs

    rec = obs.enable()                  # install a recorder
    ...                                  # run any PerFlow workload
    obs.disable()
    rec.save("trace.json")              # Chrome trace-event JSON
    print(rec.to_tree())                # console tree
    obs.metrics.registry.save("metrics.json", spans=rec)
"""

from __future__ import annotations

from repro.obs import flight, ledger, log, metrics, trace
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
)

__all__ = [
    "flight",
    "ledger",
    "log",
    "metrics",
    "trace",
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
]
