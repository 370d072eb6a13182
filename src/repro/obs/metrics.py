"""A process-global metrics registry: counters and gauges.

Metrics complement spans: a span tells you *when and how long*, a
metric aggregates *how often and how much* across the whole process —
cache hits and misses, transferred bytes, fixpoint non-convergence
events.  Durations are not metrics: the spans already record them, and
:func:`repro.obs.trace.summarize` turns the installed recorder's spans
into the per-name timing summary the exports carry as ``histograms``.
The registry is deliberately tiny (no labels, no time series) and
always on: an increment is one lock-guarded attribute add.

Thread-safety: counters take a per-metric lock around their
read-modify-write update — the parallel wavefront scheduler
(:mod:`repro.dataflow.scheduler`) bumps them from worker threads, and
an unguarded ``+=`` drops increments under contention.  Gauges are a
single attribute store (last write wins) and need no lock.

Naming convention: dotted lowercase, ``<layer>.<thing>[.<aspect>]`` —
``pag.load.header_only``, ``dataflow.fixpoint.nonconverged``.
The full table lives in ``docs/OBSERVABILITY.md``.

Export: :meth:`MetricsRegistry.to_dict` / :meth:`MetricsRegistry.save`
produce a stable JSON document; :meth:`MetricsRegistry.to_text` a
console table.  Use :func:`counter` / :func:`gauge` for the
process-global :data:`registry`, or instantiate a private
:class:`MetricsRegistry` in tests.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional, Union

from repro.obs.trace import summarize

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
]


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last write wins; a single atomic store)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Union[int, float, None] = None

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class MetricsRegistry:
    """Get-or-create store of named metrics.

    A name is bound to one metric kind for the registry's lifetime;
    asking for the same name as a different kind raises ``TypeError``
    (silent kind confusion would corrupt exported numbers).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls: type) -> Any:
        metric = self._metrics.get(name)
        if metric is not None:
            if type(metric) is not cls:
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}"
                )
            return metric
        with self._lock:
            metric = self._metrics.setdefault(name, cls(name))
        if type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every metric (tests; CLI runs start from a clean slate)."""
        with self._lock:
            self._metrics.clear()

    # -- export ------------------------------------------------------------
    def to_dict(self, spans: Any = None) -> Dict[str, Dict[str, Any]]:
        """Stable JSON-safe form, grouped by kind, names sorted.

        With ``spans`` (a span recorder) the document also carries
        ``histograms``: :func:`~repro.obs.trace.summarize` of it — the
        ``/metrics`` and ``--metrics FILE`` shape.
        """
        out: Dict[str, Dict[str, Any]] = {"counters": {}, "gauges": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            kind = "counters" if isinstance(metric, Counter) else "gauges"
            out[kind][name] = metric.value
        if spans is not None:
            out["histograms"] = summarize(spans)
        return out

    def save(self, path: str, spans: Any = None) -> int:
        """Write the JSON export (see :meth:`to_dict`); returns bytes written."""
        doc = json.dumps(self.to_dict(spans), indent=2, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        return len(doc)

    def to_text(self) -> str:
        """Console table of every counter and gauge."""
        lines = []
        data = self.to_dict()
        for name, value in data["counters"].items():
            lines.append(f"{name:40} counter   {value}")
        for name, value in data["gauges"].items():
            lines.append(f"{name:40} gauge     {value}")
        return "\n".join(lines)


#: The process-global registry used by all library instrumentation.
registry = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get-or-create a counter on the process-global :data:`registry`."""
    return registry.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the process-global :data:`registry`."""
    return registry.gauge(name)
