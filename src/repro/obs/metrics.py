"""A process-global metrics registry: counters, gauges, histograms.

Metrics complement spans: a span tells you *when and how long*, a
metric aggregates *how often and how much* across the whole process —
cache hits and misses, serialized bytes, fixpoint non-convergence
events.  The registry is deliberately tiny (no labels, no time series)
and always on: an increment is one lock-guarded attribute add.

Thread-safety: counters and histograms take a per-metric lock around
their read-modify-write updates — the parallel wavefront scheduler
(:mod:`repro.dataflow.scheduler`) bumps them from worker threads, and
an unguarded ``+=`` drops increments under contention.  Gauges are a
single attribute store (last write wins) and need no lock.

Naming convention: dotted lowercase, ``<layer>.<thing>[.<aspect>]`` —
``pag.load.header_only``, ``pag.save.bytes``, ``dataflow.fixpoint.nonconverged``.
The full table lives in ``docs/OBSERVABILITY.md``.

Export: :meth:`MetricsRegistry.to_dict` / :meth:`MetricsRegistry.save`
produce a stable JSON document; :meth:`MetricsRegistry.to_text` a
console table.  Use :func:`counter` / :func:`gauge` / :func:`histogram`
for the process-global :data:`registry`, or instantiate a private
:class:`MetricsRegistry` in tests.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Dict, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
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


class _P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac).

    Five markers track (min, p/2, p, (1+p)/2, max); each observation
    shifts marker positions and adjusts interior heights with a
    piecewise-parabolic fit.  O(1) per observation, deterministic (no
    sampling), and exact for the first five values — the regression
    detector compares quantiles across runs, so a randomized reservoir
    would add cross-run noise exactly where stability matters.
    """

    __slots__ = ("p", "_q", "_n", "_npos", "_dn")

    def __init__(self, p: float):
        self.p = p
        self._q: list = []  # marker heights (sorted while warming up)
        self._n = [0.0, 1.0, 2.0, 3.0, 4.0]  # actual marker positions
        self._npos = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]  # desired positions
        self._dn = (0.0, p / 2, p, (1 + p) / 2, 1.0)

    def observe(self, x: float) -> None:
        q = self._q
        if len(q) < 5:
            bisect.insort(q, x)
            return
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        n, npos = self._n, self._npos
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            npos[i] += self._dn[i]
        for i in (1, 2, 3):
            d = npos[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if d > 0 else -1.0
                # piecewise-parabolic prediction, linear fallback when it
                # would leave the bracketing markers
                qp = q[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                if not (q[i - 1] < qp < q[i + 1]):
                    j = i + (1 if d > 0 else -1)
                    qp = q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
                q[i] = qp
                n[i] += d

    @property
    def value(self) -> float:
        q = self._q
        if not q:
            return 0.0
        if len(q) < 5:
            # exact (linear-interpolated) quantile over the warm-up buffer
            pos = self.p * (len(q) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(q) - 1)
            return q[lo] + (pos - lo) * (q[hi] - q[lo])
        return q[2]


#: Quantiles every histogram estimates (key in summary() -> probability).
QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


class Histogram:
    """Streaming summary of observed values: count/sum/min/max/mean plus
    p50/p95/p99 tail estimates.

    No buckets — the consumers here (CI artifacts, the self-analysis
    report, the run-ledger regression detector) want summary statistics
    and tail latencies, and a bucketed histogram would be the first
    thing to cut from a hot path.  Quantiles are P² streaming estimates
    (:class:`_P2Quantile`): O(1) per observation, deterministic, exact
    below five observations.  Thread-safe: the multi-field update is
    atomic under a per-histogram lock.
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "_quantiles", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self._quantiles = tuple(_P2Quantile(p) for _, p in QUANTILES)
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value
            for est in self._quantiles:
                est.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, p: float) -> float:
        """The estimate for one of the tracked quantiles (0.5/0.95/0.99)."""
        for est in self._quantiles:
            if est.p == p:
                return est.value
        raise KeyError(f"histogram {self.name!r} does not track p={p}")

    def summary(self) -> Dict[str, float]:
        if not self.count:
            out = {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
            out.update({key: 0.0 for key, _ in QUANTILES})
            return out
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
        }
        out.update(
            {key: est.value for (key, _), est in zip(QUANTILES, self._quantiles)}
        )
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.6g})"


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


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

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

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
    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Stable JSON-safe form, grouped by kind, names sorted."""
        out: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.summary()
        return out

    def save(self, path: str) -> int:
        """Write the JSON export; returns bytes written."""
        doc = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        return len(doc)

    def to_text(self) -> str:
        """Console table of every metric."""
        lines = []
        data = self.to_dict()
        for name, value in data["counters"].items():
            lines.append(f"{name:40} counter   {value}")
        for name, value in data["gauges"].items():
            lines.append(f"{name:40} gauge     {value}")
        for name, summ in data["histograms"].items():
            lines.append(
                f"{name:40} histogram n={summ['count']} sum={summ['sum']:.6g} "
                f"min={summ['min']:.6g} max={summ['max']:.6g} mean={summ['mean']:.6g} "
                f"p50={summ['p50']:.6g} p95={summ['p95']:.6g} p99={summ['p99']:.6g}"
            )
        return "\n".join(lines)


#: The process-global registry used by all library instrumentation.
registry = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get-or-create a counter on the process-global :data:`registry`."""
    return registry.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the process-global :data:`registry`."""
    return registry.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create a histogram on the process-global :data:`registry`."""
    return registry.histogram(name)
