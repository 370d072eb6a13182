"""Bench-side spans: name, start, end, parent, workload — kept in memory.

The benchmark measures ``src/repro`` from outside, so spans are recorded
here, around calls into each layer's public functions, never inside the
program.  :func:`instrument` wraps module attributes for the duration of
a replay so the program's own call order is preserved; a layer's *self
time* is its span minus the part its child spans cover, which makes the
self times of one replay add up to the root span exactly.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """Span recorder for one workload run (single-threaded use)."""

    def __init__(self, workload: str):
        self.workload = workload
        #: ``[name, start_s, end_s, parent_index_or_None]`` per span
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None) -> int:
        """Record a span from timestamps taken elsewhere (client threads)."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def self_ms(self) -> Dict[str, float]:
        """Self time per span name, summed over occurrences, in ms."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _parent), child_s in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start - child_s) * 1000.0
        return out

    def durations_ms(self, name: str) -> List[float]:
        return [(e - s) * 1000.0 for n, s, e, _p in self.spans if n == name]

    def to_json(self) -> List[Dict[str, Any]]:
        """Spans as dicts, times in ms relative to the first span."""
        if not self.spans:
            return []
        t0 = min(s[1] for s in self.spans)
        return [
            {
                "id": i,
                "name": name,
                "start_ms": round((start - t0) * 1000.0, 3),
                "end_ms": round((end - t0) * 1000.0, 3),
                "parent": parent,
                "workload": self.workload,
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


#: ``(module, attribute, span name, on_result)``; ``on_result(value)`` lets
#: a target record counts at the boundary where the work happens.
Target = Tuple[str, str, str, Optional[Callable[[Any], None]]]


@contextmanager
def instrument(tracer: Tracer, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap each ``module.attribute`` in a span; restore on exit.

    The attribute is the name the *caller's* module looks up at call
    time (e.g. ``repro.dataflow.api.run_program``), so the program runs
    its own code path and only the boundary is timed.
    """
    saved = []
    try:
        for module_name, attr, span_name, on_result in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(tracer, original, span_name, on_result))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def wrap(tracer: Tracer, fn: Callable, span_name: str, on_result=None) -> Callable:
    """``fn`` timed as one ``span_name`` span per call."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(span_name):
            value = fn(*args, **kwargs)
        if on_result is not None:
            on_result(value)
        return value

    return wrapper
