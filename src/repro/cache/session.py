"""Per-run cache integration for PerFlowGraph execution.

One :class:`CacheSession` exists per :meth:`PerFlowGraph.run` call with
caching enabled.  It owns the run-local state the store layer needs:

* the **registry** (PAG fingerprint → live graph) that cached set
  references are re-bound against, populated as input values are
  digested;
* the per-node **key memo** — a node's key is computed once (on probe)
  and reused for the store after a miss, including by the wavefront
  scheduler where probe happens on the coordinator thread and store on
  a worker;
* the hit/miss/uncacheable counters mirrored to the metrics registry
  (``dataflow.cache.hits`` / ``.misses`` / ``.bytes`` /
  ``.uncacheable``).

Probe and store never raise: any failure inside the cache machinery
degrades to "execute the node" (probe) or "don't store" (store), with
a debug log — a cache must never turn a working pipeline into a
broken one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cache.keys import Uncacheable, node_key, pass_identity, value_digest
from repro.cache.store import CacheMiss, PassCache, decode_value, encode_value
from repro.obs import metrics as _metrics
from repro.obs.log import get_logger

__all__ = ["CacheSession"]

_LOG = get_logger("cache.session")


class CacheSession:
    """Cache state scoped to one pipeline run."""

    def __init__(self, cache: PassCache):
        self.cache = cache
        #: fingerprint -> live PAG, collected from digested input values.
        self.registry: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        self.stored_bytes = 0
        self._keys: Dict[int, Optional[str]] = {}
        self._identities: Dict[int, str] = {}

    # -- key construction --------------------------------------------------
    def _identity(self, fn: Any) -> str:
        # fn objects are pinned by the graph for the whole run, so id()
        # cannot be recycled while this memo is alive.
        ident = self._identities.get(id(fn))
        if ident is None:
            ident = pass_identity(fn)
            self._identities[id(fn)] = ident
        return ident

    def _compute_key(self, node: Any, args: List[Any]) -> Optional[str]:
        nid = node.node_id
        if nid in self._keys:
            return self._keys[nid]
        key: Optional[str] = None
        if node.fn is not None and getattr(node, "cacheable", True):
            try:
                identity = self._identity(node.fn)
                digests = [value_digest(a, self.registry) for a in args]
                key = node_key(node.kind, identity, digests, node.max_iters)
            except Uncacheable as exc:
                self.uncacheable += 1
                _metrics.counter("dataflow.cache.uncacheable").inc()
                _LOG.debug("node %r uncacheable: %s", node.name, exc)
        else:
            self.uncacheable += 1
            _metrics.counter("dataflow.cache.uncacheable").inc()
        self._keys[nid] = key
        return key

    # -- probe / store -----------------------------------------------------
    def probe(self, node: Any, args: List[Any]) -> Tuple[bool, Any]:
        """Look the node up; ``(True, value)`` on a hit.

        Computes and memoizes the node's key as a side effect; never
        raises.
        """
        try:
            key = self._compute_key(node, args)
        except Exception as exc:  # pragma: no cover - defensive
            _LOG.debug("key construction failed for %r: %s", node.name, exc)
            self._keys[node.node_id] = None
            return False, None
        if key is None:
            return False, None
        try:
            entry = self.cache.get(key)
            if entry is not None:
                value = decode_value(entry, self.registry)
                self.hits += 1
                _metrics.counter("dataflow.cache.hits").inc()
                return True, value
        except CacheMiss as exc:
            _LOG.debug("cache entry for %r not materializable: %s", node.name, exc)
        except Exception as exc:  # pragma: no cover - defensive
            _LOG.debug("cache probe failed for %r: %s", node.name, exc)
        self.misses += 1
        _metrics.counter("dataflow.cache.misses").inc()
        return False, None

    def store(self, node: Any, value: Any) -> None:
        """Store a computed result under the node's memoized key."""
        key = self._keys.get(node.node_id)
        if key is None:
            return
        try:
            entry = encode_value(value)
            self.cache.put(key, entry)
            self.stored_bytes += len(entry)
            _metrics.counter("dataflow.cache.bytes").inc(len(entry))
        except Uncacheable as exc:
            _LOG.debug("result of %r not cacheable: %s", node.name, exc)
        except Exception as exc:  # pragma: no cover - defensive
            _LOG.debug("cache store failed for %r: %s", node.name, exc)
