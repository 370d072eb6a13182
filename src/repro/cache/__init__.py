"""Content-addressed pass-result caching (incremental re-analysis).

PerFlow's analysis layer is functional over the PAG: a pass fed the
same input sets over the same graph always produces the same output, so
re-running a pipeline over an unchanged (or structurally identical)
PAG is pure waste.  The scalability and differential paradigms do
exactly that — the same sub-pipeline over near-identical PAGs — and
Pipeflow (arXiv:2202.00717) shows task pipelines win most when repeated
stages are skipped outright.

This package makes that skip sound:

* :mod:`repro.cache.fingerprint` — a deterministic content fingerprint
  of a PAG, streamed over its columnar arrays and invariant to string
  intern order and storage representation (the stable structural key
  PERFOGRAPH, arXiv:2306.00210, motivates).  Exposed as
  :meth:`repro.pag.graph.PAG.fingerprint`, cached per graph and
  invalidated on mutation.
* :mod:`repro.cache.keys` — stable identity for passes (qualified name
  + source hash + normalized defaults/closure values) combined with
  input-value digests into a per-node cache key.
* :mod:`repro.cache.store` — the two-tier cache: an in-process LRU
  (:class:`MemoryLRU`) over an optional on-disk store
  (:class:`DiskStore`, default ``~/.cache/perflow/``) with a byte cap
  and mtime-LRU eviction.  An entry is one byte string (a JSON header
  and payload, then raw id arrays) with a closed value set, so
  reading one runs no code.  ``VertexSet``/``EdgeSet`` values are
  ``(fingerprint, id-array)`` references, re-bound to the current
  run's live PAGs on a hit, so a cached set can never leak a dead
  graph (or a recycled identity token) into a new run.
* :mod:`repro.cache.session` — the per-``run()`` integration the
  serial sweep and the wavefront scheduler call: probe before
  executing a node, store after, with ``dataflow.cache.{hits,misses,
  bytes}`` metrics and a ``cache_hit`` span tag.

Enable per run (``graph.run(cache=True)``), per facade
(``PerFlow(cache=True)`` / ``PerFlow(cache="<dir>")``), per process
(``PERFLOW_CACHE=1``, disk tier via ``PERFLOW_CACHE_DIR``), or from
the CLI (``--cache`` / ``--no-cache`` / ``--cache-dir``; ``repro cache
stats`` / ``repro cache clear``).  See ``docs/CACHING.md``.
"""

from repro.cache.fingerprint import combine_digests, fingerprint_pag
from repro.cache.keys import Uncacheable, node_key, pass_identity, value_digest
from repro.cache.session import CacheSession
from repro.cache.store import (
    ENV_CACHE_DIR,
    CacheMiss,
    DiskStore,
    MemoryLRU,
    PassCache,
    decode_value,
    default_cache,
    default_cache_dir,
    encode_value,
    reset_default_cache,
)
from repro.dataflow.scheduler import ENV_CACHE, resolve_cache

__all__ = [
    "fingerprint_pag",
    "combine_digests",
    "Uncacheable",
    "node_key",
    "pass_identity",
    "value_digest",
    "CacheSession",
    "ENV_CACHE",
    "ENV_CACHE_DIR",
    "CacheMiss",
    "DiskStore",
    "MemoryLRU",
    "PassCache",
    "decode_value",
    "default_cache",
    "default_cache_dir",
    "encode_value",
    "reset_default_cache",
    "resolve_cache",
]
