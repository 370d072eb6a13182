"""Two-tier pass-result store: in-process LRU over an optional disk tier.

Entries are :class:`CachedValue` records: a pickle payload for the
plain-data part of a result plus *rebindable references* for every
``PAG``, ``VertexSet`` and ``EdgeSet`` it contains.  Graphs and sets are
never pickled — a set is ``(kind, owning-PAG fingerprint, id array)``
and a raw PAG is ``("p", fingerprint, b"")``; on a hit each is re-bound
to the current run's live PAG with that fingerprint
(:func:`decode_value`).  A set's result columns, plain values aligned
with the ids, ride in the payload next to its placeholder.  A cached
entry therefore cannot resurrect a dead graph, leak a stale identity
``token``, or be confused with a different graph's elements: an unknown
fingerprint is a :class:`CacheMiss` and the node simply recomputes.
The process backend (:mod:`repro.dataflow.procpool`) moves values
between processes in this same form.

The pickle payload is guarded: any PAG, vertex/edge handle, or set
that survives the reference-stripping walk (e.g. hidden inside a
custom object) aborts encoding with
:class:`~repro.cache.keys.Uncacheable` rather than serializing graph
identity into the cache.

Tiers:

* :class:`MemoryLRU` — per-process ``OrderedDict`` LRU with byte and
  entry caps.
* :class:`DiskStore` — content-addressed files under
  ``~/.cache/perflow/`` (override with ``PERFLOW_CACHE_DIR`` or an
  explicit path): ``<key[:2]>/<key>.pkl``, written atomically, evicted
  oldest-mtime-first when the directory exceeds its byte cap.  Hits
  refresh mtime, making eviction LRU-ish across processes.

:func:`~repro.dataflow.scheduler.resolve_cache` (re-exported by
:mod:`repro.cache`) maps every user-facing spelling (``True``/
``False``/``None``/path/:class:`PassCache`) plus ``PERFLOW_CACHE`` to
a :class:`PassCache` or ``None``.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cache.keys import Uncacheable
from repro.obs.log import get_logger
from repro.pag.edge import Edge
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet
from repro.pag.vertex import Vertex

__all__ = [
    "ENV_CACHE_DIR",
    "CacheMiss",
    "CachedValue",
    "MemoryLRU",
    "DiskStore",
    "PassCache",
    "encode_value",
    "decode_value",
    "default_cache",
    "default_cache_dir",
    "reset_default_cache",
]

#: Directory of the on-disk tier; unset = memory-only default cache.
ENV_CACHE_DIR = "PERFLOW_CACHE_DIR"

_LOG = get_logger("cache.store")


class CacheMiss(Exception):
    """A cached entry cannot be materialized for the current run."""


@dataclass(frozen=True)
class _SetMarker:
    """Placeholder left in the payload where a set or PAG was stripped out."""

    index: int
    #: the set's result columns (name -> values in id order), if any
    columns: Optional[Dict[str, List[Any]]] = None


@dataclass(frozen=True)
class CachedValue:
    """One stored pass result.

    ``payload`` is the pickled value with every set and PAG replaced by
    a :class:`_SetMarker`; ``set_refs`` holds, per marker index,
    ``(kind, pag_fingerprint | None, id_bytes)`` with kind ``"v"``,
    ``"e"`` or ``"p"`` (a PAG: no ids).
    """

    payload: bytes
    set_refs: Tuple[Tuple[str, Optional[str], bytes], ...]
    nbytes: int


_BANNED = (PAG, Vertex, Edge, VertexSet, EdgeSet)


class _GuardPickler(pickle.Pickler):
    """Refuses to serialize graph identity into a cache payload."""

    def persistent_id(self, obj: Any) -> None:
        if isinstance(obj, _BANNED):
            raise Uncacheable(
                f"a {type(obj).__name__} is embedded in the result beyond "
                "the reference-stripping walk; it cannot be cached soundly"
            )
        return None


def _set_ref(s: Union[VertexSet, EdgeSet]) -> Tuple[str, Optional[str], bytes]:
    kind = "v" if isinstance(s, VertexSet) else "e"
    if s._pag is None:
        return (kind, None, b"")
    return (kind, s._pag.fingerprint(), s._ids.tobytes())


def _strip(value: Any, refs: List[Tuple[str, Optional[str], bytes]]) -> Any:
    if isinstance(value, (VertexSet, EdgeSet)):
        refs.append(_set_ref(value))
        return _SetMarker(len(refs) - 1, value._cols)
    if isinstance(value, PAG):
        refs.append(("p", value.fingerprint(), b""))
        return _SetMarker(len(refs) - 1)
    if isinstance(value, tuple):
        return tuple(_strip(v, refs) for v in value)
    if isinstance(value, list):
        return [_strip(v, refs) for v in value]
    if isinstance(value, dict):
        return {k: _strip(v, refs) for k, v in value.items()}
    return value


def encode_value(value: Any) -> CachedValue:
    """Encode a pass result for storage; raises :class:`Uncacheable`."""
    refs: List[Tuple[str, Optional[str], bytes]] = []
    stripped = _strip(value, refs)
    buf = io.BytesIO()
    try:
        _GuardPickler(buf, protocol=4).dump(stripped)
    except Uncacheable:
        raise
    except Exception as exc:
        raise Uncacheable(f"result is not picklable: {exc}") from exc
    payload = buf.getvalue()
    nbytes = len(payload) + sum(len(r[2]) for r in refs)
    return CachedValue(payload, tuple(refs), nbytes)


def _resolve_ref(
    ref: Tuple[str, Optional[str], bytes], registry: Dict[str, Any]
):
    kind, fp, id_bytes = ref
    cls = VertexSet if kind == "v" else EdgeSet
    if fp is None:
        return cls()
    pag = registry.get(fp)
    if pag is None:
        raise CacheMiss(f"no live PAG with fingerprint {fp} in this run")
    if kind == "p":
        return pag
    ids = np.frombuffer(id_bytes, dtype=np.int64).copy()
    if not cls._valid_ids(pag, ids):
        raise CacheMiss("cached element ids out of range for the live PAG")
    return cls._from_ids(pag, ids)


def _restore(value: Any, sets: List[Any]) -> Any:
    if isinstance(value, _SetMarker):
        bound = sets[value.index]  # rebound for this decode alone
        if value.columns:
            bound._cols = value.columns
        return bound
    if isinstance(value, tuple):
        return tuple(_restore(v, sets) for v in value)
    if isinstance(value, list):
        return [_restore(v, sets) for v in value]
    if isinstance(value, dict):
        return {k: _restore(v, sets) for k, v in value.items()}
    return value


def decode_value(entry: CachedValue, registry: Dict[str, Any]) -> Any:
    """Materialize a stored result against the current run's live PAGs.

    ``registry`` maps PAG fingerprints to live graphs (collected from
    the run's input values by the cache session); a raw PAG decodes to
    the live graph itself.  Any reference to a fingerprint not present —
    the graph died, changed, or never entered this run — raises
    :class:`CacheMiss`, and the caller recomputes.
    """
    sets = [_resolve_ref(ref, registry) for ref in entry.set_refs]
    value = pickle.loads(entry.payload)
    return _restore(value, sets)


# ----------------------------------------------------------------------
# tiers
# ----------------------------------------------------------------------
class MemoryLRU:
    """In-process LRU over :class:`CachedValue` entries (thread-safe).

    A multi-threaded server probes and stores one shared cache from many
    request threads; ``OrderedDict`` mutation is not atomic under
    contention, so every operation runs under a lock.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024, max_entries: int = 4096):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CachedValue]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[CachedValue]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, entry: CachedValue) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            while self._entries and (
                self._bytes > self.max_bytes or len(self._entries) > self.max_entries
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "bytes": self._bytes}


#: Process-wide sequence making concurrent temp-file names unique even
#: when several threads write the same key from one pid.
_TMP_SEQ = itertools.count()


class DiskStore:
    """On-disk tier: one pickled :class:`CachedValue` file per key.

    Writes are atomic: a ``<key>.pkl.tmp.<pid>.<seq>`` temp file is
    renamed over the final path.  A crash between write and rename
    orphans the temp file; :meth:`_evict` sweeps orphans older than
    ``tmp_grace_s`` and counts any survivors against ``max_bytes`` so
    leaked bytes can never hide from the eviction budget.
    """

    #: Temp files older than this (seconds) are presumed orphaned by a
    #: crashed writer and reclaimed during eviction.  Generous enough
    #: that an in-progress write on a slow filesystem is never swept.
    tmp_grace_s = 300.0

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: int = 1024 * 1024 * 1024,
        tmp_grace_s: Optional[float] = None,
    ):
        self.root = Path(root)
        self.max_bytes = max_bytes
        if tmp_grace_s is not None:
            self.tmp_grace_s = float(tmp_grace_s)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[CachedValue]:
        path = self._path(key)
        try:
            st_before = path.stat()
            blob = path.read_bytes()
            entry = pickle.loads(blob)
            if not isinstance(entry, CachedValue):
                raise ValueError("not a CachedValue")
        except FileNotFoundError:
            return None
        except Exception as exc:
            _LOG.warning("dropping unreadable cache entry %s: %s", path, exc)
            # Another process may have os.replace()d a good entry in
            # between our read and this unlink; only drop the file if it
            # is still the exact one we failed to load.
            try:
                st_now = path.stat()
                same = (
                    st_now.st_ino == st_before.st_ino
                    and st_now.st_mtime_ns == st_before.st_mtime_ns
                    and st_now.st_size == st_before.st_size
                )
            except (OSError, NameError):
                same = False
            if same:
                try:
                    path.unlink()
                except OSError:
                    pass
            return None
        try:
            os.utime(path)  # refresh mtime: cross-process LRU signal
        except OSError:
            pass
        return entry

    def put(self, key: str, entry: CachedValue) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f"{path.name}.tmp.{os.getpid()}.{next(_TMP_SEQ)}"
            tmp.write_bytes(pickle.dumps(entry, protocol=4))
            os.replace(tmp, path)
        except OSError as exc:
            _LOG.warning("cache write to %s failed: %s", path, exc)
            return
        self._evict()

    def _scan(self) -> List[Tuple[float, int, Path]]:
        found: List[Tuple[float, int, Path]] = []
        if not self.root.is_dir():
            return found
        for sub in self.root.iterdir():
            if not sub.is_dir():
                continue
            for f in sub.glob("*.pkl"):
                try:
                    st = f.stat()
                except OSError:
                    continue
                found.append((st.st_mtime, st.st_size, f))
        return found

    def _sweep_tmp(self, now: Optional[float] = None) -> int:
        """Unlink orphaned temp files; returns bytes of the survivors.

        A temp file younger than ``tmp_grace_s`` may belong to an
        in-progress :meth:`put` (possibly in another process), so it is
        left alone — but its size still counts toward the eviction
        budget via the return value.
        """
        if not self.root.is_dir():
            return 0
        if now is None:
            now = time.time()
        surviving = 0
        for sub in self.root.iterdir():
            if not sub.is_dir():
                continue
            for f in sub.glob("*.tmp.*"):
                try:
                    st = f.stat()
                except OSError:
                    continue
                if now - st.st_mtime >= self.tmp_grace_s:
                    try:
                        f.unlink()
                        continue
                    except OSError:
                        pass
                surviving += st.st_size
        return surviving

    def _evict(self) -> None:
        tmp_bytes = self._sweep_tmp()
        found = self._scan()
        total = sum(size for _, size, _ in found) + tmp_bytes
        if total <= self.max_bytes:
            return
        for _, size, path in sorted(found):
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            if total <= self.max_bytes:
                break

    def clear(self) -> int:
        removed = 0
        for _, _, path in self._scan():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._sweep_tmp(now=float("inf"))  # temp files go unconditionally
        return removed

    def stats(self) -> Dict[str, Any]:
        found = self._scan()
        tmp_bytes = 0
        if self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir():
                    for f in sub.glob("*.tmp.*"):
                        try:
                            tmp_bytes += f.stat().st_size
                        except OSError:
                            pass
        return {
            "entries": len(found),
            "bytes": sum(size for _, size, _ in found),
            "tmp_bytes": tmp_bytes,
            "dir": str(self.root),
        }


class PassCache:
    """The user-facing cache object: memory LRU backed by optional disk."""

    def __init__(
        self,
        memory: Optional[MemoryLRU] = None,
        disk: Optional[DiskStore] = None,
    ):
        self.memory = memory if memory is not None else MemoryLRU()
        self.disk = disk

    def get(self, key: str) -> Optional[CachedValue]:
        entry = self.memory.get(key)
        if entry is not None:
            return entry
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                self.memory.put(key, entry)
        return entry

    def put(self, key: str, entry: CachedValue) -> None:
        self.memory.put(key, entry)
        if self.disk is not None:
            self.disk.put(key, entry)

    def clear(self) -> None:
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"memory": self.memory.stats()}
        if self.disk is not None:
            out["disk"] = self.disk.stats()
        return out


# ----------------------------------------------------------------------
# resolution: args / env / defaults
# ----------------------------------------------------------------------
_DEFAULT: Optional[PassCache] = None


def default_cache_dir() -> Path:
    """``PERFLOW_CACHE_DIR`` if set, else ``~/.cache/perflow``."""
    raw = os.environ.get(ENV_CACHE_DIR, "").strip()
    if raw:
        return Path(raw).expanduser()
    return Path(os.environ.get("XDG_CACHE_HOME", "~/.cache")).expanduser() / "perflow"


def default_cache() -> PassCache:
    """The process-wide cache (created on first use).

    Memory-only unless ``PERFLOW_CACHE_DIR`` names a directory for the
    disk tier — an unset variable keeps the implicit default from
    writing to the filesystem; explicit paths (``run(cache="…")``,
    ``--cache-dir``) always get a disk tier.
    """
    global _DEFAULT
    if _DEFAULT is None:
        raw = os.environ.get(ENV_CACHE_DIR, "").strip()
        disk = DiskStore(Path(raw).expanduser()) if raw else None
        _DEFAULT = PassCache(disk=disk)
    return _DEFAULT


def reset_default_cache() -> None:
    """Forget the process-wide cache (tests; env-var changes)."""
    global _DEFAULT
    _DEFAULT = None
