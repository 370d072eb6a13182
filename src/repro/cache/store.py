"""Two-tier pass-result store: in-process LRU over an optional disk tier.

An entry is one ``bytes`` value, laid out alike in the memory tier, on
disk and on the process backend's wire: a JSON header line
``[payload_len, [[kind, fingerprint, ids_len], ...]]``, the payload
(the value as JSON), then each reference's raw little-endian int64 ids.

Graphs and sets are never serialized: each ``VertexSet``/``EdgeSet`` is
a header row ``(kind "v"/"e", owning-PAG fingerprint, ids)``, each raw
``PAG`` a row ``("p", fingerprint, no ids)``, and the payload holds
``{"s": row, "c": result columns}`` in its place.  On a hit each row is
re-bound to the current run's live PAG with that fingerprint
(:func:`decode_value`), so an entry cannot resurrect a dead graph, leak
a stale identity ``token``, or bind to a different graph's elements: an
unknown fingerprint is a :class:`CacheMiss` and the node recomputes.

The payload holds a closed set of types, matched by exact type:
``None``, ``bool``, ``int``, ``float``, ``str`` and ``list`` as
themselves; ``tuple``, ``frozenset`` and ``dict`` as ``{"t": [...]}``,
``{"f": [...]}`` and ``{"d": [[key, value], ...]}``; a record type in
:data:`_RECORDS` as ``{"r": [name, [field, ...]]}``.  Every JSON object
in a payload is a tag, so a user's dict is never read as one.  Any
other value (a numpy scalar, a ``Vertex``, an arbitrary object) is
:class:`~repro.cache.keys.Uncacheable`.  Decoding runs no code the
entry names: an unlisted record, a malformed header or lengths that do
not add up are a :class:`CacheMiss`, and nothing is imported.

Tiers: :class:`MemoryLRU`, a per-process LRU with byte and entry caps,
over an optional :class:`DiskStore` — ``<key[:2]>/<key>.entry`` files
under ``~/.cache/perflow/`` (or ``PERFLOW_CACHE_DIR``, or an explicit
path), written atomically and evicted oldest-mtime-first past a byte
cap; hits refresh mtime, making eviction LRU-ish across processes.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cache.keys import Uncacheable
from repro.obs.log import get_logger
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet

__all__ = [
    "ENV_CACHE_DIR",
    "CacheMiss",
    "MemoryLRU",
    "DiskStore",
    "PassCache",
    "encode_value",
    "decode_value",
    "entry_layout",
    "default_cache",
    "default_cache_dir",
    "reset_default_cache",
]

#: Directory of the on-disk tier; unset = memory-only default cache.
ENV_CACHE_DIR = "PERFLOW_CACHE_DIR"

_LOG = get_logger("cache.store")


class CacheMiss(Exception):
    """A cached entry cannot be materialized for the current run."""


def _mpi_profile_row() -> type:
    from repro.paradigms.mpi_profiler import MPIProfileRow

    return MPIProfileRow


#: The record types a payload may hold, by qualified name, with a loader
#: for each class.  Closed: no other name is encoded, decoded or imported.
_RECORDS: Dict[str, Callable[[], type]] = {
    "repro.paradigms.mpi_profiler.MPIProfileRow": _mpi_profile_row,
}

#: Types that are their own JSON encoding.
_PLAIN = frozenset({type(None), bool, int, float, str})
_NESTED = frozenset({list, dict})
#: Header-row kind of each referenced type.
_KINDS = {VertexSet: "v", EdgeSet: "e", PAG: "p"}
_NO_IDS = np.empty(0, dtype="<i8")


def _enc(value: Any, refs: List[Any]) -> Any:
    t = type(value)
    if t in _PLAIN:
        return value
    if t is list:
        if set(map(type, value)) <= _PLAIN:  # rows and columns: no walk
            return value
        return [_enc(v, refs) for v in value]
    if t is tuple:
        return {"t": [_enc(v, refs) for v in value]}
    if t is dict:
        return {"d": [[_enc(k, refs), _enc(v, refs)] for k, v in value.items()]}
    if t is frozenset:
        return {"f": [_enc(v, refs) for v in value]}
    if t in _KINDS:
        refs.append(value)
        cols = None if t is PAG else value._cols
        return {"s": len(refs) - 1, "c": _enc(cols, refs) if cols else None}
    name = f"{t.__module__}.{t.__qualname__}"
    if name in _RECORDS and _RECORDS[name]() is t:
        return {"r": [name, [_enc(getattr(value, f.name), refs) for f in fields(value)]]}
    raise Uncacheable(f"a {t.__name__} value is outside the cache's value set")


def encode_value(value: Any) -> bytes:
    """Encode a pass result as one entry; raises :class:`Uncacheable`."""
    refs: List[Any] = []
    try:
        payload = json.dumps(_enc(value, refs), separators=(",", ":")).encode()
    except RecursionError as exc:
        raise Uncacheable("result nests too deeply (or contains itself)") from exc
    rows: List[List[Any]] = []
    ids: List[np.ndarray] = []
    for ref in refs:
        kind = _KINDS[type(ref)]
        pag = ref if kind == "p" else ref._pag
        arr = _NO_IDS if pag is None or kind == "p" else ref._ids
        arr = np.ascontiguousarray(arr, dtype="<i8")
        rows.append([kind, None if pag is None else pag.fingerprint(), arr.nbytes])
        ids.append(arr)
    header = json.dumps([len(payload), rows], separators=(",", ":")).encode()
    # the join reads each id array's own buffer: no intermediate copy
    return b"".join([header, b"\n", payload, *ids])


def entry_layout(entry: bytes) -> Tuple[List[List[Any]], int, int]:
    """An entry's reference rows and the ``[start, stop)`` of its payload.

    Raises ``ValueError`` (or ``TypeError``) unless the header parses
    and the lengths it names add up to exactly the entry's size.
    """
    end = entry.index(b"\n")
    payload_len, rows = json.loads(entry[:end])
    stop = end + 1 + payload_len
    size = stop
    for kind, _fp, n in rows:
        if kind not in ("v", "e", "p") or type(n) is not int or n < 0 or n % 8:
            raise ValueError(f"bad reference row {[kind, _fp, n]!r}")
        size += n
    if size != len(entry):
        raise ValueError(f"entry is {len(entry)} bytes; its header accounts for {size}")
    return rows, end + 1, stop


def _resolve(kind: str, fp: Any, entry: bytes, pos: int, n: int, registry: Dict[str, Any]):
    cls = VertexSet if kind == "v" else EdgeSet
    if fp is None and kind != "p":
        return cls()
    pag = registry.get(fp)
    if pag is None:
        raise CacheMiss(f"no live PAG with fingerprint {fp} in this run")
    if kind == "p":
        return pag
    ids = np.frombuffer(entry, dtype="<i8", count=n // 8, offset=pos).astype(np.int64)
    if not cls._valid_ids(pag, ids):
        raise CacheMiss("cached element ids out of range for the live PAG")
    return cls._from_ids(pag, ids)


def _dec(x: Any, sets: List[Any]) -> Any:
    t = type(x)
    if t is list:
        if not set(map(type, x)) & _NESTED:
            return x
        return [_dec(v, sets) for v in x]
    if t is not dict:
        return x
    if "s" in x:
        bound = sets[x["s"]]  # rebound for this decode alone
        if type(bound) is not PAG and x.get("c"):
            bound._cols = _dec(x["c"], sets)
        return bound
    ((tag, body),) = x.items()
    if tag == "t":
        return tuple(_dec(v, sets) for v in body)
    if tag == "d":
        return {_dec(k, sets): _dec(v, sets) for k, v in body}
    if tag == "f":
        return frozenset(_dec(v, sets) for v in body)
    if tag == "r":
        name, values = body
        if name not in _RECORDS:
            raise CacheMiss(f"record type {name!r} is not one the cache stores")
        return _RECORDS[name]()(*[_dec(v, sets) for v in values])
    raise ValueError(f"unknown payload tag {tag!r}")


def decode_value(entry: bytes, registry: Dict[str, Any]) -> Any:
    """Materialize a stored result against the current run's live PAGs.

    ``registry`` maps PAG fingerprints to live graphs (collected from
    the run's input values by the cache session); a raw PAG decodes to
    the live graph itself.  Any reference to a fingerprint not present —
    the graph died, changed, or never entered this run — raises
    :class:`CacheMiss`, as does a truncated, corrupt or foreign entry.
    """
    try:
        rows, start, stop = entry_layout(entry)
        sets, pos = [], stop
        for kind, fp, n in rows:
            sets.append(_resolve(kind, fp, entry, pos, n, registry))
            pos += n
        return _dec(json.loads(entry[start:stop]), sets)
    except (ValueError, TypeError, KeyError, IndexError, RecursionError) as exc:
        raise CacheMiss(f"unreadable cache entry: {exc}") from exc


# ----------------------------------------------------------------------
# tiers
# ----------------------------------------------------------------------
class MemoryLRU:
    """In-process LRU over encoded entries (thread-safe).

    A multi-threaded server probes and stores one shared cache from many
    request threads; ``OrderedDict`` mutation is not atomic under
    contention, so every operation runs under a lock.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024, max_entries: int = 4096):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, entry: bytes) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = entry
            self._bytes += len(entry)
            while self._entries and (
                self._bytes > self.max_bytes or len(self._entries) > self.max_entries
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)

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

#: Entry file suffixes.  ``.pkl`` files, written by an earlier layout,
#: are never read: they are only counted, evicted and cleared.
_ENTRY_SUFFIXES = (".entry", ".pkl")



def _unlink(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False


class DiskStore:
    """On-disk tier: one entry file per key.

    Writes are atomic: a ``<key>.entry.tmp.<pid>.<seq>`` temp file is
    renamed over the final path.  A crash between write and rename
    orphans the temp file; :meth:`_evict` sweeps orphans older than
    ``tmp_grace_s`` and counts any survivors against ``max_bytes`` so
    leaked bytes can never hide from the eviction budget.

    A write adds its size to the byte total of the last listing and
    lists again only when that total passes ``max_bytes``, so the cap
    is kept per writer: a directory shared by several processes can
    exceed it by what the others wrote since this one last listed it.
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
        #: bytes at the last listing plus every write since; None = unlisted
        self._total: Optional[int] = None
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.entry"

    def get(self, key: str) -> Optional[bytes]:
        path = self._path(key)
        try:
            st_before = path.stat()
            entry = path.read_bytes()
            entry_layout(entry)
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
                _unlink(path)
            return None
        try:
            os.utime(path)  # refresh mtime: cross-process LRU signal
        except OSError:
            pass
        return entry

    def put(self, key: str, entry: bytes) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f"{path.name}.tmp.{os.getpid()}.{next(_TMP_SEQ)}"
            tmp.write_bytes(entry)
            os.replace(tmp, path)
        except OSError as exc:
            _LOG.warning("cache write to %s failed: %s", path, exc)
            return
        with self._lock:
            if self._total is not None:
                self._total += len(entry)
            over = self._total is None or self._total > self.max_bytes
        if over:
            self._evict()

    def _list(self) -> Tuple[List[Tuple[float, int, Path]], List[Tuple[float, int, Path]]]:
        """One walk of the store: ``(entries, temp files)`` as ``(mtime, size, path)``."""
        entries: List[Tuple[float, int, Path]] = []
        temps: List[Tuple[float, int, Path]] = []
        for f in self.root.glob("*/*"):
            is_tmp = ".tmp." in f.name
            if is_tmp or f.name.endswith(_ENTRY_SUFFIXES):
                try:
                    st = f.stat()
                except OSError:
                    continue
                (temps if is_tmp else entries).append((st.st_mtime, st.st_size, f))
        return entries, temps

    def _evict(self) -> None:
        """Sweep orphaned temp files, then drop the oldest entries until
        the store fits ``max_bytes``.  A temp file younger than
        ``tmp_grace_s`` may be another writer's, so it stays — and counts.
        """
        entries, temps = self._list()
        now = time.time()
        total = sum(size for _, size, _ in entries)
        for mtime, size, path in temps:
            if not (now - mtime >= self.tmp_grace_s and _unlink(path)):
                total += size
        for _, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            if _unlink(path):
                total -= size
        with self._lock:
            self._total = total

    def clear(self) -> int:
        entries, temps = self._list()
        removed = sum(_unlink(path) for _, _, path in entries)
        for _, _, path in temps:  # temp files go unconditionally
            _unlink(path)
        self._total = None
        return removed

    def stats(self) -> Dict[str, Any]:
        entries, temps = self._list()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "tmp_bytes": sum(size for _, size, _ in temps),
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

    def get(self, key: str) -> Optional[bytes]:
        entry = self.memory.get(key)
        if entry is not None:
            return entry
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                self.memory.put(key, entry)
        return entry

    def put(self, key: str, entry: bytes) -> None:
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
