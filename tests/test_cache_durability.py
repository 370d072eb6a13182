"""DiskStore durability: orphaned temp files, racing readers/writers.

The serve tier leans on one disk cache shared by many threads and many
processes; these tests pin the crash/race behaviour that makes that
safe: orphaned ``*.tmp.*`` write files are reclaimed and budgeted,
temp names never collide across threads, a corrupt-entry unlink can
never destroy a concurrently-replaced good entry, and two processes
hammering one cache directory surface no exceptions and lose no
freshly written entries.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path

from repro.cache.store import DiskStore, MemoryLRU, PassCache, decode_value, encode_value


def _entry(payload: str = "x" * 64) -> bytes:
    return encode_value(payload)


def _key(i: int) -> str:
    return f"{i:040x}"


# ----------------------------------------------------------------------
# satellite 1: orphaned temp files are swept and budgeted
# ----------------------------------------------------------------------
def test_orphaned_tmp_file_is_reclaimed(tmp_path):
    """A crash between write and rename leaks a temp file; eviction reclaims it."""
    store = DiskStore(tmp_path, max_bytes=1 << 30, tmp_grace_s=0.0)
    orphan = tmp_path / "ab" / f"{_key(0xAB)}.entry.tmp.99999.0"
    orphan.parent.mkdir(parents=True)
    orphan.write_bytes(b"z" * 512)
    store.put(_key(1), _entry())
    assert not orphan.exists()
    assert store.get(_key(1)) is not None


def test_fresh_tmp_file_survives_grace_period(tmp_path):
    store = DiskStore(tmp_path, max_bytes=1 << 30, tmp_grace_s=3600.0)
    orphan = tmp_path / "ab" / f"{_key(0xAB)}.entry.tmp.99999.0"
    orphan.parent.mkdir(parents=True)
    orphan.write_bytes(b"z" * 512)
    store.put(_key(1), _entry())
    assert orphan.exists()  # could be an in-progress write: left alone
    assert store.stats()["tmp_bytes"] == 512


def test_tmp_bytes_count_toward_eviction_budget(tmp_path):
    """Un-reclaimable temp bytes still squeeze real entries out."""
    store = DiskStore(tmp_path, max_bytes=2600, tmp_grace_s=3600.0)
    orphan = tmp_path / "ab" / f"{_key(0xAB)}.entry.tmp.99999.0"
    orphan.parent.mkdir(parents=True)
    orphan.write_bytes(b"z" * 1900)  # fresh: kept, but budgeted
    old_key, new_key = _key(1), _key(2)
    store.put(old_key, _entry("a" * 400))
    time.sleep(0.02)  # distinct mtimes so eviction order is stable
    store.put(new_key, _entry("b" * 400))
    # 1900 tmp + 2 entries (~411 B each) > 2600: the oldest entry had
    # to go, and 1900 + 411 <= 2600 keeps the newest.
    assert store.get(old_key) is None
    assert store.get(new_key) is not None


def test_clear_removes_tmp_files_too(tmp_path):
    store = DiskStore(tmp_path, tmp_grace_s=3600.0)
    store.put(_key(1), _entry())
    orphan = tmp_path / "ab" / f"{_key(0xAB)}.entry.tmp.99999.0"
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_bytes(b"z")
    assert store.clear() == 1
    assert not orphan.exists()


def test_put_under_the_cap_lists_nothing(tmp_path, monkeypatch):
    """A write adds to the last listing's byte total; only crossing
    ``max_bytes`` walks the directory again, and evicts oldest-first."""
    calls = []

    def counting(name):
        real = getattr(Path, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return real(self, *args, **kwargs)

        return wrapper

    for name in ("glob", "iterdir"):
        monkeypatch.setattr(Path, name, counting(name))
    store = DiskStore(tmp_path / "big", max_bytes=1 << 30)
    store.put(_key(0), _entry())  # the first write lists once
    assert calls
    calls.clear()
    for i in range(1, 20):
        store.put(_key(i), _entry())
    assert calls == []

    capped = DiskStore(tmp_path / "capped", max_bytes=3 * len(_entry()))
    for i in range(3):
        capped.put(_key(i), _entry())
        os.utime(capped._path(_key(i)), (1000.0 + i, 1000.0 + i))
    calls.clear()
    capped.put(_key(3), _entry())  # crosses the cap
    assert calls
    assert capped.get(_key(0)) is None
    assert all(capped.get(_key(i)) is not None for i in (1, 2, 3))


# ----------------------------------------------------------------------
# satellite 3: concurrent readers/writers
# ----------------------------------------------------------------------
def test_concurrent_same_key_puts_from_threads(tmp_path):
    """Per-(pid, seq) temp names: same-key writers never collide."""
    store = DiskStore(tmp_path)
    errors = []

    def writer(i):
        try:
            for _ in range(20):
                store.put(_key(7), _entry(f"w{i}" * 32))
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert store.get(_key(7)) is not None
    assert store.stats()["tmp_bytes"] == 0


def test_concurrent_puts_keep_an_exact_byte_total(tmp_path):
    """Racing writers never lose an addition to the running byte total."""
    store = DiskStore(tmp_path, max_bytes=1 << 30)
    store.put(_key(0), _entry())  # the first write lists
    base, entry = store._total, _entry()

    def writer(i):
        for j in range(25):
            store.put(_key(1000 * i + j + 1), entry)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert store._total == base + 8 * 25 * len(entry) == store.stats()["bytes"]


def test_corrupt_entry_is_dropped(tmp_path):
    store = DiskStore(tmp_path)
    path = store._path(_key(3))
    path.parent.mkdir(parents=True)
    path.write_bytes(b"definitely not a cache entry")
    assert store.get(_key(3)) is None
    assert not path.exists()


def test_corrupt_unlink_spares_concurrently_replaced_entry(tmp_path, monkeypatch):
    """A reader must not unlink a good entry another process just renamed in.

    Simulates the race deterministically: the layout check of a corrupt
    blob "takes long enough" that a concurrent ``put`` lands a good entry
    at the same path before the reader reaches its unlink.
    """
    from repro.cache import store as store_mod

    store = DiskStore(tmp_path)
    key = _key(4)
    path = store._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"corrupt garbage")

    good = _entry("the good entry")
    real_layout = store_mod.entry_layout
    raced = {"done": False}

    def racing_layout(blob):
        if not raced["done"] and blob == b"corrupt garbage":
            raced["done"] = True
            # another process replaces the file mid-read...
            tmp = path.parent / f"{path.name}.race"
            tmp.write_bytes(good)
            os.replace(tmp, path)
            raise ValueError("corrupt")
        return real_layout(blob)

    monkeypatch.setattr(store_mod, "entry_layout", racing_layout)
    assert store.get(key) is None  # the corrupt read still misses...
    assert path.exists()  # ...but the freshly replaced entry survives
    assert store.get(key) == good


def _stress_worker(root: str, worker: int, iterations: int) -> None:
    """Child-process body: put/get/evict against a shared cache dir."""
    store = DiskStore(root, max_bytes=64 * 1024, tmp_grace_s=3600.0)
    for i in range(iterations):
        key = _key(worker * 100_000 + i)
        payload = f"{worker}:{i};" * 64
        store.put(key, encode_value(payload))
        # A just-written entry is the newest file: mtime-LRU eviction
        # (ours or the sibling process's) must not have taken it.
        got = store.get(key)
        assert got is not None, f"lost freshly written entry {key}"
        assert decode_value(got, {}) == payload
        # Poke at the sibling's keyspace too: any answer is fine
        # (hit or miss) but never an exception.
        store.get(_key((1 - worker) * 100_000 + max(0, i - 3)))
    store.stats()


def test_two_process_stress_shared_cache_dir(tmp_path):
    """Satellite: concurrent put/get/evict across processes — no lost
    entries in the live window, no exceptions surfaced to callers."""
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_stress_worker, args=(str(tmp_path), w, 150))
        for w in range(2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert all(p.exitcode == 0 for p in procs), [p.exitcode for p in procs]
    # The directory is still usable and within budget afterwards.
    store = DiskStore(tmp_path, max_bytes=64 * 1024)
    store.put(_key(999), _entry("post-stress"))
    assert store.get(_key(999)) is not None
    assert store.stats()["bytes"] <= 64 * 1024 + 8192


# ----------------------------------------------------------------------
# MemoryLRU thread-safety (the server shares one PassCache)
# ----------------------------------------------------------------------
def test_memory_lru_concurrent_access(tmp_path):
    lru = MemoryLRU(max_bytes=16 * 1024, max_entries=64)
    errors = []

    def worker(i):
        try:
            for j in range(300):
                key = _key(i * 1000 + (j % 40))
                lru.put(key, _entry("m" * 64))
                lru.get(key)
                lru.stats()
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = lru.stats()
    assert stats["entries"] <= 64 and stats["bytes"] <= 16 * 1024


def test_pass_cache_stats_include_tmp(tmp_path):
    cache = PassCache(disk=DiskStore(tmp_path))
    cache.put(_key(1), _entry())
    stats = cache.stats()
    assert stats["disk"]["entries"] == 1
    assert stats["disk"]["tmp_bytes"] == 0
