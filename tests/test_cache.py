"""Tests for the content-addressed pass-result cache (:mod:`repro.cache`).

Covers the four layers of the tentpole: PAG fingerprinting (content
digest, mutation invalidation, intern-order invariance), cache keys
(pass identity over source + closures, input digests, the Uncacheable
escape hatch), the two-tier store (LRU + disk, encode/decode of set
references, eviction, corruption recovery), and the dataflow
integration (serial and wavefront warm-run skips, metrics, span tags,
``cacheable=False`` opt-out), plus the token-aliasing regression of
the fixpoint identity-key audit.
"""

from __future__ import annotations

import functools
import pickle
import sys

import numpy as np
import pytest

from repro.cache import (
    CacheMiss,
    CacheSession,
    DiskStore,
    MemoryLRU,
    PassCache,
    Uncacheable,
    decode_value,
    default_cache,
    default_cache_dir,
    encode_value,
    node_key,
    pass_identity,
    reset_default_cache,
    resolve_cache,
    value_digest,
)
from repro.dataflow.graph import PerFlowGraph
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pag.edge import EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet
from repro.pag.vertex import VertexLabel


def make_pag(name: str = "g", n: int = 6, bump: float = 0.0) -> PAG:
    pag = PAG(name)
    for i in range(n):
        pag.add_vertex(
            VertexLabel.FUNCTION,
            f"f{i}",
            None,
            {"time": float(i) + bump, "debug-info": f"s.c:{i}"},
        )
    for i in range(n - 1):
        pag.add_edge(i, i + 1, EdgeLabel.INTRA_PROCEDURAL, None, {"weight": 1.0})
    return pag


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_deterministic_across_rebuilds():
    assert make_pag().fingerprint() == make_pag().fingerprint()


def test_fingerprint_changes_with_content():
    base = make_pag().fingerprint()
    assert make_pag(bump=0.5).fingerprint() != base
    assert make_pag(n=7).fingerprint() != base
    assert make_pag(name="other").fingerprint() != base


def test_fingerprint_invalidated_by_mutation_and_restored_on_revert():
    pag = make_pag()
    fp0 = pag.fingerprint()
    v = pag.vertex(2)
    old = v["time"]
    v["time"] = 99.0
    fp1 = pag.fingerprint()
    assert fp1 != fp0
    v["time"] = old
    assert pag.fingerprint() == fp0


def test_fingerprint_invalidated_by_rename_and_metadata():
    pag = make_pag()
    fp0 = pag.fingerprint()
    pag.vertex(0).name = "renamed"
    fp1 = pag.fingerprint()
    assert fp1 != fp0
    pag.metadata["nprocs"] = 8
    assert pag.fingerprint() != fp1


def test_fingerprint_ignores_unused_interned_strings():
    noisy = PAG("g")
    # Interning unrelated strings first shifts every later string id;
    # the fingerprint must not care (it hashes values in sorted order).
    for junk in ("zzz", "aaa", "noise"):
        noisy.strings.intern(junk)
    for i in range(6):
        noisy.add_vertex(
            VertexLabel.FUNCTION,
            f"f{i}",
            None,
            {"time": float(i), "debug-info": f"s.c:{i}"},
        )
    for i in range(5):
        noisy.add_edge(i, i + 1, EdgeLabel.INTRA_PROCEDURAL, None, {"weight": 1.0})
    assert noisy.fingerprint() == make_pag().fingerprint()


def test_fingerprint_survives_save_load(tmp_path):
    from repro.pag.formats import load_pag, save_pag

    pag = make_pag()
    pag.metadata["case"] = "x"
    save_pag(pag, tmp_path / "g.json", include_per_rank=True)
    assert load_pag(tmp_path / "g.json").fingerprint() == pag.fingerprint()


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def test_pass_identity_sees_closure_values():
    def mk(n):
        return lambda s: (s, n)

    assert pass_identity(mk(5)) == pass_identity(mk(5))
    assert pass_identity(mk(5)) != pass_identity(mk(6))


def test_pass_identity_recurses_into_partials():
    def f(s, n):
        return s

    assert pass_identity(functools.partial(f, n=3)) == pass_identity(
        functools.partial(f, n=3)
    )
    assert pass_identity(functools.partial(f, n=3)) != pass_identity(
        functools.partial(f, n=4)
    )


def test_pass_identity_rejects_stateful_callables():
    class Analyzer:
        def __call__(self, s):
            return s

        def method(self, s):
            return s

    with pytest.raises(Uncacheable):
        pass_identity(Analyzer())
    with pytest.raises(Uncacheable):
        pass_identity(Analyzer().method)
    # ... including when captured in a closure.
    facade = Analyzer()
    with pytest.raises(Uncacheable):
        pass_identity(lambda s: facade(s))


def test_value_digest_sets_and_registry():
    pag = make_pag()
    reg = {}
    d1 = value_digest(pag.vs, reg)
    assert reg == {pag.fingerprint(): pag}
    assert value_digest(make_pag().vs) == d1
    assert value_digest(make_pag(bump=1.0).vs) != d1
    # subset of ids digests differently
    sub = VertexSet([pag.vertex(i) for i in range(3)])
    assert value_digest(sub) != d1


def test_value_digest_plain_values():
    assert value_digest([1, "a", 2.5]) == value_digest([1, "a", 2.5])
    assert value_digest((1,)) != value_digest([1])
    assert value_digest({"b": 2, "a": 1}) == value_digest({"a": 1, "b": 2})
    assert value_digest(np.arange(3.0)) == value_digest(np.arange(3.0))
    with pytest.raises(Uncacheable):
        value_digest(object())


def test_node_key_varies_by_shape():
    base = node_key("pass", "abc", ["d1", "d2"])
    assert node_key("pass", "abc", ["d1", "d2"]) == base
    assert node_key("fixpoint", "abc", ["d1", "d2"]) != base
    assert node_key("pass", "abd", ["d1", "d2"]) != base
    assert node_key("pass", "abc", ["d1"]) != base
    assert node_key("fixpoint", "abc", ["d1"], max_iters=5) != node_key(
        "fixpoint", "abc", ["d1"], max_iters=6
    )


def test_keys_are_token_free():
    """Regression for the fixpoint identity-key audit: cache keys are
    content-addressed, so a dead PAG's recycled ``token`` can never
    alias a live entry — equal content keys equal, and distinct content
    keys distinct, regardless of token values."""
    a = make_pag()
    token_a = a.token
    digest_a = value_digest(a.vs)
    del a
    b = make_pag()  # same content, necessarily different token
    assert b.token != token_a  # _TOKENS is monotonic, never reused
    assert value_digest(b.vs) == digest_a
    c = make_pag(bump=3.0)  # different content, fresh token
    assert value_digest(c.vs) != digest_a


def test_cached_entry_never_rebinds_to_different_content():
    """A stored set reference names its PAG by fingerprint; a run whose
    live graphs all have different content raises CacheMiss instead of
    silently rebinding (the token-resurrection hazard)."""
    a = make_pag()
    entry = encode_value(a.vs)
    other = make_pag(bump=2.0)
    with pytest.raises(CacheMiss):
        decode_value(entry, {other.fingerprint(): other})
    # with the right content live again, it rebinds fine
    twin = make_pag()
    restored = decode_value(entry, {twin.fingerprint(): twin})
    assert restored._pag is twin
    assert list(restored.ids()) == list(a.vs.ids())


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def test_encode_decode_roundtrip_golden():
    pag = make_pag()
    value = (pag.vs, {"rows": [1, 2], "sub": EdgeSet(list(pag.edges()))})
    entry = encode_value(value)
    out = decode_value(entry, {pag.fingerprint(): pag})
    assert isinstance(out[0], VertexSet)
    assert list(out[0].ids()) == list(pag.vs.ids())
    assert out[1]["rows"] == [1, 2]
    assert isinstance(out[1]["sub"], EdgeSet)
    assert list(out[1]["sub"].ids()) == list(range(pag.num_edges))


def test_encode_rejects_hidden_graph_identity():
    pag = make_pag()

    class Sneaky:
        def __init__(self, s):
            self.s = s

    with pytest.raises(Uncacheable):
        encode_value(Sneaky(pag.vs))
    with pytest.raises(Uncacheable):
        encode_value(pag.vertex(0))
    with pytest.raises(Uncacheable):
        encode_value(lambda: None)


def test_decode_unknown_fingerprint_is_cache_miss():
    entry = encode_value(make_pag().vs)
    with pytest.raises(CacheMiss):
        decode_value(entry, {})


def test_memory_lru_eviction():
    def entry(n):
        return b"x" * n

    lru = MemoryLRU(max_bytes=100, max_entries=10)
    lru.put("a", entry(40))
    lru.put("b", entry(40))
    lru.get("a")  # refresh a; b is now LRU
    lru.put("c", entry(40))
    assert lru.get("b") is None
    assert lru.get("a") is not None and lru.get("c") is not None

    lru2 = MemoryLRU(max_bytes=10_000, max_entries=2)
    for k in "abc":
        lru2.put(k, entry(1))
    assert lru2.stats()["entries"] == 2
    assert lru2.get("a") is None


def test_disk_store_roundtrip_corruption_and_eviction(tmp_path):
    store = DiskStore(tmp_path / "cache", max_bytes=400)
    entry = encode_value(("payload", VertexSet()))
    store.put("aabbcc", entry)
    assert store.get("aabbcc") == entry
    assert store.get("nonexistent") is None

    # corrupt entries are dropped, not fatal
    path = store._path("aabbcc")
    path.write_bytes(b"garbage")
    assert store.get("aabbcc") is None
    assert not path.exists()

    # byte-cap eviction removes oldest entries first
    import os

    big = encode_value("y" * 150)
    for i, key in enumerate(["k1aaaa", "k2bbbb", "k3cccc"]):
        store.put(key, big)
        os.utime(store._path(key), (1000.0 + i, 1000.0 + i))
    store.put("k4dddd", big)  # triggers eviction over max_bytes=400
    stats = store.stats()
    assert stats["bytes"] <= 400 + len(big)
    assert store.get("k4dddd") is not None
    assert store.get("k1aaaa") is None  # oldest went first

    removed = store.clear()
    assert removed == store.stats()["entries"] or store.stats()["entries"] == 0


def test_pass_cache_promotes_disk_hits_to_memory(tmp_path):
    disk = DiskStore(tmp_path / "c")
    cache = PassCache(MemoryLRU(), disk)
    entry = encode_value("p")
    cache.put("deadbeef", entry)
    cache.memory.clear()
    assert cache.get("deadbeef") == entry  # served from disk...
    assert cache.memory.get("deadbeef") == entry  # ...and promoted
    assert cache.stats()["disk"]["entries"] == 1


# ----------------------------------------------------------------------
# resolution: flags and environment
# ----------------------------------------------------------------------
def test_resolve_cache_specs(tmp_path, monkeypatch):
    monkeypatch.delenv("PERFLOW_CACHE", raising=False)
    monkeypatch.delenv("PERFLOW_CACHE_DIR", raising=False)
    reset_default_cache()
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    assert resolve_cache(True) is default_cache()
    assert resolve_cache(True).disk is None  # no dir -> memory-only default
    pc = PassCache()
    assert resolve_cache(pc) is pc
    on_disk = resolve_cache(str(tmp_path / "d"))
    assert isinstance(on_disk.disk, DiskStore)
    with pytest.raises(TypeError):
        resolve_cache(42)


@pytest.mark.parametrize("raw,expect", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("", False), ("0", False), ("false", False), ("off", False), ("no", False),
])
def test_env_cache_parsing(monkeypatch, raw, expect):
    monkeypatch.setenv("PERFLOW_CACHE", raw)
    monkeypatch.delenv("PERFLOW_CACHE_DIR", raising=False)
    reset_default_cache()
    resolved = resolve_cache(None)
    assert (resolved is not None) is expect


def test_env_cache_garbage_raises(monkeypatch):
    monkeypatch.setenv("PERFLOW_CACHE", "banana")
    with pytest.raises(ValueError):
        resolve_cache(None)


def test_default_cache_dir_and_disk_tier(tmp_path, monkeypatch):
    monkeypatch.setenv("PERFLOW_CACHE_DIR", str(tmp_path / "pf"))
    reset_default_cache()
    assert default_cache_dir() == tmp_path / "pf"
    assert isinstance(default_cache().disk, DiskStore)
    monkeypatch.delenv("PERFLOW_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "perflow"
    reset_default_cache()


# ----------------------------------------------------------------------
# dataflow integration
# ----------------------------------------------------------------------
#: Execution log for counting real pass runs.  A module global, not a
#: closure: globals are keyed by *name* only, so appending here does not
#: change the passes' cache identity between runs (a closure over this
#: list would — by design).
EXEC_LOG: list = []


@pytest.fixture(autouse=True)
def _clear_exec_log():
    EXEC_LOG.clear()


def _pipeline(pag: PAG, top: int = 3) -> PerFlowGraph:
    """Three-pass chain logging executions to :data:`EXEC_LOG`."""
    g = PerFlowGraph("cache-test")
    V = g.input("V", VertexSet)

    def keep_slow(s):
        EXEC_LOG.append("keep_slow")
        return VertexSet([v for v in s if (v["time"] or 0.0) > 1.0])

    def top_n(s):
        EXEC_LOG.append("top_n")
        return VertexSet(sorted(s, key=lambda v: -(v["time"] or 0.0))[:top])

    def names(s):
        EXEC_LOG.append("names")
        return [v.name for v in s]

    a = g.add_pass(keep_slow, V, name="keep_slow")
    b = g.add_pass(top_n, a, name="top_n")
    g.add_pass(names, b, name="names")
    return g


def _counter(name: str) -> float:
    return obs_metrics.counter(name).value


def test_serial_warm_run_skips_every_pass():
    pag = make_pag()
    cache = PassCache()
    g = _pipeline(pag)
    out1 = g.run(jobs=1, cache=cache, V=pag.vs)
    assert EXEC_LOG == ["keep_slow", "top_n", "names"]
    assert _counter("dataflow.cache.misses") == 3
    assert _counter("dataflow.cache.bytes") > 0

    out2 = _pipeline(pag).run(jobs=1, cache=cache, V=pag.vs)
    assert EXEC_LOG == ["keep_slow", "top_n", "names"]  # nothing re-executed
    assert _counter("dataflow.cache.hits") == 3
    assert out2["names"] == out1["names"]
    assert list(out2["top_n"].ids()) == list(out1["top_n"].ids())
    assert out2["top_n"]._pag is pag  # rebound to the live graph


def test_wavefront_warm_run_skips_every_pass():
    pag = make_pag()
    cache = PassCache()
    g = _pipeline(pag)
    out1 = g.run(jobs=4, backend="thread", cache=cache, V=pag.vs)
    out2 = _pipeline(pag).run(jobs=4, backend="thread", cache=cache, V=pag.vs)
    assert EXEC_LOG == ["keep_slow", "top_n", "names"]
    assert _counter("dataflow.cache.hits") == 3
    assert out2["names"] == out1["names"]
    # Hit nodes were never submitted to the pool: run 1 executed all 4
    # nodes, run 2 only the input node (its 3 passes were cache hits).
    assert obs_metrics.counter("dataflow.scheduler.nodes_parallel").value == 5


def test_serial_and_wavefront_share_cache_entries():
    pag = make_pag()
    cache = PassCache()
    _pipeline(pag).run(jobs=1, cache=cache, V=pag.vs)
    _pipeline(pag).run(jobs=4, cache=cache, V=pag.vs)
    assert EXEC_LOG == ["keep_slow", "top_n", "names"]
    assert _counter("dataflow.cache.hits") == 3


def test_mutation_invalidates_cached_results():
    pag = make_pag()
    cache = PassCache()
    _pipeline(pag).run(backend="thread", cache=cache, V=pag.vs)
    pag.vertex(5)["time"] = 123.0
    out = _pipeline(pag).run(backend="thread", cache=cache, V=pag.vs)
    assert EXEC_LOG == ["keep_slow", "top_n", "names"] * 2  # all re-executed
    assert out["names"][0] == "f5"


def test_closure_parameter_changes_miss():
    pag = make_pag()
    cache = PassCache()
    _pipeline(pag, top=3).run(backend="thread", cache=cache, V=pag.vs)
    out = _pipeline(pag, top=2).run(backend="thread", cache=cache, V=pag.vs)
    # keep_slow is param-independent (hit); top_n and names re-execute
    assert EXEC_LOG == ["keep_slow", "top_n", "names", "top_n", "names"]
    assert len(out["names"]) == 2


def test_node_returning_an_input_pag_is_cached_by_reference():
    """A raw input PAG in a result is stored as a fingerprint reference,
    so a warm run hits the node and gets the live input graph back."""
    pag = make_pag()

    def same(p):
        EXEC_LOG.append("same")
        return p, p.vs

    def build():
        g = PerFlowGraph("pag-through")
        g.add_pass(same, g.input("P", PAG), name="same")
        return g

    cache = PassCache()
    build().run(jobs=1, cache=cache, P=pag)
    out = build().run(jobs=1, cache=cache, P=pag)
    assert EXEC_LOG == ["same"]
    assert _counter("dataflow.cache.hits") == 1
    got, vs = out["same"]
    assert got is pag and vs._pag is pag


class _Plant:
    """Unpickling one opens ``marker`` for writing: stand-in hostile code."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (open, (str(self.marker), "w"))


def test_planted_pickle_is_a_counted_miss_and_runs_no_code(tmp_path):
    pag = make_pag()
    root = tmp_path / "cache"
    _pipeline(pag).run(jobs=1, cache=PassCache(disk=DiskStore(root)), V=pag.vs)
    paths = sorted(root.glob("*/*.entry"))
    assert len(paths) == 3
    marker = tmp_path / "marker"
    planted = pickle.dumps(_Plant(marker))
    pickle.loads(planted).close()  # the bait is live...
    marker.unlink()
    for path in paths:
        path.write_bytes(planted)
    _pipeline(pag).run(jobs=1, cache=PassCache(disk=DiskStore(root)), V=pag.vs)
    assert _counter("dataflow.cache.hits") == 0
    assert _counter("dataflow.cache.misses") == 6  # cold run + the planted three
    assert not marker.exists()  # ...and reading the cache never ran it
    # each planted file was dropped, then replaced by the recomputed entry
    assert all(path.read_bytes() != planted for path in paths)
    paths[0].write_bytes(planted)
    assert DiskStore(root).get(paths[0].stem) is None
    assert not paths[0].exists() and not marker.exists()


def test_record_outside_the_table_is_a_counted_miss_and_imports_nothing(monkeypatch):
    """A record decodes only from the closed table, which holds
    ``MPIProfileRow``; a tag naming any other module imports nothing."""
    from repro.paradigms.mpi_profiler import MPIProfileRow

    row = MPIProfileRow("MPI_Send", "s.c:1", 1.5, 10.0, 3, 96.0, 0.25, 0.5, 0.75)
    back = decode_value(encode_value([row]), {})
    assert back == [row] and type(back[0]) is MPIProfileRow

    monkeypatch.delitem(sys.modules, "repro.__main__", raising=False)
    payload = b'{"r":["repro.__main__.main",[]]}'
    forged = b"[%d,[]]\n" % len(payload) + payload
    with pytest.raises(CacheMiss):
        decode_value(forged, {})
    pag = make_pag()
    cache = PassCache()
    _pipeline(pag).run(jobs=1, cache=cache, V=pag.vs)
    for key in list(cache.memory._entries):
        cache.memory.put(key, forged)
    _pipeline(pag).run(jobs=1, cache=cache, V=pag.vs)
    assert _counter("dataflow.cache.hits") == 0
    assert _counter("dataflow.cache.misses") == 6
    assert "repro.__main__" not in sys.modules


def test_cacheable_false_always_executes():
    pag = make_pag()
    runs: list = []

    def impure(s):
        runs.append(1)
        return s

    def build():
        g = PerFlowGraph("impure")
        V = g.input("V", VertexSet)
        g.add_pass(impure, V, name="impure", cacheable=False)
        return g

    cache = PassCache()
    build().run(cache=cache, V=pag.vs)
    build().run(cache=cache, V=pag.vs)
    assert len(runs) == 2
    assert _counter("dataflow.cache.uncacheable") == 2
    assert _counter("dataflow.cache.hits") == 0


def test_uncacheable_closure_executes_without_caching():
    pag = make_pag()

    class Facade:
        def pick(self, s):
            return s

    facade = Facade()

    def build():
        g = PerFlowGraph("facade")
        V = g.input("V", VertexSet)
        g.add_pass(lambda s: facade.pick(s), V, name="pick")
        return g

    cache = PassCache()
    out1 = build().run(cache=cache, V=pag.vs)
    out2 = build().run(cache=cache, V=pag.vs)
    assert list(out1["pick"].ids()) == list(out2["pick"].ids())
    assert _counter("dataflow.cache.uncacheable") == 2
    assert _counter("dataflow.cache.hits") == 0


def test_fixpoint_results_cached():
    pag = make_pag()

    def grow(s):
        EXEC_LOG.append("grow")
        if len(s) >= 4:
            return s
        return VertexSet([s._pag.vertex(i) for i in range(len(s) + 1)])

    def build():
        g = PerFlowGraph("fix")
        V = g.input("V", VertexSet)
        g.add_fixpoint(grow, V, max_iters=10, name="grow")
        return g

    cache = PassCache()
    seed = VertexSet([pag.vertex(0)])
    out1 = build().run(backend="thread", cache=cache, V=seed)
    n_cold = len(EXEC_LOG)
    assert n_cold > 1
    out2 = build().run(backend="thread", cache=cache, V=seed)
    assert len(EXEC_LOG) == n_cold  # warm run never iterated
    assert _counter("dataflow.cache.hits") == 1
    assert list(out2["grow"].ids()) == list(out1["grow"].ids())


def test_cache_hit_span_tags():
    pag = make_pag()
    cache = PassCache()
    _pipeline(pag).run(cache=cache, V=pag.vs)
    rec = obs_trace.enable()
    try:
        _pipeline(pag).run(cache=cache, V=pag.vs)
    finally:
        obs_trace.disable()
    pipeline = [s for s in rec.spans if s.name.startswith("pipeline:")]
    assert pipeline and pipeline[0].args["cached"] is True
    node_spans = [s for s in rec.spans if s.name.startswith("node:")]
    tags = {s.name: s.args.get("cache_hit") for s in node_spans}
    assert tags == {
        "node:V": None,  # input nodes carry no cache tag
        "node:keep_slow": True,
        "node:top_n": True,
        "node:names": True,
    }


def test_session_counters_mirror_metrics():
    pag = make_pag()
    cache = PassCache()
    session = CacheSession(cache)
    g = _pipeline(pag)
    node = g._nodes[1]
    hit, _ = session.probe(node, [pag.vs])
    assert not hit and session.misses == 1
    session.store(node, pag.vs)
    assert session.stored_bytes > 0
    hit, value = session.probe(node, [pag.vs])
    # same session memoizes the key; a fresh session recomputes it
    session2 = CacheSession(cache)
    hit2, value2 = session2.probe(node, [pag.vs])
    assert hit2 and session2.hits == 1
    assert list(value2.ids()) == list(pag.vs.ids())


def test_run_cache_env_default(monkeypatch):
    pag = make_pag()
    monkeypatch.setenv("PERFLOW_CACHE", "1")
    monkeypatch.setenv("PERFLOW_BACKEND", "thread")
    monkeypatch.delenv("PERFLOW_CACHE_DIR", raising=False)
    reset_default_cache()
    _pipeline(pag).run(V=pag.vs)
    _pipeline(pag).run(V=pag.vs)
    assert EXEC_LOG == ["keep_slow", "top_n", "names"]
    assert _counter("dataflow.cache.hits") == 3
    # cache=False overrides the environment
    _pipeline(pag).run(cache=False, V=pag.vs)
    assert len(EXEC_LOG) == 6
    reset_default_cache()


def test_perflow_facade_cache_dir(tmp_path):
    from repro.apps import npb
    from repro.dataflow.api import PerFlow
    from repro.paradigms.mpi_profiler import mpi_profiler_paradigm

    pflow = PerFlow(cache=tmp_path / "pf")
    pag = pflow.run(bin=npb.build_cg("S", iterations=2), nprocs=4)
    rows1 = mpi_profiler_paradigm(pflow, pag, top=5)
    assert _counter("dataflow.cache.misses") == 3
    rows2 = mpi_profiler_paradigm(pflow, pag, top=5)
    assert _counter("dataflow.cache.hits") == 3
    assert rows1 == rows2
    assert DiskStore(tmp_path / "pf").stats()["entries"] == 3


@pytest.mark.parametrize("spec", [None, True, False])
def test_cache_dir_rule_is_the_same_at_every_entry_point(tmp_path, spec, monkeypatch):
    """``--no-cache`` beats ``--cache-dir``; otherwise the directory is
    the cache — for every command that runs graphs, whether it reaches
    ``resolve_cache``, the ``PerFlow`` facade (``repro run``) or
    ``ServerConfig`` (``repro serve``, which used to build the disk
    cache despite ``--no-cache``)."""
    from repro import cli
    from repro.dataflow.api import PerFlow
    from repro.serve.server import ReproServer, ServerConfig

    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args, *_: seen.append(args.cache) or 0)
    root = tmp_path / "pf"
    flag = {None: [], True: ["--cache"], False: ["--no-cache"]}[spec]
    for command in (
        ["run", "cg", "--no-ledger"],
        ["paradigm", "mpi-profiler", "cg", "--no-ledger"],
        ["pag", "stats", "cg"],
        ["serve"],
    ):
        cli.main(command + flag + ["--cache-dir", str(root)])
    assert seen == [False if spec is False else str(root)] * 4
    server = ReproServer(ServerConfig(cache=seen[0]))
    server._pool.shutdown(wait=True)
    resolved = [resolve_cache(seen[0]), PerFlow(cache=seen[0]).cache or None, server.cache]
    if spec is False:
        assert resolved == [None, None, None]
    else:
        assert [c.disk.root for c in resolved] == [root] * 3


def test_mpi_profiler_warm_rerun_acceptance():
    """The issue's acceptance criterion: a warm-cache rerun of the
    mpi_profiler paradigm on cg skips every pass node, verified via the
    ``dataflow.cache.hits`` metric and golden equality."""
    from repro.apps import npb
    from repro.dataflow.api import PerFlow
    from repro.paradigms.mpi_profiler import mpi_profiler_paradigm

    pflow = PerFlow(cache=PassCache())
    pag = pflow.run(bin=npb.build_cg("S", iterations=3), nprocs=8)
    golden = mpi_profiler_paradigm(pflow, pag, top=10)
    assert _counter("dataflow.cache.hits") == 0
    warm = mpi_profiler_paradigm(pflow, pag, top=10)
    assert _counter("dataflow.cache.hits") == 3  # every pass node skipped
    assert _counter("dataflow.cache.misses") == 3  # all from the cold run
    assert warm == golden
