"""Out-of-core format 3: header reads, lazy columns, fingerprint seeding.

The round-trip *content* properties live in
``tests/test_serialize_roundtrip.py``; this module covers the
out-of-core machinery itself — the binary header, the O(header)
fingerprint probe, copy-on-write column promotion, the observability
counters, the counting-sink ``storage_size``, and a committed golden
fixture guarding the on-disk layout against accidental format drift.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cache.fingerprint import fingerprint_pag
from repro.obs import metrics as obs_metrics
from repro.pag import PAG, CallKind, CommKind, EdgeLabel, VertexLabel
from repro.pag.columns import FloatColumn, SegmentBacking, StrColumn
from repro.pag.formats import (
    PAGFormatError,
    detect_format,
    load_pag,
    pag_file_fingerprint,
    pag_to_dict,
    read_header,
    save_pag,
    segment_sizes,
    storage_size,
)
from repro.pag.formats.format3 import ALIGN, HEADER_SIZE


def _sample_pag() -> PAG:
    pag = PAG("fmt3/sample", {"view": "top-down", "nprocs": 4})
    v0 = pag.add_vertex(VertexLabel.FUNCTION, "main", None, {"time": 2.5, "count": 1})
    v1 = pag.add_vertex(
        VertexLabel.CALL,
        "MPI_Allreduce",
        CallKind.COMM,
        {"time": 0.75, "debug-info": "solver.c:42", "wait": 0.5},
    )
    v2 = pag.add_vertex(
        VertexLabel.LOOP,
        "k-loop",
        None,
        {"time": 1.5, "time_per_rank": np.array([0.3, 0.5, 0.4, 0.3])},
    )
    pag.add_edge(v0, v1, EdgeLabel.INTER_PROCEDURAL, None, {"count": 12})
    pag.add_edge(v0, v2, EdgeLabel.INTRA_PROCEDURAL)
    pag.add_edge(v1, v2, EdgeLabel.INTER_PROCESS, CommKind.COLLECTIVE, {"bytes": 4096})
    return pag


@pytest.fixture()
def saved(tmp_path):
    pag = _sample_pag()
    path = tmp_path / "sample.pag3"
    # per-rank vectors kept: the save is lossless, so the stamped
    # fingerprint equals the original graph's (see the dedicated lossy
    # test below for the summarized case)
    save_pag(pag, path, include_per_rank=True, format=3)
    return pag, path


# ----------------------------------------------------------------------
# header
# ----------------------------------------------------------------------
def test_header_fields(saved):
    pag, path = saved
    hdr = read_header(path)
    assert hdr["version"] == 2
    assert hdr["num_vertices"] == 3
    assert hdr["num_edges"] == 3
    assert hdr["fingerprint"] == pag.fingerprint()
    assert hdr["data_start"] % ALIGN == 0
    assert hdr["data_start"] >= HEADER_SIZE
    for name, (off, _nbytes) in hdr["directory"]["segments"].items():
        assert off % ALIGN == 0, name


def test_detect_format(saved, tmp_path):
    _pag, path = saved
    assert detect_format(path) == 3
    # format 1 is the JSON document; reading it from a file stays supported
    p1 = tmp_path / "s1.json"
    p1.write_text(json.dumps(pag_to_dict(_pag, include_per_rank=True)))
    assert detect_format(p1) == 1
    assert load_pag(p1).fingerprint() == _pag.fingerprint()


def test_pag_file_fingerprint_matches_loaded_graph(saved):
    pag, path = saved
    fp = pag_file_fingerprint(path)
    assert fp == pag.fingerprint()
    for mmap in (False, True):
        loaded = load_pag(path, mmap=mmap)
        assert loaded.fingerprint() == fp
        assert fingerprint_pag(loaded) == fp  # forced full recompute


def test_storage_size_matches_file_exactly(saved):
    pag, path = saved
    size = os.stat(path).st_size
    assert storage_size(pag, include_per_rank=True) == size
    sizes = segment_sizes(pag, include_per_rank=True)
    assert sum(sizes.values()) == size
    assert sizes["header"] == HEADER_SIZE
    assert "v.time.data" in sizes


# ----------------------------------------------------------------------
# zero-column-read fingerprint probes
# ----------------------------------------------------------------------
def test_fingerprint_of_unmutated_mmap_pag_reads_no_columns(saved, monkeypatch):
    """The header seed means fingerprint() must never call
    content_digest on an unmutated mmap-loaded graph — which is what
    makes cache probes on warm corpora O(header)."""
    _pag, path = saved
    loaded = load_pag(path, mmap=True)

    import repro.cache.fingerprint as fp_mod

    def boom(*_a, **_k):  # pragma: no cover - must not run
        raise AssertionError("content_digest read column data")

    monkeypatch.setattr(fp_mod, "content_digest", boom)
    fp = loaded.fingerprint()
    assert fp == read_header(path)["fingerprint"]
    # cache key digests go through the same seeded path
    from repro.cache.keys import value_digest

    value_digest(loaded.vs)


def test_fingerprint_recomputes_after_mutation(saved, monkeypatch):
    _pag, path = saved
    loaded = load_pag(path, mmap=True)
    before = loaded.fingerprint()
    loaded.vertex(0)["time"] = 99.0
    after = loaded.fingerprint()
    assert after != before
    assert after == fingerprint_pag(loaded)


def test_mmap_load_parses_the_header_once(saved, monkeypatch):
    """An mmap open costs one header parse, traced or not, and its
    ``pag.load`` span reports the header + directory bytes it read."""
    import repro.pag.formats as formats
    import repro.pag.formats.format3 as format3
    from repro.obs.trace import scoped_recorder

    _pag, path = saved
    calls = []

    def counting(p):
        calls.append(p)
        return read_header(p)

    monkeypatch.setattr(format3, "read_header", counting)
    monkeypatch.setattr(formats, "read_header", counting)
    load_pag(path, mmap=True)
    assert len(calls) == 1
    with scoped_recorder() as rec:
        load_pag(path, mmap=True)
    assert len(calls) == 2
    (sp,) = rec.find("pag.load")
    assert sp.args["bytes"] == read_header(path)["data_start"] < os.stat(path).st_size


# ----------------------------------------------------------------------
# lazy columns / copy-on-write
# ----------------------------------------------------------------------
def test_mmap_load_attaches_lazy_columns(saved):
    _pag, path = saved
    loaded = load_pag(path, mmap=True)
    typed = [
        col
        for store in (loaded._vprops, loaded._eprops)
        for col in store.columns.values()
        if isinstance(col, (FloatColumn, StrColumn)) or hasattr(col, "is_lazy")
    ]
    lazy = [c for c in typed if getattr(c, "is_lazy", False)]
    assert lazy, "mmap load produced no lazy columns"
    assert all(c._backing.buffer is loaded._backing.buffer for c in lazy)
    assert isinstance(loaded._backing, SegmentBacking)
    # eager load owns everything on the heap
    eager = load_pag(path, mmap=False)
    assert eager._backing is None
    for store in (eager._vprops, eager._eprops):
        for col in store.columns.values():
            assert not getattr(col, "is_lazy", False)


def test_reads_do_not_promote(saved):
    _pag, path = saved
    loaded = load_pag(path, mmap=True)
    col = loaded._vprops.columns["time"]
    assert col.is_lazy
    assert loaded.vertex(0)["time"] == 2.5
    vals = loaded.vs.values("time")
    assert len(vals) == 3
    loaded.vs.sort_by("time")
    assert col.is_lazy, "a read path promoted the column"


def test_writes_promote_only_the_touched_column(saved):
    _pag, path = saved
    loaded = load_pag(path, mmap=True)
    time_col = loaded._vprops.columns["time"]
    count_col = loaded._vprops.columns["count"]
    loaded.vertex(0)["time"] = 5.0
    assert not time_col.is_lazy
    assert count_col.is_lazy
    assert loaded.vertex(0)["time"] == 5.0
    assert loaded.vertex(1)["time"] == 0.75  # other rows survived promotion


def test_structural_thaw_on_add_vertex(saved):
    _pag, path = saved
    loaded = load_pag(path, mmap=True)
    assert isinstance(loaded._v_label, np.ndarray)
    loaded.add_vertex(VertexLabel.FUNCTION, "late")
    assert not isinstance(loaded._v_label, np.ndarray)
    assert loaded.num_vertices == 4
    assert loaded.vertex(3).name == "late"
    assert loaded.vertex(1).name == "MPI_Allreduce"


def test_vertex_rename_thaws(saved):
    _pag, path = saved
    loaded = load_pag(path, mmap=True)
    loaded.vertex(0).name = "renamed"
    assert loaded.vertex(0).name == "renamed"
    assert not isinstance(loaded._v_name, np.ndarray)


def test_copy_of_mmap_pag_is_heap_owned(saved):
    _pag, path = saved
    loaded = load_pag(path, mmap=True)
    dup = loaded.copy()
    assert not isinstance(dup._v_label, np.ndarray)
    for store in (dup._vprops, dup._eprops):
        for col in store.columns.values():
            assert not getattr(col, "is_lazy", False)
    assert fingerprint_pag(dup) == fingerprint_pag(loaded)


def test_metrics_count_lazy_and_promotions(saved):
    _pag, path = saved
    lazy0 = obs_metrics.counter("pag.columns.lazy").value
    mat0 = obs_metrics.counter("pag.columns.materialized").value
    hdr0 = obs_metrics.counter("pag.load.header_only").value
    loaded = load_pag(path, mmap=True)
    lazy_n = obs_metrics.counter("pag.columns.lazy").value - lazy0
    assert lazy_n >= 4  # time/count/wait/debug-info at minimum
    loaded.vertex(0)["time"] = 1.0
    assert obs_metrics.counter("pag.columns.materialized").value == mat0 + 1
    pag_file_fingerprint(path)
    assert obs_metrics.counter("pag.load.header_only").value == hdr0 + 1


# ----------------------------------------------------------------------
# passes over mmap graphs
# ----------------------------------------------------------------------
def test_hotspot_pass_runs_on_mmap_pag(saved):
    from repro.passes import hotspot_detection

    _pag, path = saved
    loaded = load_pag(path, mmap=True)
    hot = hotspot_detection(loaded.vs, metric="time", n=2)
    assert [v.name for v in hot] == ["main", "k-loop"]
    # the pass is read-only: no column promoted
    assert loaded._vprops.columns["time"].is_lazy


def test_lossy_save_stamps_loaded_fingerprint(tmp_path):
    """Without include_per_rank the save summarizes per-rank vectors, so
    the header fingerprint must match the graph a loader reconstructs —
    not the (richer) original."""
    pag = _sample_pag()
    path = tmp_path / "lossy.pag3"
    save_pag(pag, path, format=3)
    fp = pag_file_fingerprint(path)
    assert fp != pag.fingerprint()  # vector was summarized away
    for mmap in (False, True):
        loaded = load_pag(path, mmap=mmap)
        assert loaded.fingerprint() == fp
        assert fingerprint_pag(loaded) == fp


def test_per_rank_convert_roundtrip(tmp_path):
    pag = _sample_pag()
    path = tmp_path / "pr.pag3"
    save_pag(pag, path, include_per_rank=True, format=3)
    loaded = load_pag(path, mmap=True)
    np.testing.assert_allclose(
        loaded.vertex(2)["time_per_rank"], [0.3, 0.5, 0.4, 0.3]
    )
    assert fingerprint_pag(loaded) == pag.fingerprint()


@pytest.mark.parametrize("mmap", [False, True])
def test_corrupt_vector_offsets_raise_pag_format_error(saved, tmp_path, mmap):
    """The vector segments are sliced by offsets read from the file: a
    table that disagrees with its rows/data is refused, not sliced."""
    _pag, path = saved
    hdr = read_header(path)
    rel, nbytes = hdr["directory"]["segments"]["v.time_per_rank.vec.offs"]
    raw = bytearray(path.read_bytes())
    last = hdr["data_start"] + rel + nbytes - 8
    raw[last : last + 8] = (10**6).to_bytes(8, "little")
    bad = tmp_path / "bad-offs.pag3"
    bad.write_bytes(bytes(raw))
    with pytest.raises(PAGFormatError, match="vector offsets"):
        load_pag(bad, mmap=mmap)


def test_mmap_flag_ignored_for_json_formats(tmp_path):
    pag = _sample_pag()
    path = tmp_path / "s.json"
    path.write_text(json.dumps(pag_to_dict(pag, include_per_rank=True)))
    loaded = load_pag(path, mmap=True)  # silently eager for JSON
    assert loaded._backing is None
    assert fingerprint_pag(loaded) == pag.fingerprint()


def test_unknown_format_rejected(tmp_path):
    pag = _sample_pag()
    for fmt in (7, 2, 1):  # 1 is a format this package reads but never writes
        with pytest.raises(ValueError, match="writable: 3"):
            save_pag(pag, tmp_path / "x", format=fmt)
    with pytest.raises(TypeError):
        storage_size(pag, format=3)  # it writes format 3 only; no format=


def test_read_header_on_non_format3_file(tmp_path):
    path = tmp_path / "j.json"
    path.write_text(json.dumps(pag_to_dict(_sample_pag())))
    with pytest.raises(PAGFormatError):
        read_header(path)


# ----------------------------------------------------------------------
# golden fixtures: committed binaries must keep loading bit-identically
# ----------------------------------------------------------------------
GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")
GOLDEN = os.path.join(GOLDENS, "format3_sample.pag3")


def _golden_pag() -> PAG:
    """Deterministic graph for the golden file (no RNG, no timestamps)."""
    pag = PAG("golden/format3", {"view": "top-down", "nprocs": 2, "case": "W"})
    a = pag.add_vertex(VertexLabel.FUNCTION, "main", None, {"time": 3.0, "count": 1})
    b = pag.add_vertex(
        VertexLabel.CALL, "MPI_Send", CallKind.COMM, {"time": 1.25, "debug-info": "m.c:7"}
    )
    c = pag.add_vertex(
        VertexLabel.LOOP,
        "iter",
        None,
        # 0.1 + 0.2 is not a 9-decimal number: a writer that rounds again
        # cannot reproduce this file
        {"time": 0.5, "time_per_rank": np.array([0.1 + 0.2, 0.2])},
    )
    pag.add_edge(a, b, EdgeLabel.INTER_PROCEDURAL, None, {"count": 4})
    pag.add_edge(a, c, EdgeLabel.INTRA_PROCEDURAL)
    pag.add_edge(b, c, EdgeLabel.INTER_PROCESS, CommKind.P2P_SYNC, {"bytes": 64})
    return pag


def test_golden_format3_fixture():
    """Set GOLDEN_REGEN=1 to regenerate after an intentional format bump."""
    pag = _golden_pag()
    if os.environ.get("GOLDEN_REGEN") == "1":
        save_pag(pag, GOLDEN, include_per_rank=True, format=3)
    assert os.path.exists(GOLDEN), "golden missing; rerun with GOLDEN_REGEN=1"
    hdr = read_header(GOLDEN)
    assert hdr["version"] == 2
    assert "v.time_per_rank.vec.data" in hdr["directory"]["segments"]
    for mmap in (False, True):
        loaded = load_pag(GOLDEN, mmap=mmap)
        assert fingerprint_pag(loaded) == pag.fingerprint()
        assert loaded.fingerprint() == pag.fingerprint()
        assert loaded.vertex(2)["time_per_rank"].tolist() == [0.1 + 0.2, 0.2]
    assert pag_file_fingerprint(GOLDEN) == pag.fingerprint()
    # byte-identical re-encode: the writer is deterministic
    import io

    sink = io.BytesIO()
    from repro.pag.formats.format3 import write_format3

    write_format3(pag, sink.write, True)
    with open(GOLDEN, "rb") as fh:
        assert fh.read() == sink.getvalue()


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize(
    "fixture", ["format3_sample_v1.pag3", "format3_vectors_v1.pag3"]
)
def test_version1_files_keep_loading_and_keep_their_stamp(fixture, mmap):
    """Load-only fixtures written before the version bump: the golden as
    it was at version 1, and a file whose per-rank vector is decimal text
    in the directory (the ``__ndarray__`` decode path).  The fingerprint
    stamped by the old writer is the one recomputed from the loaded
    columns today — old files and the cache entries keyed on them stay
    valid."""
    path = os.path.join(GOLDENS, fixture)
    hdr = read_header(path)
    assert hdr["version"] == 1
    assert not any(".vec." in name for name in hdr["directory"]["segments"])
    loaded = load_pag(path, mmap=mmap)
    assert pag_file_fingerprint(path) == loaded.fingerprint() == fingerprint_pag(loaded)
    if fixture == "format3_vectors_v1.pag3":
        vec = loaded.vertex(2)["time_per_rank"]
        assert isinstance(vec, np.ndarray) and vec.tolist() == [0.3, 0.5, 0.4, 0.3]
        assert loaded.fingerprint() == _sample_pag().fingerprint()
