"""Tests for performance-data embedding and the two PAG views."""

import numpy as np
import pytest

from repro.apps import registry
from repro.pag.edge import CommKind, EdgeLabel
from repro.pag.views import (
    build_parallel_view,
    build_top_down_view,
    parallel_view_stats,
)
from repro.pag.vertex import VertexLabel
from repro.runtime.executor import run_program

from tests.conftest import make_ring_program, make_threaded_program


@pytest.fixture
def ring_run(imbalanced_ring):
    run = run_program(imbalanced_ring, nprocs=4)
    td, sr = build_top_down_view(imbalanced_ring, run)
    return imbalanced_ring, run, td, sr


def test_root_time_is_sum_of_rank_elapsed(ring_run):
    _p, run, td, _sr = ring_run
    root = td.vertex(0)
    assert root["time"] == pytest.approx(sum(run.per_rank_elapsed.values()), rel=1e-6)
    pr = root["time_per_rank"]
    for rank in range(4):
        assert pr[rank] == pytest.approx(run.per_rank_elapsed[rank], rel=1e-6)


def test_inclusive_ge_exclusive_and_children(ring_run):
    _p, _run, td, _sr = ring_run
    for v in td.vertices():
        t = v["time"]
        if t is None:
            continue
        assert t >= (v["excl_time"] or 0.0) - 1e-12
        child_sum = sum((c["time"] or 0.0) for c in td.successors(v))
        assert t >= child_sum - 1e-9


def test_imbalanced_rank_visible_in_per_rank_vector(ring_run):
    _p, _run, td, _sr = ring_run
    work = next(v for v in td.vertices() if v.name == "compute")
    pr = work["time_per_rank"]
    assert int(np.argmax(pr)) == 2
    assert pr[2] > 2.5 * pr[0]


def test_comm_info_bytes(ring_run):
    _p, _run, td, _sr = ring_run
    isend = next(v for v in td.vertices() if v.name == "MPI_Isend")
    assert isend["comm-info"]["bytes"] == pytest.approx(1024 * 3 * 4)  # 3 iters x 4 ranks
    assert isend["bytes_per_rank"].sum() == pytest.approx(1024 * 3 * 4)


def test_pmu_counters_synthesized(ring_run):
    _p, _run, td, _sr = ring_run
    work = next(v for v in td.vertices() if v.name == "compute")
    assert work["cycles"] > 0
    assert work["instructions"] > 0
    # waits do not generate compute counters
    waitall = next(v for v in td.vertices() if v.name == "MPI_Waitall")
    if waitall["cycles"] is not None:
        assert waitall["cycles"] < work["cycles"]


def test_metadata_after_embedding(ring_run):
    _p, run, td, _sr = ring_run
    assert td.metadata["nprocs"] == 4
    assert td.metadata["elapsed"] == pytest.approx(run.elapsed)
    assert td.metadata["unresolved_contexts"] == 0


def test_parallel_view_shape(ring_run):
    _p, run, td, sr = ring_run
    pv = build_parallel_view(td, sr, run)
    ntd = td.num_vertices
    assert pv.num_vertices == ntd * 4
    # flow edges: (ntd - 1) per rank
    flow_edges = [
        e for e in pv.edges() if e.label in (EdgeLabel.INTRA_PROCEDURAL, EdgeLabel.INTER_PROCEDURAL)
    ]
    assert len(flow_edges) == (ntd - 1) * 4
    # every flow vertex carries its process id
    assert pv.vertex(0)["process"] == 0
    assert pv.vertex(ntd)["process"] == 1


def test_parallel_view_comm_edges(ring_run):
    _p, run, td, sr = ring_run
    pv = build_parallel_view(td, sr, run)
    comm = [e for e in pv.edges() if e.label is EdgeLabel.INTER_PROCESS]
    p2p = [e for e in comm if e.comm_kind is not CommKind.COLLECTIVE]
    coll = [e for e in comm if e.comm_kind is CommKind.COLLECTIVE]
    # 3 iterations x 4 ranks p2p events
    assert len(p2p) == 12
    # 3 allreduces x (nprocs-1) star edges
    assert len(coll) == 9


def test_parallel_view_stats_matches_materialized(ring_run):
    _p, run, td, sr = ring_run
    pv = build_parallel_view(td, sr, run)
    nv, ne = parallel_view_stats(td, run)
    assert (nv, ne) == (pv.num_vertices, pv.num_edges)


def test_parallel_view_stats_matches_with_max_ranks(ring_run):
    _p, run, td, sr = ring_run
    pv = build_parallel_view(td, sr, run, max_ranks=2)
    nv, ne = parallel_view_stats(td, run, max_ranks=2)
    assert (nv, ne) == (pv.num_vertices, pv.num_edges)


def test_parallel_view_thread_expansion():
    prog = make_threaded_program()
    run = run_program(prog, nprocs=2, nthreads=3, params={"nthreads": 3})
    td, sr = build_top_down_view(prog, run)
    pv = build_parallel_view(td, sr, run, expand_threads=True)
    # one flow per rank main thread plus one per spawned thread
    assert pv.num_vertices == td.num_vertices * 2 * (3 + 1)
    inter_thread = [e for e in pv.edges() if e.label is EdgeLabel.INTER_THREAD]
    assert len(inter_thread) == len(run.lock_events)
    # holder and waiter flows differ
    for e in inter_thread:
        assert e.src["thread"] != e.dst["thread"] or e.src.id != e.dst.id
    nv, ne = parallel_view_stats(td, run, expand_threads=True)
    assert (nv, ne) == (pv.num_vertices, pv.num_edges)


def test_parallel_view_times_are_per_unit(ring_run):
    _p, run, td, sr = ring_run
    pv = build_parallel_view(td, sr, run)
    ntd = td.num_vertices
    compute_td = next(v for v in td.vertices() if v.name == "compute")
    t_rank2 = pv.vertex(2 * ntd + compute_td.id)["time"]
    t_rank0 = pv.vertex(0 * ntd + compute_td.id)["time"]
    assert t_rank2 > 2.5 * t_rank0


def test_static_only_top_down(ring_program):
    td, sr = build_top_down_view(ring_program)
    assert td.vertex(0)["time"] is None
    assert td.num_edges == td.num_vertices - 1


def test_slice_parallel_view(ring_run):
    from repro.pag.views import slice_parallel_view

    _p, run, td, sr = ring_run
    pv = build_parallel_view(td, sr, run)
    # flows of two ranks only
    sub = slice_parallel_view(pv, ranks=(0, 1))
    assert 0 < sub.num_vertices <= 2 * td.num_vertices
    assert all(v["process"] in (0, 1) for v in sub.vertices())
    assert all(v["orig_id"] is not None for v in sub.vertices())
    # by-name slicing keeps only the named code snippets
    sub2 = slice_parallel_view(pv, names=("MPI_Waitall",))
    assert {v.name for v in sub2.vertices()} == {"MPI_Waitall"}
    assert sub2.num_vertices == 4
    # neighborhood slicing pulls in adjacent vertices across edge kinds
    waitall = next(v for v in pv.vertices() if v.name == "MPI_Waitall")
    sub3 = slice_parallel_view(pv, names=(), around=(waitall.id,), hops=1)
    assert sub3.num_vertices >= 3
    assert sub3.metadata["sliced"] is True


# ---------------------------------------------------------------------------
# embed_samples holds rows only for vertices with data; the dense version it
# replaced (one nprocs-wide row per top-down vertex) is the reference
# ---------------------------------------------------------------------------
def _embedded_both_ways(app: str, nprocs: int):
    from repro.ir.static_analysis import analyze
    from repro.pag.embedding import embed_samples

    from tests import reference_shim as ref

    program = registry("S")[app]()
    run = run_program(program, nprocs=nprocs)
    got = embed_samples(analyze(program, run.indirect_targets), run)
    want = ref.embed_samples(analyze(program, run.indirect_targets), run)
    return got, want


@pytest.mark.parametrize("nprocs", [8, 64])
@pytest.mark.parametrize("app", sorted(registry("S")))
def test_embedding_equals_dense_reference_on_every_bundled_app(app, nprocs):
    from repro.cache import fingerprint_pag

    got, want = _embedded_both_ways(app, nprocs)
    assert got.vertex(0)["time"] > 0.0
    assert fingerprint_pag(got) == fingerprint_pag(want)


def test_embedding_allocates_for_vertices_with_data_not_for_the_view():
    """ZeusMP at 256 ranks: 11,981 top-down vertices, a few dozen with
    data.  Five dense (vertices x ranks) float64 matrices are ~120 MB."""
    import tracemalloc

    from repro.ir.static_analysis import analyze
    from repro.pag.embedding import embed_samples

    program = registry("S")["zeusmp"]()
    run = run_program(program, nprocs=256)
    static_result = analyze(program, run.indirect_targets)
    assert static_result.pag.num_vertices * 256 * 8 * 5 > 100e6
    tracemalloc.start()
    try:
        embed_samples(static_result, run)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
