"""Tests for the baseline tool analogs (§5.3's comparison subjects)."""

import pytest

from repro.apps import zeusmp
from repro.runtime.executor import run_program
from repro.tools import (
    SCALANA_SOURCE_LINES,
    hpctoolkit_profile,
    mpip_profile,
    scalana_analyze,
    scalasca_trace,
)
from repro.tools.hpctoolkit import scalability_issues

from tests.conftest import make_ring_program


@pytest.fixture(scope="module")
def zmp_runs():
    prog = zeusmp.build(steps=2)
    return prog, run_program(prog, nprocs=8), run_program(prog, nprocs=64)


# ------------------------------------------------------------------- mpiP
def test_mpip_rows_and_totals(zmp_runs):
    prog, r8, _ = zmp_runs
    prof = mpip_profile(prog, 8, run=r8)
    assert prof.nprocs == 8
    assert prof.rows
    for row in prof.rows:
        assert row.count > 0
        assert 0 <= row.app_pct <= 100
    assert sum(r.app_pct for r in prof.rows) < 100


def test_mpip_allreduce_share_grows_with_scale(zmp_runs):
    prog, r8, r64 = zmp_runs
    small = mpip_profile(prog, 8, run=r8).pct_of("mpi_allreduce_")
    large = mpip_profile(prog, 64, run=r64).pct_of("mpi_allreduce_")
    assert large > small  # the §5.3 observation (0.06% -> 7.93%)


def test_mpip_report_text(zmp_runs):
    prog, r8, _ = zmp_runs
    text = mpip_profile(prog, 8, run=r8).to_text()
    assert "mpiP profile" in text
    assert "mpi_waitall_" in text


def test_mpip_overhead_light(zmp_runs):
    prog, r8, _ = zmp_runs
    assert mpip_profile(prog, 8, run=r8).overhead_pct < 10.0


# ------------------------------------------------------------- HPCToolkit
def test_hpctoolkit_cct_structure(zmp_runs):
    prog, r8, _ = zmp_runs
    prof = hpctoolkit_profile(prog, 8, run=r8)
    nodes = list(prof.root.walk())
    assert len(nodes) > 10
    hot = prof.hotspots(5)
    assert hot
    assert hot == sorted(hot, key=lambda nd: -nd.time)
    # children are reachable from the root and named
    assert all(nd.name for nd in nodes[1:])


def test_hpctoolkit_flags_scaling_issues_without_causes(zmp_runs):
    prog, r8, r64 = zmp_runs
    small = hpctoolkit_profile(prog, 8, run=r8)
    large = hpctoolkit_profile(prog, 64, run=r64)
    issues = scalability_issues(small, large)
    assert issues
    names = {n for n, _g in issues}
    # the waiting MPI calls are flagged...
    assert names & {"mpi_waitall_", "mpi_allreduce_"}
    # ...but the output is (name, growth) only: no causal edges (the
    # §5.3 point about needing analysis skills to find root causes)
    assert all(isinstance(g, float) for _n, g in issues)


# --------------------------------------------------------------- Scalasca
def test_scalasca_costs_dwarf_perflow(zmp_runs):
    prog, _r8, r64 = zmp_runs
    from repro.pag.views import build_top_down_view
    from repro.pag.formats import storage_size
    from repro.runtime.sampler import dynamic_overhead_percent

    tr = scalasca_trace(prog, 64, run=r64)
    assert tr.overhead_pct > 30
    assert tr.storage_gb > 1
    td, _ = build_top_down_view(prog, r64)
    assert tr.overhead_pct > 10 * dynamic_overhead_percent(r64)
    assert tr.storage_bytes > 100 * storage_size(td)


def test_scalasca_finds_wait_states_and_causes(zmp_runs):
    prog, r8, _ = zmp_runs
    tr = scalasca_trace(prog, 8, run=r8)
    assert tr.wait_states
    top = tr.wait_states[0]
    assert top.kind in ("late-sender", "wait-at-collective")
    assert top.cause_rank != top.victim_rank or top.kind == "late-sender"
    assert top.wait_time > 0


# ---------------------------------------------------------------- ScalAna
def test_scalana_finds_scaling_loss_and_roots(zmp_runs):
    prog, r8, r64 = zmp_runs
    rep = scalana_analyze(prog, 8, 64, runs=(r8, r64), max_ranks=16)
    assert rep.scaling_loss
    loss_names = {n for n, _d, _l in rep.scaling_loss}
    assert loss_names & {"nudt", "mpi_waitall_", "mpi_allreduce_", "loop_1"}
    assert rep.root_causes
    assert SCALANA_SOURCE_LINES > 1000  # "thousands of lines"


def test_tools_accept_fresh_runs():
    prog = make_ring_program()
    prof = mpip_profile(prog, 4)
    assert prof.nprocs == 4
    tr = scalasca_trace(prog, 4)
    assert tr.elapsed > 0
