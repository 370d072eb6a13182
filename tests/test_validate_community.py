"""Tests for PAG invariant validation and the community-scoping pass."""

import pytest

from repro.pag.edge import EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet
from repro.pag.validate import (
    ValidationError,
    edge_label_problems,
    validate_parallel,
    validate_top_down,
)
from repro.pag.views import build_parallel_view, build_top_down_view
from repro.passes.community import community_scope
from repro.pag.vertex import VertexLabel
from repro.runtime.executor import run_program

from tests.conftest import make_ring_program, make_threaded_program


# ----------------------------------------------------------------- validate
@pytest.fixture
def built_views():
    prog = make_ring_program(imbalanced_rank=1)
    run = run_program(prog, nprocs=4)
    td, sr = build_top_down_view(prog, run)
    pv = build_parallel_view(td, sr, run)
    return td, pv


def test_real_views_validate(built_views):
    td, pv = built_views
    validate_top_down(td)
    validate_parallel(pv, td.num_vertices)


def test_all_apps_top_down_validate():
    from repro.apps import registry

    for name, build in registry("S").items():
        prog = build()
        run = run_program(prog, nprocs=4, nthreads=2)
        td, _ = build_top_down_view(prog, run)
        validate_top_down(td)
        assert edge_label_problems(td) == []


def test_validate_rejects_non_tree():
    g = PAG()
    g.add_vertex(VertexLabel.FUNCTION, "main", properties={"debug-info": "x:1"})
    g.add_vertex(VertexLabel.LOOP, "l", properties={"debug-info": "x:2"})
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)  # duplicate parent
    with pytest.raises(ValidationError, match="not a tree"):
        validate_top_down(g)


def test_validate_rejects_comm_edge_in_top_down(built_views):
    td, _ = built_views
    bad = td.copy()
    bad.add_vertex(VertexLabel.INSTRUCTION, "x", properties={"debug-info": "x:1"})
    bad.add_edge(0, bad.num_vertices - 1, EdgeLabel.INTER_PROCESS)
    with pytest.raises(ValidationError):
        validate_top_down(bad)


def test_validate_rejects_missing_root():
    g = PAG()
    g.add_vertex(VertexLabel.LOOP, "l")  # and no debug-info property
    with pytest.raises(ValidationError, match="expected function") as exc:
        validate_top_down(g)
    assert "vertex 0 (l) missing debug info" in exc.value.problems


def test_validate_parallel_wrong_count(built_views):
    td, pv = built_views
    with pytest.raises(ValidationError, match="expected"):
        validate_parallel(pv, td.num_vertices + 1)


def test_validate_parallel_threaded():
    prog = make_threaded_program()
    run = run_program(prog, nprocs=2, nthreads=3, params={"nthreads": 3})
    td, sr = build_top_down_view(prog, run)
    pv = build_parallel_view(td, sr, run, expand_threads=True)
    validate_parallel(pv, td.num_vertices)


# ---------------------------------------------------------------- community
def test_community_scope_groups_interacting_ranks():
    """Two disjoint 2-rank exchange groups -> two communities."""
    from repro.ir.model import CommCall, CommOp, Function, Program, Stmt

    p = Program(name="pairs")
    p.add_function(
        Function(
            "main",
            [
                Stmt("work", cost=lambda ctx: 0.01 * (1 + ctx.rank % 2)),
                CommCall(
                    CommOp.SENDRECV,
                    peer=lambda ctx: ctx.rank ^ 1,  # pair (0,1) and (2,3)
                    nbytes=1024,
                ),
            ],
        )
    )
    run = run_program(p, nprocs=4)
    td, sr = build_top_down_view(p, run)
    pv = build_parallel_view(td, sr, run)
    groups = community_scope(pv.vs, weight="comm_bytes")
    assert len(groups) >= 2
    for group in groups:
        procs = {v["process"] for v in group}
        assert procs <= {0, 1} or procs <= {2, 3}
    # the list position is the community: the groups are disjoint and
    # nothing is written onto the graph
    members = [v.id for g in groups for v in g]
    assert len(members) == len(set(members))
    assert not any("community" in v for v in pv.vertices())


def test_community_scope_orders_by_wait(built_views):
    _td, pv = built_views
    groups = community_scope(pv.vs)
    if len(groups) >= 2:
        waits = [sum(float(v["wait"] or 0) for v in g) for g in groups]
        assert waits == sorted(waits, reverse=True)


def test_community_scope_empty_cases():
    assert community_scope(VertexSet([])) == []
    g = PAG()
    g.add_vertex(VertexLabel.INSTRUCTION, "lonely")
    assert community_scope(g.vs) == []  # no cross edges at all
