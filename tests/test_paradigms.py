"""Tests for the built-in paradigms (§4.4) on the modelled applications."""

import pytest

from tests.conftest import code_lines
from repro.apps import microbench, npb, vite, zeusmp
from repro.dataflow.api import PerFlow
from repro.paradigms import (
    branching_diagnosis_paradigm,
    communication_analysis_paradigm,
    critical_path_paradigm,
    loop_causal_paradigm,
    mpi_profiler_paradigm,
    scalability_analysis_paradigm,
)


@pytest.fixture(scope="module")
def pflow():
    return PerFlow()


# ------------------------------------------------------------- MPI profiler
def test_mpi_profiler_on_cg(pflow):
    """Appendix A.3.1: the MPI profiler paradigm on NPB-CG, 8 ranks."""
    pag = pflow.run(bin=npb.build_cg("S", iterations=3), nprocs=8)
    rows = mpi_profiler_paradigm(pflow, pag)
    assert rows, "CG must show MPI activity"
    assert rows == sorted(rows, key=lambda r: -r.time)
    names = {r.name for r in rows}
    assert "MPI_Sendrecv" in names or "MPI_Allreduce" in names
    for r in rows:
        assert 0 <= r.app_pct <= 100
        assert r.min_rank_time <= r.mean_rank_time <= r.max_rank_time


# ------------------------------------------------------------- communication
def test_communication_analysis_fig2(pflow):
    prog = zeusmp.build(steps=2)
    pag = pflow.run(bin=prog, nprocs=16)
    V_imb, V_bd, report = communication_analysis_paradigm(pflow, pag)
    assert len(V_imb) >= 1
    names = {v.name for v in V_imb}
    assert names & {"mpi_waitall_", "mpi_allreduce_"}
    assert all(v["breakdown"] for v in V_bd)
    assert "communication analysis" in report.to_text()


# ------------------------------------------------------------- scalability
def test_scalability_paradigm_finds_zeusmp_roots(pflow):
    """Case study A at test scale: diff 4 vs 32 ranks, backtrack causes."""
    prog = zeusmp.build(steps=2)
    pag_small = pflow.run(bin=prog, nprocs=4)
    pag_large = pflow.run(bin=prog, nprocs=32)
    res = scalability_analysis_paradigm(pflow, pag_small, pag_large, max_ranks=32)
    assert len(res.V_diff) == pag_large.num_vertices
    assert len(res.V_hot) >= 1
    assert len(res.V_bt) >= 1
    assert len(res.E_bt) >= 1
    # the walk traverses inter-process edges (propagation across ranks)
    from repro.pag.edge import EdgeLabel

    assert any(e.label is EdgeLabel.INTER_PROCESS for e in res.E_bt)
    # the imbalanced bvald loop's rank instances are on the paths
    names_on_path = {v.name for v in res.V_bt}
    assert {"mpi_waitall_", "mpi_allreduce_"} & names_on_path
    assert res.roots, "backtracking must surface root candidates"


def test_scalability_paradigm_loc_claim():
    """§5.3: the paradigm fits in a few dozen lines (paper: 27)."""
    import inspect

    from repro.paradigms import scalability as mod

    assert code_lines(inspect.getsource(mod.scalability_analysis_paradigm)) < 45


#: Whole-module line counts (``code_lines``): pinned so they can only fall.
PARADIGM_MODULE_LINES = {
    "scalability": 78,
    "mpi_profiler": 49,
    "lammps_loop": 51,
    "vite_branching": 40,
    "differential": 37,
    "critical_path": 20,
    "communication": 13,
}


def test_paradigm_module_line_counts_only_fall():
    import importlib
    import inspect

    counts = {
        name: code_lines(inspect.getsource(importlib.import_module(f"repro.paradigms.{name}")))
        for name in PARADIGM_MODULE_LINES
    }
    print("\nparadigm module lines:", counts)
    for name, pinned in PARADIGM_MODULE_LINES.items():
        assert counts[name] <= pinned, (name, counts[name])


def test_paradigms_take_no_execution_options():
    """A paradigm takes a ``pflow`` and PAGs (Listing 7); how its graph
    executes is set on the facade, never per paradigm."""
    import inspect

    import repro.paradigms as pkg

    for name in pkg.__all__:
        fn = getattr(pkg, name)
        if inspect.isfunction(fn):
            params = set(inspect.signature(fn).parameters)
            assert not params & {"jobs", "cache", "backend", "cost_model"}, name


# ------------------------------------------------------------- critical path
def test_critical_path_through_heaviest_thread(pflow):
    """Appendix A.3.2: critical path on the pthreads micro-benchmark."""
    pag = pflow.run(bin=microbench.build(), nprocs=1, nthreads=4, params={"nthreads": 4})
    res = critical_path_paradigm(pflow, pag, expand_threads=True)
    assert res.weight > 0
    hot_threads = [t for (_n, _p, t, w) in res.summary if w > 0.01]
    # spawned threads are numbered 1..4; the ramp makes thread 4 heaviest
    assert 4 in hot_threads


#: Critical-path weight / simulated makespan at 8 ranks with the registry's
#: default builders (NPB class W; Vite 3 threads; LAMMPS on its MACHINE).  A
#: path longer than the run is not one the run took (ROADMAP item 11, open):
#: until each cause is found, these pins keep any ratio from drifting.
CRITICAL_PATH_RATIOS = {
    "bt": 0.9998485303971957,
    "cg": 0.9966439133447421,
    "ep": 1.0007896227853932,
    "ft": 1.0208531148747446,
    "is": 1.000069178144991,
    "lammps": 0.8526177426612268,
    "lu": 1.0061077840896695,
    "mg": 0.9998544151599698,
    "sp": 0.9996936616291898,
    "vite": 1.2320876244896328,
    "zeusmp": 0.9999573811200905,
}


def test_critical_path_weight_over_makespan_is_pinned():
    from repro.apps import lammps, registry

    builders = registry()
    assert sorted(builders) == sorted(CRITICAL_PATH_RATIOS)
    for app, want in CRITICAL_PATH_RATIOS.items():
        pflow = PerFlow(machine=lammps.MACHINE if app == "lammps" else None)
        threads = app == "vite"
        pag = pflow.run(builders[app](), nprocs=8, nthreads=3 if threads else 1)
        res = critical_path_paradigm(pflow, pag, expand_threads=threads)
        assert res.weight / pflow.context(pag).run.elapsed == pytest.approx(want, rel=1e-9), app


# ------------------------------------------------------------- LAMMPS loop
def test_loop_causal_paradigm_fig11(pflow):
    from repro.apps import lammps

    prog = lammps.build(steps=2)
    pflow_l = PerFlow(machine=lammps.MACHINE)
    pag = pflow_l.run(bin=prog, nprocs=16)
    res = loop_causal_paradigm(pflow_l, pag, max_ranks=16)
    assert len(res.V_hot) >= 1
    comm_names = {v.name for v in res.V_comm}
    assert comm_names <= {"MPI_Send", "MPI_Wait", "MPI_Irecv", "MPI_Sendrecv", "MPI_Allreduce"}
    assert len(res.V_causes) >= 1
    assert "loop causal analysis" in res.report.to_text()


# ------------------------------------------------------------- Vite branching
def test_branching_diagnosis_fig14(pflow):
    prog = vite.build(phases=1)
    pflow_v = PerFlow()
    pag2 = pflow_v.run(bin=prog, nprocs=4, nthreads=2)
    pag8 = pflow_v.run(bin=prog, nprocs=4, nthreads=8)
    res = branching_diagnosis_paradigm(pflow_v, pag2, pag8, max_ranks=4)
    # differential flags the allocator vertices that grew with threads
    diff_names = {v.name for v in res.V_diff}
    assert diff_names & {"_M_realloc_insert", "allocate", "_M_emplace", "deallocate", "omp_join"}
    # contention embeddings found around them (Fig. 16)
    assert len(res.V_contention) >= 5
    assert len(res.E_contention) >= 4
    from repro.pag.edge import EdgeLabel

    assert all(e.label is EdgeLabel.INTER_THREAD for e in res.E_contention)


# ------------------------------------------------------------- differential
def test_differential_paradigm_finds_planted_regression(pflow):
    """Fig. 7's scenario: a non-hotspot vertex regresses between inputs."""
    from repro.paradigms import differential_paradigm
    from repro.ir.model import CommCall, CommOp, Function, Loop, Program, Stmt

    def build():
        p = Program(name="regress")
        p.add_function(
            Function(
                "main",
                [
                    Stmt("big_kernel", cost=0.5, line=10),
                    Loop(
                        trips=2,
                        line=20,
                        body=[
                            Stmt(
                                "small_phase",
                                # regresses 4x under the "slow" parameter
                                cost=lambda ctx: 0.02 * (4 if ctx.params.get("slow") else 1),
                                line=21,
                            )
                        ],
                    ),
                    CommCall(CommOp.ALLREDUCE, nbytes=8, line=30),
                ],
                source_file="regress.c",
                line=9,
            )
        )
        return p

    pf = PerFlow()
    pag_old = pf.run(bin=build(), nprocs=4)
    pag_new = pf.run(bin=build(), nprocs=4, params={"slow": True})
    rep = differential_paradigm(pf, pag_new, pag_old)
    assert rep.total_delta > 0
    # the regression is the small phase, not the (unchanged) hotspot
    assert rep.regressions[0].name == "small_phase"
    assert all(v.name != "big_kernel" for v in rep.regressions)
    assert rep.regressions[0]["delta_share"] > 0.5
