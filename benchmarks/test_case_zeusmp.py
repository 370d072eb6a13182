"""Case study A — ZeusMP (paper §5.3, Figs. 8-10, Listing 7/8).

Reproduces:

* the scaling numbers: speedup at 2,048 ranks ≈ 72.57× (16-rank
  baseline), rising to ≈ 77.71× after the fix, a ≈ 6.91% improvement;
* Fig. 9: the differential pass flags the timestep loop,
  ``mpi_waitall_`` and ``mpi_allreduce_`` with scaling loss;
* Fig. 10: backtracking over the parallel view walks from the waiting
  collectives through the ``mpi_waitall_`` chain into the imbalanced
  ``loop_10.1`` region of ``bvald``;
* Listing 7's effort claim: the whole paradigm is a few dozen lines.
"""

import inspect

import pytest

from repro.dataflow.api import PerFlow, RunContext
from repro.pag.edge import EdgeLabel
from repro.pag.views import build_top_down_view
from repro.paradigms import scalability_analysis_paradigm
from repro.paradigms import scalability as scalability_module

from benchmarks.conftest import print_table
from tests.conftest import code_lines

PAPER_SPEEDUP = 72.57
PAPER_SPEEDUP_OPT = 77.71
PAPER_IMPROVEMENT_PCT = 6.91


@pytest.fixture(scope="module")
def pflow_with_pags(zeusmp_runs):
    """Wire the session runs into a PerFlow instance (avoids re-running)."""
    pflow = PerFlow()
    prog = zeusmp_runs["program"]
    pags = {}
    for key in (16, 2048):
        run = zeusmp_runs[key]
        pag, sr = build_top_down_view(prog, run)
        pflow._contexts[id(pag)] = RunContext(prog, run, sr, pag)
        pags[key] = pag
    return pflow, pags


def test_scaling_numbers(benchmark, zeusmp_runs):
    def compute():
        t16 = zeusmp_runs[16].elapsed
        t2048 = zeusmp_runs[2048].elapsed
        t16o = zeusmp_runs[(16, "opt")].elapsed
        t2048o = zeusmp_runs[(2048, "opt")].elapsed
        return t16 / t2048, t16o / t2048o, 100.0 * (t2048 / t2048o - 1.0)

    speedup, speedup_opt, improvement = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "ZeusMP scaling (16 -> 2048 ranks)",
        ["metric", "paper", "measured"],
        [
            ["speedup", PAPER_SPEEDUP, f"{speedup:.2f}"],
            ["speedup (optimized)", PAPER_SPEEDUP_OPT, f"{speedup_opt:.2f}"],
            ["improvement @2048 (%)", PAPER_IMPROVEMENT_PCT, f"{improvement:.2f}"],
        ],
    )
    assert speedup == pytest.approx(PAPER_SPEEDUP, rel=0.15)
    assert speedup_opt == pytest.approx(PAPER_SPEEDUP_OPT, rel=0.15)
    assert speedup_opt > speedup
    assert improvement == pytest.approx(PAPER_IMPROVEMENT_PCT, abs=3.0)


def test_fig9_differential_flags_scaling_losers(benchmark, pflow_with_pags):
    pflow, pags = pflow_with_pags

    def run_diff():
        V_diff = pflow.differential_analysis(pags[2048].vs, pags[16].vs)
        V_hot = pflow.hotspot_detection(V_diff, n=12)
        # Fig. 8 wires the differential output through BOTH hotspot and
        # imbalance passes; Fig. 9's detected set is their union.
        V_imb = pflow.imbalance_analysis(V_diff)
        return V_hot, pflow.union(V_hot, V_imb)

    V_hot, V_union = benchmark.pedantic(run_diff, rounds=1, iterations=1)
    hot_names = [v.name for v in V_hot]
    union_names = {v.name for v in V_union}
    print_table("Fig. 9: top scaling-loss vertices", ["name"], [[n] for n in hot_names])
    # the synchronizing collective and the loops lose the most in aggregate
    assert "mpi_allreduce_" in hot_names
    assert any(n.startswith("loop") for n in union_names)
    # the waitall chain is flagged via its extreme per-rank skew
    assert "mpi_waitall_" in union_names


def test_fig10_backtracking_paths(benchmark, pflow_with_pags):
    pflow, pags = pflow_with_pags

    def run_paradigm():
        return scalability_analysis_paradigm(
            pflow, pags[16], pags[2048], max_ranks=64
        )

    res = benchmark.pedantic(run_paradigm, rounds=1, iterations=1)
    path_names = {v.name for v in res.V_bt}
    # the propagation chain: waitalls and the bvald boundary loop region
    assert "mpi_waitall_" in path_names
    assert path_names & {"bc_update", "loop_10.1", "loop_10", "bvald"}
    # red bold arrows of Fig. 10: inter-process edges on the paths
    assert any(e.label is EdgeLabel.INTER_PROCESS for e in res.E_bt)
    # imbalanced instances concentrate on the heavy ranks (0, 16, 32, ...)
    imb_procs = {v["process"] for v in res.V_bt if v.name in ("bc_update", "loop_10.1")}
    if imb_procs:
        assert any(p % 16 == 0 for p in imb_procs)
    print_table(
        "Fig. 10: backtracking summary",
        ["quantity", "value"],
        [
            ["path vertices", len(res.V_bt)],
            ["path edges", len(res.E_bt)],
            ["root candidates", len(res.roots)],
        ],
    )


def test_listing7_effort_claim(benchmark):
    """§5.3: 27 LoC with 7 high-level + 5 low-level APIs vs ScalAna's
    thousands of lines."""

    def count():
        # The paper's 27 lines cover the user-defined backtracking pass
        # plus the paradigm body (Listing 7): both whole functions,
        # signatures included, minus comments and docstrings.
        return sum(
            code_lines(inspect.getsource(fn))
            for fn in (
                scalability_module._user_backtracking,
                scalability_module.scalability_analysis_paradigm,
            )
        )

    n_lines = benchmark.pedantic(count, rounds=1, iterations=1)
    from repro.tools import SCALANA_SOURCE_LINES

    print_table(
        "Implementation effort (scalability analysis)",
        ["tool", "lines of code"],
        [
            ["PerFlow paradigm (paper)", 27],
            ["PerFlow paradigm (ours)", n_lines],
            ["ScalAna", SCALANA_SOURCE_LINES],
        ],
    )
    assert n_lines <= 45
    assert SCALANA_SOURCE_LINES / n_lines > 100
