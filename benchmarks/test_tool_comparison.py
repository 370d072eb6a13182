"""§5.3's tool comparison on ZeusMP.

* **mpiP** reports mpi_allreduce_ growing from a negligible share at 16
  ranks to a large one at 2,048 (paper: 0.06% → 7.93%) — but only as a
  statistic, localization is manual;
* **HPCToolkit** flags scalability losses on mpi_allreduce_/mpi_waitall_
  nodes but provides no causal edges;
* **Scalasca** finds wait states automatically but costs ~56.7% runtime
  overhead and ~57.6 GB of traces at 128 ranks, where PerFlow pays
  ~1.56% and a few MB;
* implementation effort: the PerFlow paradigm is ~27 lines vs ScalAna's
  thousands (covered in test_case_zeusmp).
"""

import pytest

from repro.pag.formats import storage_size
from repro.pag.views import build_top_down_view
from repro.runtime.executor import run_program
from repro.runtime.sampler import dynamic_overhead_percent
from repro.tools import hpctoolkit_profile, mpip_profile, scalasca_trace
from repro.tools.hpctoolkit import scalability_issues

from benchmarks.conftest import print_table

PAPER_MPIP_ALLREDUCE = (0.06, 7.93)  # % at 16 and 2048 ranks
PAPER_SCALASCA = (56.72, 57.64)  # overhead %, storage GB @128
PAPER_PERFLOW = (1.56, 2.4e6)  # overhead %, storage bytes @128


def test_mpip_allreduce_growth(benchmark, zeusmp_runs):
    prog = zeusmp_runs["program"]

    def profiles():
        small = mpip_profile(prog, 16, run=zeusmp_runs[16])
        large = mpip_profile(prog, 2048, run=zeusmp_runs[2048])
        return small.pct_of("mpi_allreduce_"), large.pct_of("mpi_allreduce_")

    p16, p2048 = benchmark.pedantic(profiles, rounds=1, iterations=1)
    print_table(
        "mpiP: mpi_allreduce_ share of total time (%)",
        ["ranks", "paper", "measured"],
        [[16, PAPER_MPIP_ALLREDUCE[0], f"{p16:.2f}"], [2048, PAPER_MPIP_ALLREDUCE[1], f"{p2048:.2f}"]],
    )
    assert p16 < 3.0  # negligible-to-small at 16 ranks
    assert p2048 > 3 * p16  # the share explodes with scale
    assert p2048 == pytest.approx(PAPER_MPIP_ALLREDUCE[1], rel=0.6)


def test_hpctoolkit_flags_without_causes(benchmark, zeusmp_runs):
    prog = zeusmp_runs["program"]

    def analyze():
        small = hpctoolkit_profile(prog, 16, run=zeusmp_runs[16])
        large = hpctoolkit_profile(prog, 2048, run=zeusmp_runs[2048])
        return scalability_issues(small, large)

    issues = benchmark.pedantic(analyze, rounds=1, iterations=1)
    names = {n for n, _ in issues}
    print_table(
        "HPCToolkit: flagged scalability losses",
        ["node", "growth x"],
        [[n, f"{g:.1f}"] for n, g in issues[:8]],
    )
    assert names & {"mpi_allreduce_", "mpi_waitall_"}
    # flat (name, growth) pairs only — no root-cause chain in the output
    assert all(len(item) == 2 for item in issues)


def test_scalasca_vs_perflow_costs(benchmark, all_programs):
    prog = all_programs["zeusmp"]

    def measure():
        run = run_program(prog, nprocs=128)
        trace = scalasca_trace(prog, 128, run=run)
        td, _ = build_top_down_view(prog, run)
        return trace, dynamic_overhead_percent(run), storage_size(td)

    trace, pf_overhead, pf_storage = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Scalasca vs PerFlow @128 ranks (ZeusMP)",
        ["metric", "Scalasca(P)", "Scalasca(M)", "PerFlow(P)", "PerFlow(M)"],
        [
            ["overhead %", PAPER_SCALASCA[0], f"{trace.overhead_pct:.2f}", PAPER_PERFLOW[0], f"{pf_overhead:.2f}"],
            ["storage", f"{PAPER_SCALASCA[1]} GB", f"{trace.storage_gb:.2f} GB", "2.4 MB", f"{pf_storage/1e6:.2f} MB"],
        ],
    )
    assert trace.overhead_pct == pytest.approx(PAPER_SCALASCA[0], rel=0.1)
    assert trace.storage_gb == pytest.approx(PAPER_SCALASCA[1], rel=0.5)
    assert pf_overhead == pytest.approx(PAPER_PERFLOW[0], rel=0.3)
    assert 0.2e6 < pf_storage < 10e6
    # the comparison's point: orders of magnitude apart
    assert trace.overhead_pct / pf_overhead > 20
    assert trace.storage_bytes / pf_storage > 1000
    # Scalasca does find causes (it is capable, just expensive)
    assert trace.wait_states


def test_scalana_reaches_same_conclusion(benchmark, zeusmp_runs):
    """ScalAna (the precursor) localizes the same scaling-loss region."""
    from repro.tools import scalana_analyze

    prog = zeusmp_runs["program"]
    rep = benchmark.pedantic(
        scalana_analyze,
        args=(prog, 16, 2048),
        kwargs={"runs": (zeusmp_runs[16], zeusmp_runs[2048]), "max_ranks": 32},
        rounds=1,
        iterations=1,
    )
    loss_names = {n for n, _d, _l in rep.scaling_loss}
    assert loss_names & {"mpi_waitall_", "mpi_allreduce_", "nudt", "loop_1"}
    assert rep.root_causes
