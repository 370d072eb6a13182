"""Golden regression fixtures for the built-in paradigms.

Normalized report outputs for the ``mpi_profiler``, ``scalability``,
and ``critical_path`` paradigms are committed under ``tests/goldens/``
(for the contention paradigm: the CLI's own stdout on Vite);
these tests regenerate the same normalized text and compare it verbatim
so that scheduler (and future) refactors can't silently change analysis
*results* while keeping tests green.  The PerFlowGraph-backed paradigm
is additionally run under ``jobs=4`` and must match the same golden —
the serial-equivalence contract, checked against real pipelines.

The simulated runtime is deterministic, so exact text comparison is
sound; floats are rounded to 6 decimals to stay stable across numpy
versions.  To regenerate after an *intentional* analysis change::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_goldens.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.apps import microbench, registry
from repro.dataflow.api import PerFlow
from repro.paradigms import (
    critical_path_paradigm,
    mpi_profiler_paradigm,
    scalability_analysis_paradigm,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
REGEN = os.environ.get("GOLDEN_REGEN") == "1"


def _fmt(x: float) -> str:
    return f"{round(float(x), 6):.6f}"


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden {path.name}; run with GOLDEN_REGEN=1 to create it"
    )
    assert text == path.read_text(encoding="utf-8"), (
        f"paradigm output diverged from {path.name}; if the analysis change "
        "is intentional, regenerate with GOLDEN_REGEN=1"
    )


# ----------------------------------------------------------------------
# normalized renderings (stable field order, rounded floats)
# ----------------------------------------------------------------------


def _render_mpi_rows(rows) -> str:
    lines = [f"rows {len(rows)}"]
    for r in rows:
        lines.append(
            f"{r.name} site={r.site} time={_fmt(r.time)} app_pct={_fmt(r.app_pct)} "
            f"count={r.count} bytes={_fmt(r.total_bytes)} "
            f"rank_time={_fmt(r.min_rank_time)}/{_fmt(r.mean_rank_time)}/{_fmt(r.max_rank_time)}"
        )
    return "\n".join(lines) + "\n"


def _render_vset(label, V, attrs=("debug-info", "time")) -> list:
    lines = [f"{label} {len(V)}"]
    for v in V:
        parts = [str(v.name)]
        for attr in attrs:
            val = v[attr]
            parts.append(_fmt(val) if isinstance(val, float) else str(val))
        lines.append("  " + " ".join(parts))
    return lines


def _render_scalability(res) -> str:
    lines = []
    lines += _render_vset("V_hot", res.V_hot)
    lines += _render_vset("V_imb", res.V_imb)
    lines += _render_vset("V_bt", res.V_bt)
    lines.append(f"E_bt {len(res.E_bt)}")
    lines.append("roots " + " ".join(str(v.name) for v in res.roots))
    return "\n".join(lines) + "\n"


def _render_critical_path(res) -> str:
    lines = [f"weight {_fmt(res.weight)}", f"path {len(res.summary)}"]
    for name, proc, thread, weight in res.summary:
        lines.append(f"  {name} p{proc} t{thread} {_fmt(weight)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# fixtures: one simulated run set, shared across the module
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_ctx():
    pflow = PerFlow()
    prog = microbench.build()
    return pflow, {
        4: pflow.run(bin=prog, nprocs=4, nthreads=4),
        16: pflow.run(bin=prog, nprocs=16, nthreads=4),
    }


# ----------------------------------------------------------------------
# goldens
# ----------------------------------------------------------------------


def test_golden_mpi_profiler_microbench(micro_ctx):
    _, pags = micro_ctx
    serial = mpi_profiler_paradigm(PerFlow(jobs=1), pags[4], top=10)
    parallel = mpi_profiler_paradigm(PerFlow(jobs=4), pags[4], top=10)
    assert _render_mpi_rows(parallel) == _render_mpi_rows(serial)
    _check_golden("mpi_profiler_microbench.txt", _render_mpi_rows(serial))


def test_golden_mpi_profiler_cg():
    """The microbench has no MPI calls; CG exercises non-trivial rows."""
    pflow = PerFlow()
    pag = pflow.run(bin=registry("W")["cg"](), nprocs=8)
    serial = mpi_profiler_paradigm(PerFlow(jobs=1), pag, top=10)
    parallel = mpi_profiler_paradigm(PerFlow(jobs=4), pag, top=10)
    assert _render_mpi_rows(parallel) == _render_mpi_rows(serial)
    assert len(serial) > 0
    _check_golden("mpi_profiler_cg.txt", _render_mpi_rows(serial))


def test_golden_scalability_microbench(micro_ctx):
    pflow, pags = micro_ctx
    res = scalability_analysis_paradigm(
        pflow, pags[4], pags[16], top=5, max_ranks=8
    )
    _check_golden("scalability_microbench.txt", _render_scalability(res))


def test_golden_mpi_profiler_microbench_process_backend(micro_ctx):
    """backend="process" must reproduce the committed golden byte-equal:
    the process boundary cannot perturb analysis results."""
    _, pags = micro_ctx
    rows = mpi_profiler_paradigm(PerFlow(jobs=2, backend="process"), pags[4], top=10)
    _check_golden("mpi_profiler_microbench.txt", _render_mpi_rows(rows))


def test_golden_mpi_profiler_cg_process_backend():
    pflow = PerFlow()
    pag = pflow.run(bin=registry("W")["cg"](), nprocs=8)
    rows = mpi_profiler_paradigm(PerFlow(jobs=2, backend="process"), pag, top=10)
    assert len(rows) > 0
    _check_golden("mpi_profiler_cg.txt", _render_mpi_rows(rows))


def test_golden_scalability_microbench_process_backend():
    """The scalability graph's impure stages pin to the coordinator and
    its fresh difference PAG degrades downstream passes to inline runs —
    but results must stay byte-identical to the golden either way."""
    # instances() needs the facade that ran the program, so this one
    # gets its own runs rather than micro_ctx's.
    pflow = PerFlow(jobs=2, backend="process")
    prog = microbench.build()
    small = pflow.run(bin=prog, nprocs=4, nthreads=4)
    large = pflow.run(bin=prog, nprocs=16, nthreads=4)
    res = scalability_analysis_paradigm(pflow, small, large, top=5, max_ranks=8)
    _check_golden("scalability_microbench.txt", _render_scalability(res))


def test_golden_critical_path_microbench(micro_ctx):
    pflow, pags = micro_ctx
    res = critical_path_paradigm(
        pflow, pags[4], max_ranks=4, expand_threads=True
    )
    _check_golden("critical_path_microbench.txt", _render_critical_path(res))


def test_golden_contention_vite_cli_stdout(capsys):
    """``repro paradigm contention vite --np 4 --threads 3``, byte for
    byte: differential suspects, embedded vertices and wait edges, hubs.
    The matcher returns an embedding once per parallel data edge and
    those repeats count against the pass's ``limit``, so this output
    moves if either side of that changes."""
    from repro.cli import main

    assert main(["paradigm", "contention", "vite", "--np", "4", "--threads", "3"]) == 0
    _check_golden("contention_vite.txt", capsys.readouterr().out)
