"""Disabled-mode observability overhead must stay under 2%.

The :func:`repro.obs.trace.span` fast path is one module-global read,
one identity check, and a shared no-op object — no allocation, no
clock read.  This benchmark holds that promise against the LAMMPS
parallel-view paradigm (the heaviest instrumented flow in the repo):

1. measure the per-call cost of the disabled ``span()`` path directly,
2. count how many ``span()`` calls one paradigm run actually makes
   (by running it once under a real recorder),
3. assert ``calls x per_call_cost < 2% x paradigm_wall_time``.

Measuring "the same code with the instrumentation deleted" is not
possible without a second copy of the tree, so the guard bounds the
*added* cost from above: every disabled call site pays one fast-path
invocation, and the product of count and unit cost is the total bill.

Each test prints one JSON line (run with ``-s``) for the CI perf-smoke
job, matching ``test_pag_core_perf.py``.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from repro.apps import lammps, registry
from repro.obs import trace as obs_trace
from repro.paradigms import mpi_profiler_paradigm
from repro.dataflow.api import PerFlow

#: Maximum share of paradigm wall time the disabled span path may cost.
OVERHEAD_BUDGET_PCT = 2.0

SCALED_RANKS = 16


def _emit(name: str, **numbers) -> None:
    print(json.dumps({"benchmark": name, **numbers}), file=sys.stderr)


def _best_of(fn, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.fixture(scope="module")
def lammps_paradigm():
    """A closed paradigm runnable repeatedly: LAMMPS mpiP profile."""
    prog = registry("C")["lammps"]()
    pflow = PerFlow(machine=lammps.MACHINE)
    pag = pflow.run(bin=prog, nprocs=SCALED_RANKS)

    def run_once():
        return mpi_profiler_paradigm(pflow, pag, top=20)

    return run_once


def test_disabled_span_call_is_nanoseconds():
    """Unit cost of the disabled fast path, measured in isolation."""
    assert not obs_trace.enabled()
    N = 200_000

    def burn():
        for _ in range(N):
            with obs_trace.span("bench", category="x", n=1):
                pass

    per_call = _best_of(burn) / N
    _emit("disabled_span_unit_cost", ns_per_call=round(per_call * 1e9, 1))
    # Generous ceiling: the path is ~100-200ns on laptop-class cores;
    # 2µs absorbs the slowest CI runner while still catching an
    # accidental allocation or clock read on the disabled path.
    assert per_call < 2e-6


def test_disabled_overhead_under_two_percent(lammps_paradigm):
    run_once = lammps_paradigm
    assert not obs_trace.enabled()

    # How many spans does one paradigm run actually open?
    rec = obs_trace.enable()
    try:
        rows = run_once()
    finally:
        obs_trace.disable()
    assert rows, "paradigm produced no profile rows"
    n_spans = len(rec.spans)
    assert n_spans >= 6  # pipeline + check + 4 nodes

    # Wall time of the paradigm with tracing disabled (the normal mode).
    paradigm_s = _best_of(run_once)

    # Unit cost of one disabled span() call at these exact call shapes.
    N = 100_000

    def burn():
        for _ in range(N):
            with obs_trace.span("node:bench", category="dataflow.pass", node_id=1):
                pass

    per_call = _best_of(burn) / N

    added = n_spans * per_call
    overhead_pct = 100.0 * added / paradigm_s
    _emit(
        "disabled_tracing_overhead",
        spans_per_run=n_spans,
        ns_per_disabled_call=round(per_call * 1e9, 1),
        paradigm_seconds=round(paradigm_s, 4),
        overhead_pct=round(overhead_pct, 4),
        budget_pct=OVERHEAD_BUDGET_PCT,
    )
    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"disabled tracing costs {overhead_pct:.3f}% of the LAMMPS "
        f"mpi-profiler paradigm ({n_spans} spans x {per_call * 1e9:.0f} ns "
        f"over {paradigm_s:.3f} s)"
    )


def test_flight_enabled_overhead_under_two_percent(lammps_paradigm):
    """The always-on flight recorder must fit the same <2% budget.

    The flight recorder is the bounded span recorder every CLI process
    installs (``flight.enable()``): each ``span()`` call allocates one
    ``Span`` with its args, pushes and pops the thread's open stack, and
    appends to the ring under a lock.  Same methodology as the
    disabled-mode guard: count the spans one paradigm run opens, price
    one recorded call, and bound the added cost from above.
    """
    from repro.obs import flight as obs_flight

    run_once = lammps_paradigm
    assert not obs_trace.enabled()

    rec = obs_trace.enable()
    try:
        run_once()
    finally:
        obs_trace.disable()
    n_spans = len(rec.spans)

    paradigm_s = _best_of(run_once)

    N = 100_000
    fl = obs_flight.enable()
    try:
        assert obs_trace.get_recorder() is fl
        assert fl.capacity == obs_flight.DEFAULT_CAPACITY

        def burn():
            for _ in range(N):
                with obs_trace.span("node:bench", category="dataflow.pass", node_id=1):
                    pass

        per_call = _best_of(burn) / N
    finally:
        obs_flight.disable()
    assert fl.total >= N  # the ring really was being written
    assert len(fl) == obs_flight.DEFAULT_CAPACITY

    added = n_spans * per_call
    overhead_pct = 100.0 * added / paradigm_s
    _emit(
        "flight_recorder_overhead",
        spans_per_run=n_spans,
        ns_per_flight_call=round(per_call * 1e9, 1),
        paradigm_seconds=round(paradigm_s, 4),
        overhead_pct=round(overhead_pct, 4),
        budget_pct=OVERHEAD_BUDGET_PCT,
    )
    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"flight recording costs {overhead_pct:.3f}% of the LAMMPS "
        f"mpi-profiler paradigm ({n_spans} spans x {per_call * 1e9:.0f} ns "
        f"over {paradigm_s:.3f} s)"
    )
