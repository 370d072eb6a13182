"""Facade: run a program model at a given scale.

:func:`run_program` is the only entry point the analysis layer uses —
it plays the role of ``pflow.run(bin=..., cmd="mpirun -np N ...")``
(Listing 1): execute the program and hand back everything needed to
build PAGs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.ir.model import Program
from repro.obs import metrics as _metrics
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.runtime.engine import Engine
from repro.runtime.interpreter import Lowering
from repro.runtime.machine import MachineModel
from repro.runtime.records import RunResult
from repro.runtime.tracer import Tracer

_LOG = get_logger("runtime.executor")


def run_program(
    program: Program,
    nprocs: int = 1,
    nthreads: int = 1,
    params: Optional[Dict[str, Any]] = None,
    machine: Optional[MachineModel] = None,
) -> RunResult:
    """Simulate ``program`` on ``nprocs`` ranks and return the run record.

    ``nthreads`` is advisory: it is placed in ``params["nthreads"]`` so
    program models can size their thread teams from it (the modelled apps
    all do), and recorded on the result for reporting.

    A program that deadlocks raises
    :class:`~repro.runtime.engine.DeadlockError`, whose ``blocked``
    list names each permanently blocked unit.

    The run is fully deterministic: same program + parameters always
    produce identical results.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if nthreads < 1:
        raise ValueError("nthreads must be >= 1")
    run_params = dict(params or {})
    run_params.setdefault("nthreads", nthreads)
    with _span(
        "run.program",
        category="runtime",
        program=program.name,
        nprocs=nprocs,
        nthreads=nthreads,
    ) as sp:
        result = RunResult(program=program, nprocs=nprocs, nthreads=nthreads, params=run_params)
        tracer = Tracer()
        engine = Engine(nprocs, machine or MachineModel(), tracer)
        with _span("run.build_units", category="runtime", nprocs=nprocs):
            for rank, unit in enumerate(Lowering(program, result, tracer).ranks(nthreads)):
                engine.add_unit(rank, 0, unit)
        with _span("run.engine", category="runtime") as esp:
            result.per_rank_elapsed = engine.run()
            if esp:
                esp.set(simulated_elapsed=round(result.elapsed, 6))
        result.comm_events = tracer.comm_events
        result.lock_events = tracer.lock_events
        result.indirect_targets = tracer.indirect_targets
        if sp:
            sp.set(
                comm_events=len(result.comm_events),
                lock_events=len(result.lock_events),
            )
    _metrics.counter("runtime.runs").inc()
    _metrics.counter("runtime.comm_events").inc(len(result.comm_events))
    _metrics.counter("runtime.lock_events").inc(len(result.lock_events))
    _LOG.info(
        "simulated %s on %d ranks x %d threads: %.4fs elapsed, "
        "%d comm events, %d lock events",
        program.name,
        nprocs,
        nthreads,
        result.elapsed,
        len(result.comm_events),
        len(result.lock_events),
    )
    return result
