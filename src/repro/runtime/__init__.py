"""Runtime substrate: a discrete-event simulator for MPI + threads.

The paper collects dynamic data by running real MPI/Pthreads binaries
under PMPI wrappers with PAPI sampling (§3.2).  This package replaces
that machinery with a deterministic discrete-event simulation:

* :mod:`~repro.runtime.engine` — the event engine.  Each execution unit
  (an MPI rank, or a thread within one) runs as a generator; blocking
  MPI operations, collectives, thread spawn/join and lock acquisitions
  are resolved by the engine with MPI matching semantics, so *wait
  states* — the phenomenon every case study diagnoses — emerge from the
  same causes as on a real machine (a collective completes when its last
  participant arrives; a rendezvous send completes when the receiver
  posts; a lock holder delays its waiters).
* :mod:`~repro.runtime.interpreter` — lowers the program IR once per
  run into one closure per calling-context path it reaches, and runs
  it per rank and thread with a local clock, recording per-context
  statistics through integer context ids.
* :mod:`~repro.runtime.machine` — latency/bandwidth/collective cost
  model.
* :mod:`~repro.runtime.sampler` — simulated PMU sampling (counters +
  calling contexts) and the dynamic-overhead model of Table 1.
* :mod:`~repro.runtime.tracer` — the dynamic-structure collector:
  communication events, lock events, and runtime-resolved indirect
  calls.
* :mod:`~repro.runtime.executor` — the facade: run a program model at a
  given scale and get a :class:`~repro.runtime.records.RunResult`.
"""

from repro.runtime.machine import MachineModel
from repro.runtime.records import CommEvent, LockEvent, RunResult, VertexStat
from repro.runtime.engine import DeadlockError, Engine
from repro.runtime.tracer import Tracer
from repro.runtime.executor import run_program
from repro.runtime.sampler import Sampler, SampleRecord, dynamic_overhead_percent

__all__ = [
    "MachineModel",
    "CommEvent",
    "LockEvent",
    "VertexStat",
    "RunResult",
    "Engine",
    "DeadlockError",
    "Tracer",
    "run_program",
    "Sampler",
    "SampleRecord",
    "dynamic_overhead_percent",
]
