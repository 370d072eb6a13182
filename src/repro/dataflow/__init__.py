"""PerFlow programming abstraction: the dataflow layer.

* :mod:`~repro.dataflow.graph` — :class:`PerFlowGraph`: the dataflow
  graph of passes (vertices) and sets (edges) of §4.1/§4.2, with
  deterministic topological execution and fixpoint groups for
  repeat-until-stable analyses (Fig. 11).
* :mod:`~repro.dataflow.scheduler` — the execution core behind every
  ``PerFlowGraph.run``: one dependency-counting drive loop over an
  inline (serial, ``jobs=1``) or thread-pool executor, with
  serial-identical semantics.
* :mod:`~repro.dataflow.procpool` — the process executor behind
  ``run(jobs=N, backend="process")``: forked workers that inherit the
  graph and the run's PAGs copy-on-write, for CPU-bound pipelines the
  GIL would serialize.  Loaded by the first such run, never at import;
  its failure types (``WorkerCrashed``, …) are imported from it.
* :mod:`~repro.dataflow.lowlevel` — the low-level API surface of
  §4.3.1: graph operations, graph algorithms, set operations, and the
  constants (``MPI``, ``LOOP``, ``COMM``, ``COLL_COMM``, …) the paper's
  listings reference as ``pflow.*``.
* :mod:`~repro.dataflow.api` — the :class:`PerFlow` facade
  (``pflow = PerFlow(); pag = pflow.run(...)``) exposing the built-in
  pass library as high-level methods.
"""

from repro.dataflow.graph import PerFlowGraph, PipelineError
from repro.dataflow.scheduler import (
    BACKENDS,
    ENV_BACKEND,
    ENV_JOBS,
    resolve_backend,
    resolve_jobs,
)
from repro.dataflow.signatures import PassSignature, SetKind, signature


def __getattr__(name):
    # Lazy: the facade imports repro.passes, whose modules import
    # repro.dataflow.signatures — loading it here would make
    # `import repro.passes` (first) a circular import.
    if name == "PerFlow":
        from repro.dataflow.api import PerFlow

        return PerFlow
    raise AttributeError(f"module 'repro.dataflow' has no attribute {name!r}")


__all__ = [
    "PerFlowGraph",
    "PipelineError",
    "PerFlow",
    "PassSignature",
    "SetKind",
    "signature",
    "ENV_JOBS",
    "ENV_BACKEND",
    "BACKENDS",
    "resolve_jobs",
    "resolve_backend",
]
