"""Execution context threaded through IR evaluation.

Workload models (statement costs, loop trip counts, branch conditions,
communication peers/sizes) are written as callables of an
:class:`ExecContext`, so one program model can express rank-dependent
behaviour — the load imbalance, message-size skew, and scale-dependent
costs that the paper's case studies diagnose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass
class ExecContext:
    """Where execution currently is, and under which run parameters.

    Attributes
    ----------
    rank / nprocs:
        MPI rank and communicator size.
    thread / nthreads:
        Thread id within the process and thread count.
    iterations:
        Current iteration index of each enclosing loop, innermost last.
        ``iterations[-1]`` is the usual "i" of the nearest loop.
    params:
        Program-level run parameters (problem size, timesteps, …), set by
        the caller of :meth:`repro.runtime.executor.run_program`.
    """

    rank: int = 0
    nprocs: int = 1
    thread: int = 0
    nthreads: int = 1
    iterations: Tuple[int, ...] = ()
    params: Dict[str, Any] = field(default_factory=dict)

    def push_iteration(self, i: int) -> "ExecContext":
        # positional: one context per simulated loop iteration, and keyword
        # binding doubles the cost of the dataclass __init__
        return ExecContext(
            self.rank, self.nprocs, self.thread, self.nthreads,
            self.iterations + (i,), self.params,
        )

    def with_thread(self, thread: int, nthreads: int) -> "ExecContext":
        return ExecContext(
            rank=self.rank,
            nprocs=self.nprocs,
            thread=thread,
            nthreads=nthreads,
            iterations=self.iterations,
            params=self.params,
        )

    @property
    def iteration(self) -> int:
        """Innermost loop index (0 outside any loop)."""
        return self.iterations[-1] if self.iterations else 0


def evaluate(value: Any, ctx: ExecContext) -> Any:
    """Evaluate a model attribute: constants pass through, callables get ctx."""
    return value(ctx) if callable(value) else value
