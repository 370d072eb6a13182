"""The dynamic-structure collector.

PerFlow's dynamic analysis records what static analysis cannot see
(§3.2): communication events, lock/waiting events, and the targets of
indirect calls.  The :class:`Tracer` accumulates these during a
simulated run; its contents become the inter-process and inter-thread
edges of the parallel view and the expansion of indirect call sites.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.runtime.records import CommEvent, LockEvent


class Tracer:
    """Accumulates dynamic events during a run."""

    def __init__(self) -> None:
        self.comm_events: List[CommEvent] = []
        self.lock_events: List[LockEvent] = []
        self.indirect_targets: Dict[int, Set[str]] = {}

    def record_comm(self, event: CommEvent) -> None:
        self.comm_events.append(event)

    def record_lock(self, event: LockEvent) -> None:
        self.lock_events.append(event)

    def record_indirect(self, call_uid: int, target: str) -> None:
        self.indirect_targets.setdefault(call_uid, set()).add(target)
