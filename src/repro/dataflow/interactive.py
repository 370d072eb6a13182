"""Interactive analysis mode (paper §4.5).

"For scenarios in which developers do not know what analysis to apply …
it is advisable to first use a general built-in analysis pass, such as
hotspot detection.  The output of the previous pass will provide some
insights to help determine or design the next passes."

:class:`InteractiveSession` packages that loop: every step records what
ran and what came out, and :meth:`suggest` inspects the newest output
with simple rules (the insights a human analyst would read off a
report) to propose the next pass:

* lock/allocator symbols among the hotspots → contention detection
  (the Vite flow);
* vertices the newest output reports as imbalanced → backtracking on
  the parallel view (the ZeusMP flow);
* communication calls among the hotspots → comm filter + imbalance
  analysis;
* wait-dominated vertices → breakdown analysis;
* two runs registered → differential analysis;
* otherwise → widen the hotspot search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.dataflow.api import PerFlow
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet
from repro.pag.vertex import CallKind

#: symbols that smell like serialized resources
_LOCKY = ("alloc", "realloc", "dealloc", "mutex", "lock", "_M_", "free")


@dataclass
class Step:
    """One executed analysis step."""

    pass_name: str
    output: Any
    note: str = ""


@dataclass
class Suggestion:
    """What to run next, and why."""

    pass_name: str
    reason: str
    run: Any = None  # zero-argument callable executing the suggestion

    def __str__(self) -> str:
        return f"{self.pass_name}: {self.reason}"


@dataclass
class InteractiveSession:
    """A §4.5-style step-by-step analysis over one (or two) runs."""

    pflow: PerFlow
    pag: PAG
    pag_other: Optional[PAG] = None
    steps: List[Step] = field(default_factory=list)

    # ------------------------------------------------------------------
    def record(self, pass_name: str, output: Any, note: str = "") -> Any:
        self.steps.append(Step(pass_name, output, note))
        return output

    def start(self, n: int = 15) -> VertexSet:
        """The advised first step: general hotspot detection."""
        hot = self.pflow.hotspot_detection(self.pag.vs, n=n)
        return self.record("hotspot_detection", hot, f"top {n} by time")

    @property
    def last_output(self) -> Any:
        return self.steps[-1].output if self.steps else None

    # ------------------------------------------------------------------
    def suggest(self) -> Suggestion:
        """Rule-based proposal for the next pass, with a ready-to-run
        closure."""
        out = self.last_output
        if out is None:
            return Suggestion(
                "hotspot_detection",
                "no analysis has run yet; start general",
                lambda: self.start(),
            )
        if not isinstance(out, VertexSet):
            return Suggestion(
                "report",
                "the last step produced non-set output; report and stop",
                lambda: self.pflow.report(*[s.output for s in self.steps if isinstance(s.output, VertexSet)][:1]),
            )

        comm = [v for v in out if v.call_kind is CallKind.COMM]
        locky = [v for v in out if any(tag in v.name.lower() for tag in _LOCKY)]
        imbalanced = out.filter(lambda v: v["imbalance"])
        waity = [
            v
            for v in out
            if (v["wait"] or 0.0) > 0.5 * (v["time"] or 1.0) and (v["time"] or 0) > 0
        ]

        if locky:
            def run_cont():
                inst = self.pflow.instances(
                    VertexSet(locky), self.pag, max_ranks=8, expand_threads=True, all_ranks=True
                )
                return self.record(
                    "contention_detection",
                    self.pflow.contention_detection(inst),
                    "allocator/lock symbols: look for serialization patterns",
                )

            return Suggestion(
                "contention_detection",
                f"{len(locky)} lock/allocator symbols among the hotspots",
                run_cont,
            )
        if imbalanced:
            def run_backtrack():
                inst = self.pflow.instances(imbalanced, self.pag, max_ranks=32)
                return self.record(
                    "backtracking_analysis",
                    self.pflow.backtracking_analysis(inst),
                    "trace the imbalance to its origin",
                )

            return Suggestion(
                "backtracking_analysis",
                f"{len(imbalanced)} imbalanced vertices: trace where their delay comes from",
                run_backtrack,
            )
        if comm and not self._ran("imbalance_analysis"):
            def run_imb():
                filtered = self.pflow.comm_filter(out)
                return self.record(
                    "imbalance_analysis",
                    self.pflow.imbalance_analysis(filtered),
                    "communication hotspots: check balance across ranks",
                )

            return Suggestion(
                "imbalance_analysis",
                f"{len(comm)} communication calls among the hotspots: check their balance",
                run_imb,
            )
        if waity and not self._ran("breakdown_analysis"):
            def run_bd():
                return self.record(
                    "breakdown_analysis",
                    self.pflow.breakdown_analysis(VertexSet(waity)),
                    "wait-dominated vertices: attribute the waiting",
                )

            return Suggestion(
                "breakdown_analysis",
                f"{len(waity)} vertices spend most of their time waiting",
                run_bd,
            )
        if self.pag_other is not None and not self._ran("differential_analysis"):
            def run_diff():
                return self.record(
                    "differential_analysis",
                    self.pflow.differential_analysis(self.pag.vs, self.pag_other.vs),
                    "two runs available: difference them",
                )

            return Suggestion(
                "differential_analysis",
                "a second run is registered: compare the two executions",
                run_diff,
            )

        def run_more():
            return self.record(
                "hotspot_detection",
                self.pflow.hotspot_detection(self.pag.vs, n=2 * max(len(out), 10)),
                "widen the hotspot set",
            )

        return Suggestion(
            "hotspot_detection",
            "no strong signal yet: widen the hotspot search",
            run_more,
        )

    def _ran(self, name: str) -> bool:
        return any(s.pass_name == name for s in self.steps)

    # ------------------------------------------------------------------
    def transcript(self) -> str:
        """Human-readable log of the session."""
        lines = [f"interactive session over {self.pag.name}:"]
        for i, step in enumerate(self.steps, 1):
            size = f"{len(step.output)} elements" if hasattr(step.output, "__len__") else type(step.output).__name__
            lines.append(f"  {i}. {step.pass_name} -> {size}  ({step.note})")
        return "\n".join(lines)
