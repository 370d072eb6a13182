"""Structured diagnostics of the PerFlowGraph pipeline type-checker.

Every finding of :meth:`repro.dataflow.graph.PerFlowGraph.check` is a
:class:`Diagnostic`: a rule code (``PF80#``), a severity, a
human-readable message, and the graph/node it concerns — so
pre-execution findings read like compiler output::

    PF801 error: input 0 of pass 'hotspot_detection' expects a VertexSet ... [demo]

This module is dependency-free (no IR/PAG imports) so that any layer
can emit diagnostics without import cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered ``info < warning < error``."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "warning", not "Severity.WARNING"
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding, optionally anchored to a ``file:line`` location."""

    code: str  #: rule code, "PF###"
    severity: Severity
    message: str
    file: str = ""
    line: int = 0
    function: str = ""  #: enclosing PerFlowGraph name (empty for none)
    node: str = ""  #: PerFlowGraph node name

    @property
    def location(self) -> str:
        """``file:line`` (or just the file when no line is known)."""
        if not self.file:
            return ""
        return f"{self.file}:{self.line}" if self.line else self.file

    def format(self) -> str:
        loc = f"{self.location}: " if self.location else ""
        where = f" [{self.function}]" if self.function else ""
        return f"{loc}{self.code} {self.severity}: {self.message}{where}"
