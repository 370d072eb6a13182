"""Structured lint diagnostics.

Every finding of the static analyzer (:mod:`repro.lint`) and the
pipeline type-checker (:meth:`repro.dataflow.graph.PerFlowGraph.check`)
is a :class:`Diagnostic`: a rule code (``PF###``), a severity, a
human-readable message, and the ``file:line`` debug location the IR
carries — so pre-execution findings read like compiler output::

    bvald.F:360: PF006 warning: cost of 'bc_update' diverges across ranks ...

This module is dependency-free (no IR/PAG imports) so that any layer —
``repro.lint``, ``repro.dataflow``, the CLI — can emit diagnostics
without import cycles.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering supports ``--fail-on`` thresholds."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "warning", not "Severity.WARNING"
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{', '.join(s.name.lower() for s in cls)}"
            ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a source location via IR debug info."""

    code: str  #: rule code, "PF###"
    severity: Severity
    message: str
    file: str = ""
    line: int = 0
    function: str = ""  #: enclosing IR function (empty for graph-level findings)
    node: str = ""  #: IR node / PerFlowGraph node name

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

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["severity"] = str(self.severity)
        d["location"] = self.location
        return d

    def sort_key(self):
        return (self.code, self.file, self.line, self.message)


@dataclass
class LintReport:
    """An ordered collection of diagnostics for one linted subject."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def sort(self) -> None:
        self.diagnostics.sort(key=Diagnostic.sort_key)

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    @property
    def codes(self) -> List[str]:
        """Distinct rule codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def count_at_least(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity >= severity)

    # -- rendering ---------------------------------------------------------
    def to_text(self) -> str:
        if not self.diagnostics:
            return f"{self.subject}: no issues found"
        lines = [d.format() for d in self.diagnostics]
        counts = {s: 0 for s in Severity}
        for d in self.diagnostics:
            counts[d.severity] += 1
        summary = ", ".join(
            f"{n} {s}{'s' if n != 1 else ''}"
            for s, n in sorted(counts.items(), reverse=True)
            if n
        )
        lines.append(f"{self.subject}: {len(self.diagnostics)} issue(s): {summary}")
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "subject": self.subject,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                str(s): self.count_at_least(s) for s in Severity
            },
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def worst_exceeds(
    diagnostics: Sequence[Diagnostic], threshold: Optional[Severity]
) -> bool:
    """True when any diagnostic reaches ``threshold`` (``None`` = never)."""
    if threshold is None:
        return False
    return any(d.severity >= threshold for d in diagnostics)
