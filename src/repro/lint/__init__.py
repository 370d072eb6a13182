"""``repro.lint`` — static performance-smell analysis.

PerFlow's static side (:mod:`repro.ir.static_analysis`) extracts PAG
structure; this package *judges* it.  A rule-based analyzer walks the
:class:`~repro.ir.model.Program` IR (plus the extracted top-down PAG)
and emits structured :class:`~repro.diagnostics.Diagnostic`\\ s —
rule code ``PF###``, severity, message, ``file:line`` — before any
simulated run::

    from repro.apps import zeusmp
    from repro.lint import lint_program

    report = lint_program(zeusmp.build())
    print(report.to_text())          # bvald.F:360: PF006 warning: ...

From the command line: ``python -m repro lint zeusmp [--json]
[--fail-on=severity]``.

The rule set lives in :mod:`repro.lint.rules` (codes PF001–PF007, one
per pathology class of the paper's case studies); register custom rules
with :func:`repro.lint.registry.rule` — see ``docs/LINT.md``.  Codes
PF8## are reserved for the :class:`~repro.dataflow.graph.PerFlowGraph`
pipeline type-checker, which shares this diagnostic format.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.diagnostics import Diagnostic, LintReport, Severity, worst_exceeds
from repro.ir.model import Program
from repro.lint.context import LintConfig, LintContext, Site
from repro.lint.registry import (
    Finding,
    Rule,
    active_rules,
    get_rule,
    register,
    rule,
    unregister,
)
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

# Importing the module registers the built-in rule set.
from repro.lint import rules as _builtin_rules  # noqa: F401


def lint_program(
    program: Program,
    config: Optional[LintConfig] = None,
    codes: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run the (selected) rule set over a program model.

    Parameters
    ----------
    program:
        The modelled binary to analyze.  Nothing is executed.
    config:
        Probe configuration (sample rank/thread counts, run params such
        as ``{"optimized": True}``, divergence threshold).
    codes:
        Restrict to these rule codes (default: every registered rule).

    Returns a :class:`LintReport` whose diagnostics are sorted by
    (code, file, line) for stable output.
    """
    with _span("lint.program", category="lint", program=program.name) as sp:
        ctx = LintContext(program, config)
        report = LintReport(subject=program.name)
        for r in active_rules(codes):
            with _span("lint.rule", category="lint", code=r.code) as rsp:
                n = 0
                for finding in r.check(ctx):
                    report.add(r.to_diagnostic(finding))
                    n += 1
                if rsp:
                    rsp.set(findings=n)
            if n:
                _metrics.counter("lint.rules.fired").inc(n)
        report.sort()
        if sp:
            sp.set(diagnostics=len(report))
    return report


__all__ = [
    "lint_program",
    "LintConfig",
    "LintContext",
    "Site",
    "Diagnostic",
    "LintReport",
    "Severity",
    "worst_exceeds",
    "Finding",
    "Rule",
    "rule",
    "register",
    "unregister",
    "get_rule",
    "active_rules",
]
