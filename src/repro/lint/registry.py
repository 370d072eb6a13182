"""The lint rule registry.

A :class:`Rule` bundles a stable code (``PF###``), a default severity,
and a check function.  Check functions receive a
:class:`~repro.lint.context.LintContext` and yield :class:`Finding`\\ s —
lightweight partial diagnostics the runner completes with the rule's
code and default severity, so a rule body never repeats its own
metadata::

    @rule("PF042", name="my-smell", severity=Severity.WARNING,
          description="what this rule detects")
    def check_my_smell(ctx):
        for site in ctx.sites_of(Stmt):
            if looks_bad(site):
                yield site.finding("why it is bad")

Rules register globally at import time; :func:`active_rules` returns
them in code order so lint output is deterministic.  Registration is
open — downstream code can add project-specific rules (see
``docs/LINT.md``) — but codes must be unique and well-formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.diagnostics import Diagnostic, Severity

_CODE_RE = re.compile(r"^PF\d{3}$")


@dataclass(frozen=True)
class Finding:
    """A rule-relative finding; the runner adds code and severity."""

    message: str
    file: str = ""
    line: int = 0
    function: str = ""
    node: str = ""
    #: overrides the rule's default severity when set.
    severity: Optional[Severity] = None


@dataclass(frozen=True)
class Rule:
    """A registered static-analysis rule."""

    code: str
    name: str
    severity: Severity
    description: str
    check: Callable[..., Iterable[Finding]] = field(compare=False)

    def to_diagnostic(self, finding: Finding) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            severity=finding.severity or self.severity,
            message=finding.message,
            file=finding.file,
            line=finding.line,
            function=finding.function,
            node=finding.node,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(r: Rule) -> Rule:
    """Register a rule; codes must be unique and match ``PF###``."""
    if not _CODE_RE.match(r.code):
        raise ValueError(f"rule code {r.code!r} does not match 'PF###'")
    if r.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {r.code} ({_REGISTRY[r.code].name})")
    _REGISTRY[r.code] = r
    return r


def unregister(code: str) -> None:
    """Remove a rule (tests and embedders replacing built-ins)."""
    _REGISTRY.pop(code, None)


def rule(
    code: str,
    name: str,
    severity: Severity,
    description: str,
) -> Callable[[Callable[..., Iterable[Finding]]], Callable[..., Iterable[Finding]]]:
    """Decorator: register ``check`` as a rule and return it unchanged."""

    def deco(check: Callable[..., Iterable[Finding]]):
        register(Rule(code=code, name=name, severity=severity,
                      description=description, check=check))
        return check

    return deco


def get_rule(code: str) -> Rule:
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"no lint rule registered under {code!r}") from None


def active_rules(codes: Optional[Sequence[str]] = None) -> List[Rule]:
    """Registered rules in code order, optionally restricted to ``codes``."""
    if codes is None:
        return [_REGISTRY[c] for c in sorted(_REGISTRY)]
    return [get_rule(c) for c in sorted(set(codes))]
