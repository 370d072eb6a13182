"""SARIF 2.1.0 export for lint reports.

SARIF (Static Analysis Results Interchange Format) is what code-hosting
CI understands natively — GitHub code scanning, VS Code's SARIF viewer,
and most results-triage tooling all consume it.  ``repro lint --format
sarif`` emits one run per report:

* the tool driver enumerates every rule that contributed a result (id,
  name, description, default level), so viewers can render rule help;
* each result carries a ``partialFingerprints`` entry using the same
  line-number-independent fingerprint as the baseline machinery
  (:func:`repro.lint.baseline.finding_fingerprint`), which lets SARIF
  consumers track a finding across commits exactly as our own baseline
  does;
* findings hidden by a baseline/suppression file are still exported,
  marked with a ``suppressions`` entry of kind ``"external"`` — the
  SARIF convention for "suppressed outside the source code" — so
  dashboards show accepted debt instead of silently dropping it.

Severity mapping follows the SARIF ``level`` enum: ERROR → ``error``,
WARNING → ``warning``, INFO → ``note``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.baseline import finding_fingerprint
from repro.lint.registry import get_rule

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA", "to_sarif", "sarif_json"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning", Severity.INFO: "note"}


def _rule_descriptor(code: str) -> Dict[str, Any]:
    """reportingDescriptor for ``code``; tolerate unregistered codes
    (pipeline diagnostics reuse the PF namespace without registering)."""
    desc: Dict[str, Any] = {"id": code}
    try:
        r = get_rule(code)
    except KeyError:
        return desc
    desc["name"] = r.name
    desc["shortDescription"] = {"text": r.description}
    desc["defaultConfiguration"] = {"level": _LEVEL[r.severity]}
    return desc


def _result(diag: Diagnostic, rule_index: Dict[str, int], suppressed: bool) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "ruleId": diag.code,
        "ruleIndex": rule_index[diag.code],
        "level": _LEVEL[diag.severity],
        "message": {"text": diag.message},
        "partialFingerprints": {
            "perflowFingerprint/v1": finding_fingerprint(diag)
        },
    }
    if diag.file:
        region: Dict[str, Any] = {}
        if diag.line:
            region["startLine"] = diag.line
        location: Dict[str, Any] = {
            "physicalLocation": {"artifactLocation": {"uri": diag.file}}
        }
        if region:
            location["physicalLocation"]["region"] = region
        if diag.function:
            location["logicalLocations"] = [
                {"name": diag.function, "kind": "function"}
            ]
        out["locations"] = [location]
    props: Dict[str, Any] = {}
    if diag.status:
        props["status"] = diag.status
    if diag.node:
        props["node"] = diag.node
    if props:
        out["properties"] = props
    if suppressed:
        out["suppressions"] = [{"kind": "external"}]
    return out


def to_sarif(
    report: LintReport,
    suppressed: Sequence[Diagnostic] = (),
    tool_version: Optional[str] = None,
) -> Dict[str, Any]:
    """Render a report (plus externally-suppressed findings) as a SARIF
    2.1.0 log object."""
    if tool_version is None:
        try:
            from repro import __version__ as tool_version  # type: ignore
        except ImportError:  # pragma: no cover - repro always has a version
            tool_version = "0"
    all_diags: List[Diagnostic] = list(report) + list(suppressed)
    codes = sorted({d.code for d in all_diags})
    rule_index = {code: i for i, code in enumerate(codes)}
    results = [_result(d, rule_index, suppressed=False) for d in report]
    results += [_result(d, rule_index, suppressed=True) for d in suppressed]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://github.com/perflow/perflow",
                        "version": str(tool_version),
                        "rules": [_rule_descriptor(c) for c in codes],
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
                "properties": {"subject": report.subject},
            }
        ],
    }


def sarif_json(
    report: LintReport,
    suppressed: Sequence[Diagnostic] = (),
    indent: Optional[int] = 2,
) -> str:
    return json.dumps(to_sarif(report, suppressed), indent=indent, sort_keys=True)
