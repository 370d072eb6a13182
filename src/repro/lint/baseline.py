"""Suppression + baseline file support (``.perflowlint.toml``).

Two mechanisms keep a noisy codebase lintable in CI:

* ``[[suppress]]`` entries hide findings by rule code and optional
  source-path glob — a standing decision ("we know PF006 fires in
  bvald.F and accept it").
* ``[[baseline]]`` entries pin *individual* findings by fingerprint — a
  snapshot of the current debt, so CI fails only on findings introduced
  since the baseline was written (``repro lint ... --write-baseline``).

Fingerprints deliberately exclude line numbers: inserting a comment
above a finding must not make it "new".  They hash the rule code, file,
function, node name, and message — stable across reformatting, unique
enough in practice.

The file is TOML.  Python 3.11+ parses it with :mod:`tomllib`; on older
interpreters a built-in subset parser handles exactly the dialect this
module writes (tables of string/number/bool assignments), so no
third-party dependency is needed anywhere.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

try:  # Python >= 3.11
    import tomllib as _tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.9/3.10
    _tomllib = None

from repro.diagnostics import Diagnostic

__all__ = [
    "SuppressRule",
    "Baseline",
    "BaselinePartition",
    "finding_fingerprint",
    "load_baseline",
    "partition",
    "write_baseline",
]


def finding_fingerprint(diag: Diagnostic) -> str:
    """Line-number-independent identity of a finding."""
    h = hashlib.blake2b(b"perflow-lint-fp-v1", digest_size=16)
    for part in (diag.code, diag.file, diag.function, diag.node, diag.message):
        b = part.encode("utf-8")
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class SuppressRule:
    """Hide all findings of ``code``; ``path`` optionally restricts to
    files matching an :mod:`fnmatch` glob."""

    code: str
    path: str = ""

    def matches(self, diag: Diagnostic) -> bool:
        if diag.code != self.code:
            return False
        if not self.path:
            return True
        return fnmatch.fnmatch(diag.file, self.path)


@dataclass
class Baseline:
    """Parsed ``.perflowlint.toml``."""

    suppress: List[SuppressRule] = field(default_factory=list)
    #: fingerprint -> recorded metadata (code, location) for reporting.
    fingerprints: Dict[str, Dict[str, str]] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "Baseline":
        return cls()


@dataclass
class BaselinePartition:
    """A report split against a baseline."""

    active: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    baselined: List[Diagnostic] = field(default_factory=list)

    @property
    def hidden(self) -> List[Diagnostic]:
        return self.suppressed + self.baselined


# ---------------------------------------------------------------------------
# TOML subset parsing (fallback for Python < 3.11)
# ---------------------------------------------------------------------------
def _parse_value(text: str) -> Any:
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"unsupported TOML value: {text!r}") from None


def _parse_toml_subset(text: str) -> Dict[str, Any]:
    """Parses the dialect :func:`write_baseline` emits: comments,
    ``[[array.of.tables]]`` headers, and ``key = scalar`` lines."""
    data: Dict[str, Any] = {}
    current: Optional[Dict[str, Any]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            data.setdefault(name, []).append({})
            current = data[name][-1]
        elif line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = data.setdefault(name, {})
        elif "=" in line:
            if current is None:
                current = data
            key, _, value = line.partition("=")
            try:
                current[key.strip()] = _parse_value(value)
            except ValueError as err:
                raise ValueError(f"line {lineno}: {err}") from None
        else:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
    return data


def _loads(text: str) -> Dict[str, Any]:
    if _tomllib is not None:
        return _tomllib.loads(text)
    return _parse_toml_subset(text)


def load_baseline(path: str) -> Baseline:
    """Parse a suppression/baseline file.

    Raises ``OSError`` when unreadable and ``ValueError`` when
    malformed (bad TOML, missing required keys).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = _loads(text)
    except Exception as err:  # tomllib.TOMLDecodeError or ValueError
        raise ValueError(f"{path}: not a valid lint baseline file: {err}") from None
    out = Baseline()
    for entry in data.get("suppress", []):
        if not isinstance(entry, dict) or "code" not in entry:
            raise ValueError(f"{path}: [[suppress]] entries need a 'code' key")
        out.suppress.append(
            SuppressRule(code=str(entry["code"]), path=str(entry.get("path", "")))
        )
    for entry in data.get("baseline", []):
        if not isinstance(entry, dict) or "fingerprint" not in entry:
            raise ValueError(
                f"{path}: [[baseline]] entries need a 'fingerprint' key"
            )
        fp = str(entry["fingerprint"])
        out.fingerprints[fp] = {
            "code": str(entry.get("code", "")),
            "location": str(entry.get("location", "")),
        }
    return out


def partition(
    diagnostics: Iterable[Diagnostic], baseline: Baseline
) -> BaselinePartition:
    """Split diagnostics into active / suppressed / baselined."""
    out = BaselinePartition()
    for diag in diagnostics:
        if any(s.matches(diag) for s in baseline.suppress):
            out.suppressed.append(diag)
        elif finding_fingerprint(diag) in baseline.fingerprints:
            out.baselined.append(diag)
        else:
            out.active.append(diag)
    return out


def _toml_str(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_baseline(
    path: str,
    diagnostics: Iterable[Diagnostic],
    previous: Optional[Baseline] = None,
) -> Tuple[int, int]:
    """Snapshot ``diagnostics`` as the new baseline, atomically.

    ``[[suppress]]`` entries from ``previous`` are preserved verbatim
    (they are human policy, not snapshots); ``[[baseline]]`` entries are
    rewritten from the current findings, which automatically expires
    fixed ones.  Suppressed findings are not baselined twice.

    Returns ``(added, expired)`` relative to ``previous``.
    """
    previous = previous or Baseline.empty()
    part = partition(diagnostics, Baseline(suppress=list(previous.suppress)))
    current: Dict[str, Diagnostic] = {}
    for diag in part.active + part.baselined:
        current.setdefault(finding_fingerprint(diag), diag)
    added = len(set(current) - set(previous.fingerprints))
    expired = len(set(previous.fingerprints) - set(current))

    lines = [
        "# PerFlow lint baseline — generated by `repro lint --write-baseline`.",
        "# [[suppress]] entries are preserved; [[baseline]] entries are a",
        "# snapshot of accepted findings (new findings fail, fixed ones expire).",
    ]
    for s in previous.suppress:
        lines += ["", "[[suppress]]", f"code = {_toml_str(s.code)}"]
        if s.path:
            lines.append(f"path = {_toml_str(s.path)}")
    for fp in sorted(current):
        diag = current[fp]
        lines += [
            "",
            "[[baseline]]",
            f"fingerprint = {_toml_str(fp)}",
            f"code = {_toml_str(diag.code)}",
            f"location = {_toml_str(diag.location)}",
        ]
    text = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".perflowlint-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return added, expired
