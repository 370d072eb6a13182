"""The run ledger: persistent per-run telemetry with regression detection.

Spans and metrics (:mod:`repro.obs.trace` / :mod:`repro.obs.metrics`)
die with the process, so "did this pipeline get slower than last week?"
was unanswerable.  The ledger fixes that: every ``run`` / ``paradigm``
CLI invocation appends one structured **run record** — run id,
command + argv, per-node span rollups with in/out sizes and cache
hit/miss attribution, a metrics snapshot, wall/CPU time, interpreter +
platform info — as one JSON line under
``.perflow/ledger/`` (override: ``$PERFLOW_LEDGER_DIR``; disable:
``--no-ledger`` or ``PERFLOW_LEDGER=0``).

Storage discipline mirrors the disk cache (:mod:`repro.cache.store`):

* **atomic appends** — a record is a single ``os.write`` to an
  ``O_APPEND`` fd, so concurrent processes interleave whole lines, and
  a torn line (power loss) is skipped on read, never fatal;
* **bounded size** — one JSONL file per day; when the directory
  exceeds ``max_bytes`` the oldest files (mtime-LRU) are evicted,
  never the newest.

Analysis happens over accumulated records:

* :func:`diff_records` — per-node duration deltas between two runs
  (``repro obs diff RUN_A RUN_B``);
* :func:`find_regressions` — noise-aware detection: the baseline is
  the median per-node duration over the last N runs with the same
  **identity** (command + paradigm + program + params) *and* the same
  PAG fingerprints, and a node regresses only when it exceeds *all* of
  a relative threshold over the median, a MAD band (median absolute
  deviation × 1.4826 ≈ one robust sigma), and an absolute floor —
  three gates so jitter on sub-millisecond nodes never false-positives.

A record is built from the run's spans and metrics alone.  PAG
fingerprints are only what the caller passes in: ``repro serve`` keys a
record on the fingerprint of the PAG the request brought, while a CLI
``run`` / ``paradigm`` record has none — every PAG it analyzes is
simulated from a built-in app whose inputs are already in the
identity, and the simulator is deterministic.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ENV_LEDGER",
    "ENV_LEDGER_DIR",
    "DEFAULT_DIR",
    "Ledger",
    "resolve_ledger",
    "build_run_record",
    "rollup_spans",
    "diff_records",
    "find_regressions",
]

#: ``PERFLOW_LEDGER=0`` disables ledger writes process-wide.
ENV_LEDGER = "PERFLOW_LEDGER"
#: Where run records live (default ``.perflow/ledger``).
ENV_LEDGER_DIR = "PERFLOW_LEDGER_DIR"

DEFAULT_DIR = os.path.join(".perflow", "ledger")
DEFAULT_MAX_BYTES = 16 * 1024 * 1024

#: Run-record schema version (bump on breaking shape changes).
SCHEMA = 1

#: Rollup groups kept per record (largest total_s first beyond this cap).
MAX_ROLLUP_GROUPS = 200

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def resolve_ledger(
    flag: Optional[bool] = None, directory: Optional[str] = None
) -> Optional[str]:
    """Resolve CLI/env configuration to a ledger directory, or None.

    ``flag`` (an explicit ``--ledger`` / ``--no-ledger``) wins; then
    ``$PERFLOW_LEDGER`` (garbage raises ``ValueError`` — a typo must
    not silently flip persistence); the ledger is **on by default**.
    ``directory`` falls back to ``$PERFLOW_LEDGER_DIR``, then
    ``.perflow/ledger``.
    """
    enabled = flag
    if enabled is None:
        raw = os.environ.get(ENV_LEDGER, "").strip().lower()
        if not raw:
            enabled = True
        elif raw in _TRUE:
            enabled = True
        elif raw in _FALSE:
            enabled = False
        else:
            raise ValueError(f"{ENV_LEDGER} must be a boolean flag, got {raw!r}")
    if not enabled:
        return None
    return directory or os.environ.get(ENV_LEDGER_DIR) or DEFAULT_DIR


# ----------------------------------------------------------------------
# record construction
# ----------------------------------------------------------------------
def _new_run_id() -> str:
    return (
        time.strftime("%Y%m%dT%H%M%S")
        + f"-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )


def rollup_spans(recorder: Any) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Aggregate a recorder's spans into ``(nodes, others)`` rollups.

    Spans are grouped by ``(name, category)``; each group carries
    count / total / min / max seconds.  ``node:*`` spans — the pipeline
    units the diff and regression machinery operates on — additionally
    carry the last seen ``in_size`` / ``out_size`` and cache hit/miss
    counts (from the ``cache_hit`` span tag), and are returned
    separately with the ``node:`` prefix stripped.  Both lists sort by
    descending total time; the non-node list is capped at
    :data:`MAX_ROLLUP_GROUPS`.
    """
    groups: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for sp in recorder.spans:
        dur = (sp.t_end - sp.t_start) if sp.t_end else 0.0
        key = (sp.name, sp.category or "")
        g = groups.get(key)
        if g is None:
            g = groups[key] = {
                "name": sp.name,
                "category": sp.category or "",
                "count": 0,
                "total_s": 0.0,
                "min_s": dur,
                "max_s": dur,
            }
        g["count"] += 1
        g["total_s"] += dur
        if dur < g["min_s"]:
            g["min_s"] = dur
        if dur > g["max_s"]:
            g["max_s"] = dur
        if sp.name.startswith("node:"):
            for size_key in ("in_size", "out_size"):
                size = sp.args.get(size_key)
                if isinstance(size, int):
                    g[size_key] = size
            hit = sp.args.get("cache_hit")
            if hit is True:
                g["cache_hits"] = g.get("cache_hits", 0) + 1
            elif hit is False:
                g["cache_misses"] = g.get("cache_misses", 0) + 1
    ordered = sorted(groups.values(), key=lambda g: (-g["total_s"], g["name"]))
    nodes: List[Dict[str, Any]] = []
    others: List[Dict[str, Any]] = []
    for g in ordered:
        g["total_s"] = round(g["total_s"], 9)
        g["min_s"] = round(g["min_s"], 9)
        g["max_s"] = round(g["max_s"], 9)
        if g["name"].startswith("node:"):
            g["name"] = g["name"][len("node:") :]
            nodes.append(g)
        elif len(others) < MAX_ROLLUP_GROUPS:
            others.append(g)
    return nodes, others


def run_identity(
    command: str,
    paradigm: Optional[str] = None,
    program: Optional[str] = None,
    params: Optional[Dict[str, Any]] = None,
) -> str:
    """The baseline-matching key: what makes two runs "the same run"."""
    parts = [command, paradigm or "-", program or "-"]
    for key, value in sorted((params or {}).items()):
        parts.append(f"{key}={value}")
    return "|".join(parts)


def build_run_record(
    command: str,
    argv: Sequence[str],
    program: Optional[str] = None,
    paradigm: Optional[str] = None,
    params: Optional[Dict[str, Any]] = None,
    recorder: Any = None,
    metrics: Any = None,
    wall_s: float = 0.0,
    cpu_s: float = 0.0,
    exit_code: int = 0,
    pag_fingerprints: Sequence[str] = (),
) -> Dict[str, Any]:
    """Assemble one ledger record (JSON-safe dict).

    ``recorder`` is the command's :class:`~repro.obs.trace.SpanRecorder`
    (rollups come from it; None produces empty rollups); ``metrics`` a
    registry or its ``to_dict()`` snapshot (default: the process-global
    registry).
    """
    import platform

    if metrics is None:
        from repro.obs.metrics import registry as metrics

    snapshot = metrics.to_dict() if hasattr(metrics, "to_dict") else metrics
    nodes: List[Dict[str, Any]] = []
    others: List[Dict[str, Any]] = []
    if recorder is not None and getattr(recorder, "spans", None):
        nodes, others = rollup_spans(recorder)
    return {
        "schema": SCHEMA,
        "run_id": _new_run_id(),
        "time": round(time.time(), 3),
        "command": command,
        "argv": list(argv),
        "program": program,
        "paradigm": paradigm,
        "params": dict(params or {}),
        "identity": run_identity(command, paradigm, program, params),
        "pag_fingerprints": sorted(pag_fingerprints),
        "wall_s": round(wall_s, 6),
        "cpu_s": round(cpu_s, 6),
        "exit_code": exit_code,
        "nodes": nodes,
        "spans": others,
        "metrics": snapshot,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pid": os.getpid(),
    }


# ----------------------------------------------------------------------
# the ledger store
# ----------------------------------------------------------------------
class Ledger:
    """Append/read run records under one directory (JSONL, size-capped)."""

    def __init__(self, root: str, max_bytes: int = DEFAULT_MAX_BYTES):
        self.root = os.fspath(root)
        self.max_bytes = max_bytes

    # -- writing -----------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> str:
        """Append one record; returns the file path written.

        A single ``os.write`` to an ``O_APPEND`` fd — concurrent
        writers (parallel CI shards) interleave whole lines.  Eviction
        runs after the append so the file just written is never the
        one evicted.
        """
        os.makedirs(self.root, exist_ok=True)
        day = time.strftime("%Y%m%d", time.localtime(record.get("time") or None))
        path = os.path.join(self.root, f"runs-{day}.jsonl")
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        self._evict()
        return path

    def _files(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.startswith("runs-") and name.endswith(".jsonl")
        )

    def _evict(self) -> int:
        """Drop oldest files (mtime-LRU) until under ``max_bytes``.

        The newest file always survives, even if oversized on its own —
        losing the run that was just recorded would make the ledger
        useless exactly when it is busiest.
        """
        entries = []
        for path in self._files():
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return 0
        entries.sort()  # oldest first
        evicted = 0
        for mtime, size, path in entries[:-1]:  # never the newest
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        return evicted

    # -- reading -----------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All retained records, oldest first; corrupt lines skipped."""
        out: List[Dict[str, Any]] = []
        for path in self._files():
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            rec = json.loads(line)
                        except ValueError:
                            continue  # torn/corrupt line
                        if isinstance(rec, dict) and "run_id" in rec:
                            out.append(rec)
            except OSError:
                continue
        return out

    def history(self, limit: int = 20) -> List[Dict[str, Any]]:
        """The most recent ``limit`` records, newest first."""
        recs = self.records()
        recs.reverse()
        return recs[:limit] if limit else recs

    def get(self, run_id: str) -> Dict[str, Any]:
        """Look a record up by run id (unambiguous prefixes accepted)."""
        matches = [r for r in self.records() if r["run_id"].startswith(run_id)]
        if not matches:
            raise KeyError(f"no ledger record matches {run_id!r}")
        exact = [r for r in matches if r["run_id"] == run_id]
        if exact:
            return exact[-1]
        if len(matches) > 1:
            ids = ", ".join(r["run_id"] for r in matches[:5])
            raise KeyError(f"run id {run_id!r} is ambiguous: {ids}")
        return matches[0]

    def baseline_for(
        self, target: Dict[str, Any], last: int = 8
    ) -> List[Dict[str, Any]]:
        """The baseline runs for ``target``: same identity, same PAG
        fingerprints, strictly older, most recent ``last``."""
        fps = target.get("pag_fingerprints") or []
        out = [
            r
            for r in self.records()
            if r["run_id"] != target["run_id"]
            and r.get("identity") == target.get("identity")
            and (r.get("pag_fingerprints") or []) == fps
            and r.get("time", 0) <= target.get("time", float("inf"))
        ]
        return out[-last:] if last else out


# ----------------------------------------------------------------------
# analysis over records
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0
    mid = n // 2
    if n % 2:
        return xs[mid]
    return (xs[mid - 1] + xs[mid]) / 2.0


def _node_totals(record: Dict[str, Any]) -> Dict[str, float]:
    return {
        node["name"]: node.get("total_s", 0.0) for node in record.get("nodes") or []
    }


def diff_records(
    a: Dict[str, Any], b: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Per-node duration deltas between two records (``b`` minus ``a``).

    One row per node name in either run: ``a_s`` / ``b_s`` (None when
    the node is absent from that run), ``delta_s``, and ``pct`` (None
    when ``a`` has no measurable time).  Sorted by descending absolute
    delta.
    """
    ta, tb = _node_totals(a), _node_totals(b)
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(ta) | set(tb)):
        a_s = ta.get(name)
        b_s = tb.get(name)
        delta = (b_s or 0.0) - (a_s or 0.0)
        pct = (delta / a_s * 100.0) if a_s else None
        rows.append(
            {
                "name": name,
                "a_s": a_s,
                "b_s": b_s,
                "delta_s": round(delta, 9),
                "pct": round(pct, 2) if pct is not None else None,
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta_s"]), r["name"]))
    return rows


#: MAD → sigma consistency constant (normal distribution).
MAD_SIGMA = 1.4826

#: Baseline runs required before regressions can be judged at all.
MIN_BASELINE_RUNS = 3


def find_regressions(
    target: Dict[str, Any],
    baseline: Sequence[Dict[str, Any]],
    threshold_pct: float = 25.0,
    mad_k: float = 3.0,
    min_delta_s: float = 0.001,
) -> List[Dict[str, Any]]:
    """Nodes in ``target`` slower than the noise-aware baseline.

    A node regresses only when its duration exceeds **all three** gates
    over the baseline median: ``median × (1 + threshold_pct/100)``
    (relative), ``median + mad_k × 1.4826 × MAD`` (robust scatter —
    runs with naturally noisy nodes widen their own band), and
    ``median + min_delta_s`` (absolute floor — microsecond jitter on
    trivial nodes can be 10× the median and still not matter).  Returns
    one finding per regressed node, slowest-relative first; empty when
    the baseline has fewer than :data:`MIN_BASELINE_RUNS` runs.
    """
    if len(baseline) < MIN_BASELINE_RUNS:
        return []
    per_node: Dict[str, List[float]] = {}
    for rec in baseline:
        for name, total in _node_totals(rec).items():
            per_node.setdefault(name, []).append(total)
    findings: List[Dict[str, Any]] = []
    for name, current in _node_totals(target).items():
        history = per_node.get(name)
        if not history or len(history) < MIN_BASELINE_RUNS:
            continue
        med = _median(history)
        mad = _median([abs(x - med) for x in history])
        gate = max(
            med * (1.0 + threshold_pct / 100.0),
            med + mad_k * MAD_SIGMA * mad,
            med + min_delta_s,
        )
        if current > gate:
            findings.append(
                {
                    "name": name,
                    "current_s": round(current, 9),
                    "median_s": round(med, 9),
                    "mad_s": round(mad, 9),
                    "gate_s": round(gate, 9),
                    "pct": round((current - med) / med * 100.0, 2)
                    if med > 0
                    else None,
                    "samples": len(history),
                }
            )
    findings.sort(
        key=lambda f: (-(f["pct"] if f["pct"] is not None else float("inf")), f["name"])
    )
    return findings
