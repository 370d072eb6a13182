"""``python -m bench compare A.json B.json`` and ``python -m bench --check``.

``compare`` applies the acceptance rule the benchmark is held to: per
(workload, end-to-end metric) the median of B may not be worse than the
median of A by more than the metric's bound in ``BENCHMARK.json``; when
either file's own run-to-run spread (first to third quartile, as a share
of the median) exceeds the bound the pair is ``unresolved``, not
``ok``.  Counts that must repeat exactly are compared for identity.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from typing import Any, Dict, List, Sequence

from bench.harness import load_spec, median

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Per-layer counts that two runs of one seed must agree on exactly.
#: ``cache.*`` only off the serve workloads: there, collapsed followers
#: skip their probes, so the count depends on timing.
EXACT = (
    "runtime.comm_events", "runtime.lock_events", "ir.vertices", "pag.pv_vertices",
    "pag.pv_edges", "serve.requests", "dataflow.shm_leaked", "cache.hits", "cache.misses",
)


def spread(values: Sequence[float]) -> float:
    """Q1-to-Q3 distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _values(doc: Dict[str, Any], workload: str, metric: str) -> List[float]:
    runs = doc["workloads"].get(workload, {}).get("untraced", [])
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def main_compare(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m bench compare A.json B.json", file=sys.stderr)
        return 2
    spec = load_spec()
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    worse = unresolved = 0
    print(f"{'workload':22} {'metric':18} {'A median':>12} {'B median':>12} "
          f"{'A spread':>9} {'B spread':>9} {'worse by':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            va, vb = _values(a, workload, m["name"]), _values(b, workload, m["name"])
            if not va or not vb:
                print(f"{workload:22} {m['name']:18} missing from one file")
                worse += 1
                continue
            ma, mb = median(va), median(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (mb - ma) / abs(ma)
            sa, sb = spread(va), spread(vb)
            if worse_by > m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif max(sa, sb) > m["bound"]:
                verdict = "unresolved"
                unresolved += 1
            else:
                verdict = "ok"
            print(f"{workload:22} {m['name']:18} {ma:12.4f} {mb:12.4f} {sa:9.2%} {sb:9.2%} "
                  f"{worse_by:+9.2%} {m['bound']:6.0%}  {verdict}")
    differs = _compare_exact(a, b, spec)
    print(f"worse: {worse}  unresolved: {unresolved}  exact counts differing: {differs}")
    return 1 if worse or differs else 0


def _compare_exact(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> int:
    differs = 0
    for workload in (w["name"] for w in spec["workloads"]):
        ea, eb = a["workloads"].get(workload, {}), b["workloads"].get(workload, {})
        pairs = [("schedule_digest",
                  [r["info"].get("schedule_digest") for r in ea.get("untraced", [])],
                  [r["info"].get("schedule_digest") for r in eb.get("untraced", [])])]
        ta, tb = ea.get("traced"), eb.get("traced")
        if ta and tb:
            serve = ta["metrics"]["serve.requests"]["value"] > 0
            for name in EXACT:
                if serve and name.startswith("cache."):
                    continue
                pairs.append((name, ta["metrics"][name]["value"], tb["metrics"][name]["value"]))
        for name, x, y in pairs:
            if x != y:
                differs += 1
                print(f"{workload:22} {name:18} EXACT COUNT DIFFERS: {x} vs {y}")
    return differs


def main_check(spec: Dict[str, Any], path: str) -> int:
    """Validate the spec's names/units and, given FILE, the output against it."""
    problems: List[str] = []
    names: List[str] = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            names.append(entry["name"])
            if not _NAME.match(entry["name"]):
                problems.append(f"{section}: bad name {entry['name']!r}")
            if section != "workloads" and not _UNIT.match(entry["unit"]):
                problems.append(f"{section}: {entry['name']} has bad unit {entry['unit']!r}")
    for name in {n for n in names if names.count(n) > 1}:
        problems.append(f"name used more than once: {name}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end: {m['name']} bound {m['bound']} outside (0, 0.25]")
    if not any(m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
               for m in spec["end_to_end"]):
        problems.append("end_to_end lacks setup_s / s / lower")
    if path:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for workload in (w["name"] for w in spec["workloads"]):
            entry = doc["workloads"].get(workload)
            if entry is None:
                problems.append(f"{workload}: missing from {path}")
                continue
            records = [("end_to_end", r) for r in entry.get("untraced", [])]
            if entry.get("traced"):
                records.append(("per_layer", entry["traced"]))
            for section, record in records:
                want = {m["name"]: m["unit"] for m in spec[section]}
                got = {n: v.get("unit") for n, v in record["metrics"].items()}
                for name in sorted(set(want) - set(got)):
                    problems.append(f"{workload}: {section} metric {name} missing")
                for name in sorted(set(got) - set(want)):
                    problems.append(f"{workload}: extra metric {name}")
                for name in sorted(set(want) & set(got)):
                    if want[name] != got[name]:
                        problems.append(f"{workload}: {name} unit {got[name]!r}, not {want[name]!r}")
    for line in problems:
        print(f"check: {line}")
    print(f"check: {len(problems)} problem(s)")
    return 1 if problems else 0
