#!/usr/bin/env python3
"""Scalability analysis of ZeusMP — case study A (paper §5.3, Fig. 8-10).

Runs the ZeusMP model at two scales, feeds both PAGs through the
scalability-analysis paradigm (differential → hotspot/imbalance →
union → backtracking), and prints the detected propagation chain and
root-cause candidates.

    python examples/scalability_analysis.py [small_ranks] [large_ranks]
"""

import os
import sys
import tempfile

from repro import PerFlow
from repro.apps import zeusmp
from repro.paradigms import scalability_analysis_paradigm

small_ranks = int(sys.argv[1]) if len(sys.argv) > 1 else 8
large_ranks = int(sys.argv[2]) if len(sys.argv) > 2 else 64

pflow = PerFlow()
prog = zeusmp.build(steps=3)

print(f"running zeusmp at {small_ranks} and {large_ranks} ranks ...")
pag_small = pflow.run(bin=prog, nprocs=small_ranks)
pag_large = pflow.run(bin=prog, nprocs=large_ranks)

speedup = (
    pflow.context(pag_small).run.elapsed / pflow.context(pag_large).run.elapsed
)
ideal = large_ranks / small_ranks
print(f"speedup {speedup:.2f}x (ideal {ideal:.0f}x) — investigating the loss\n")

res = scalability_analysis_paradigm(
    pflow, pag_small, pag_large, max_ranks=min(large_ranks, 64)
)

print("top scaling-loss vertices (differential + hotspot):")
for v in res.V_hot:
    print(f"  {v.name:20} {v['debug-info']:16} loss={v['time']:.4f}s")

print("\nbacktracking paths (who delayed whom):")
for e in res.E_bt[:12]:
    print(
        f"  {e.src.name}@p{e.src['process']} -> {e.dst.name}@p{e.dst['process']}"
        f"  [{e.label.value}]"
    )

print("\nroot-cause candidates (deepest vertices on the paths):")
seen = set()
for v in res.roots:
    key = (v.name, v["process"])
    if key not in seen:
        seen.add(key)
        print(f"  {v.name} on process {v['process']} ({v['debug-info']})")

# Fig. 10-style visualization: slice the parallel view around the first
# imbalanced instance and render the backtracking fragment as Graphviz.
from repro.pag.views import slice_parallel_view  # noqa: E402
from repro.passes.report import to_dot  # noqa: E402

pv = pflow.parallel_view(pag_large, max_ranks=min(large_ranks, 64))
if len(res.V_bt):
    around = tuple(v.id for v in list(res.V_bt)[:4])
    partial = slice_parallel_view(pv, names=(), around=around, hops=2)
    dot = to_dot(
        (pv.vertex(v["orig_id"]) for v in partial.vertices()),
        res.E_bt,
        highlight=res.V_bt.to_list()[:8],
        name="fig10_partial",
    )
    path = os.path.join(tempfile.mkdtemp(prefix="perflow-fig10-"), "fig10_partial.dot")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dot)
    print(f"\nwrote {path} (render with: dot -Tsvg {path})")
