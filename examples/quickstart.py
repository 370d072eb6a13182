#!/usr/bin/env python3
"""Quickstart — the paper's Listing 1, end to end.

Runs an NPB-CG model on 8 simulated ranks, filters communication
vertices, finds hotspots, checks balance, breaks the imbalance down,
and prints the report.

    python examples/quickstart.py
    python examples/quickstart.py --trace quickstart-trace.json \
        --metrics quickstart-metrics.json   # record repro.obs output
"""

import argparse
import sys

from repro import PerFlow
from repro.apps import npb
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

cli = argparse.ArgumentParser(description=__doc__)
cli.add_argument("--trace", help="write a Chrome trace-event JSON here")
cli.add_argument("--metrics", help="write the metrics JSON (with the span summary) here")
opts = cli.parse_args()
recorder = obs_trace.enable() if opts.trace or opts.metrics else None

pflow = PerFlow()

# Run the binary and return a Program Abstraction Graph.  The "binary"
# is a program model; `cmd` is parsed for the rank count just like the
# paper's `pflow.run(bin="./a.out", cmd="mpirun -np 4 ./a.out")`.
pag = pflow.run(bin=npb.build_cg("W"), cmd="mpirun -np 8 ./cg.W.8")

# Build a PerFlowGraph (eager style, exactly Listing 1).
V_comm = pflow.filter(pag.V, name="MPI_*")
V_hot = pflow.hotspot_detection(V_comm)
V_imb = pflow.imbalance_analysis(V_hot)
V_bd = pflow.breakdown_analysis(V_imb)
attrs = ["name", "comm-info", "debug-info", "time"]
pflow.report(V_imb, V_bd, attrs=attrs, file=sys.stdout)

print(f"\nPAG: {pag}")
print(f"communication vertices: {len(V_comm)}, hotspots: {len(V_hot)}, imbalanced: {len(V_imb)}")

if recorder is not None:
    obs_trace.disable()
if opts.trace:
    recorder.save(opts.trace)
    print(f"wrote trace: {opts.trace}", file=sys.stderr)
if opts.metrics:  # counters, gauges, and the span summary as histograms
    obs_metrics.registry.save(opts.metrics, spans=recorder)
    print(f"wrote metrics: {opts.metrics}", file=sys.stderr)
