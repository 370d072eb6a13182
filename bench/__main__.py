"""``python -m bench``: run one workload, all of them, ``compare`` or ``--check``.

* ``python -m bench --workload NAME --seed N --seconds S --trace 0|1`` —
  the form the driver uses: one run in this (fresh) interpreter, every
  metric printed by name with its unit, the result object on the last
  line.
* ``python -m bench --seed 11 --out FILE [--reps N]`` — every workload
  untraced (N seeds each), then a traced pass, each run a fresh
  interpreter; one JSON file.
* ``python -m bench compare A.json B.json`` and ``python -m bench --check
  [FILE]`` — see :mod:`bench.compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench.harness import (
    ROOT,
    SRC,
    RunDir,
    RunResult,
    load_spec,
    metric_units,
    stop_children,
)


def _run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    sys.path.insert(0, SRC)  # in-process spans call into the layers directly
    from bench import cli_workloads, dag_workload, serve_workloads

    if name in cli_workloads.WORKLOADS:
        module: Any = cli_workloads
    elif name == "dag_backends":
        module = dag_workload
    else:
        module = serve_workloads
    with RunDir() as rundir:
        fn = module.run_traced if trace else module.run
        return fn(name, seed, seconds, rundir)


def _single(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    trace = bool(args.trace)
    units = metric_units(spec, trace)
    try:
        result = _run_workload(args.workload, args.seed, args.seconds, trace)
    finally:
        strays = stop_children()  # on every path out: no process outlives the run
    result.outcome.op(not strays, f"child processes left running: {strays}")
    # One workload exercises some layers only: the rest did no work here.
    result.metrics = {name: result.metrics.get(name, 0.0) for name in units}
    for why in result.outcome.failures:
        print(f"FAILED OP: {why}", file=sys.stderr)
    for name, value in result.metrics.items():
        print(f"{args.workload:22} {name:30} {value:14.4f} {units[name]}")
    for key, value in result.info.items():
        print(f"{args.workload:22} {key:30} {value}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.record(units), fh)
    print(json.dumps(result.result_line(units)))
    return 0


def _all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload with tracing off (``--reps`` seeds each), then the traced pass."""
    doc: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": {w["name"]: {"untraced": [], "traced": None} for w in spec["workloads"]},
    }
    failed = 0
    runs = [(0, args.seed + rep) for rep in range(args.reps)] + [(1, args.seed)]
    with RunDir() as rundir:
        for trace, seed in runs:
            for workload in doc["workloads"]:
                part = rundir.sub("record.json")
                argv = [sys.executable, "-m", "bench", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(args.seconds),
                        "--trace", str(trace), "--out", part]
                t0 = time.perf_counter()
                proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
                print(f"{workload:22} {'run_wall_s':30} {time.perf_counter() - t0:14.4f} s",
                      flush=True)
                if proc.returncode != 0:
                    print(f"{workload}: run exited {proc.returncode}", file=sys.stderr)
                    failed += 1
                    continue
                with open(part, encoding="utf-8") as fh:
                    record = json.load(fh)
                failed += record["failed"]
                if trace:
                    doc["workloads"][workload]["traced"] = record
                else:
                    doc["workloads"][workload]["untraced"].append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    print(f"failed ops: {failed}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from bench import compare

        return compare.main_compare(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured span per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--out", metavar="FILE", help="write the full record(s) as JSON")
    parser.add_argument("--reps", type=int, default=1,
                        help="without --workload: untraced runs per workload, on seeds "
                             "SEED, SEED+1, … (the spread `compare` needs)")
    parser.add_argument("--check", nargs="?", const="", metavar="FILE",
                        help="validate BENCHMARK.json (and FILE's metric names against it)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("bench: src/repro is missing; nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.check is not None:
        from bench import compare

        return compare.main_check(spec, args.check)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        return _single(args, spec)
    return _all(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
