"""The four CLI workloads: ``python -m repro paradigm …`` children.

End to end, one op is one child with default flags, measured by wall,
``wait4`` rusage and peak RSS, its stdout checked against
:mod:`bench.expected`.  The traced run replays the same command once
in-process through ``repro.cli.main`` with bench-side spans around each
layer's entry point, so the layer self times add up to the root span and
what is left of a real child's wall is reported as unattributed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from typing import Any, Callable, Dict, List, Tuple

from bench import expected, loadgen
from bench.harness import (
    ChildResult,
    Outcome,
    RunDir,
    RunResult,
    median,
    repro_argv,
    run_child,
)
from bench.trace import Tracer, instrument, wrap

#: workload -> (application, the paradigm function the CLI calls, stdout oracle)
WORKLOADS: Dict[str, Tuple[str, str, Callable[[str], str]]] = {
    "zeusmp_scalability": (
        "zeusmp", "scalability_analysis_paradigm", expected.check_zeusmp_scalability),
    "zeusmp_critical_path": (
        "zeusmp", "critical_path_paradigm", expected.check_zeusmp_critical_path),
    "vite_contention": (
        "vite", "branching_diagnosis_paradigm", expected.check_vite_contention),
    "lammps_profile": (
        "lammps", "mpi_profiler_paradigm", expected.check_lammps_profile),
}
STARTUP_REPS = 5
REPLAYS = 2
#: Share of ``--seconds`` the traced run spends on reference children.
TRACED_CHILD_SHARE = 0.5


class _Verifier:
    """Oracle check plus "stdout digest identical across reps"."""

    def __init__(self, name: str, outcome: Outcome):
        self.check = WORKLOADS[name][2]
        self.outcome = outcome
        self.first_digest = ""

    def op(self, child: ChildResult) -> bool:
        if child.returncode != 0:
            why = f"child exited {child.returncode}"
        else:
            why = self.check(child.stdout.decode("utf-8", errors="replace"))
            digest = hashlib.sha256(child.stdout).hexdigest()
            self.first_digest = self.first_digest or digest
            if not why and digest != self.first_digest:
                why = "stdout differs from the first rep"
        self.outcome.op(not why, why)
        return not why


def run(name: str, seed: int, seconds: float, rundir: RunDir) -> RunResult:
    outcome = Outcome()
    argv = repro_argv(*loadgen.CLI_ARGS[name])
    verifier = _Verifier(name, outcome)
    # Set-up is one unmeasured op: it compiles the bytecode, fills the page
    # cache and any on-disk cache a later PR adds, and faults in the memory
    # the timed children then reuse (this VM's host takes back pages that
    # sat free for a few seconds; re-faulting them costs ~5 ms/MB and would
    # otherwise land on the first timed op).  An op is 2-5 s, so set-up is
    # done once, not several times.
    warmup = run_child(argv, rundir)
    verifier.op(warmup)
    setup_s = warmup.wall_s
    ops: List[ChildResult] = []
    good = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:  # closed loop, one child at a time
        ops.append(run_child(argv, rundir))
    span_s = time.perf_counter() - t_start
    for child in ops:
        good += verifier.op(child)
    walls_ms = [c.wall_s * 1000.0 for c in ops]
    metrics = {
        "setup_s": setup_s,
        "latency_ms_p50": median(walls_ms),
        "throughput_ops_s": good / span_s,
        "cpu_ms_per_op": median([c.cpu_s * 1000.0 for c in ops]),
        "peak_rss_mb": max(c.rss_mb for c in ops),
    }
    info = {
        "samples": len(ops),
        "schedule_digest": loadgen.digest(loadgen.CLI_ARGS[name]),
        "stdout_digest": verifier.first_digest[:16],
    }
    return RunResult(name, seed, False, outcome, metrics, info)


def run_traced(name: str, seed: int, seconds: float, rundir: RunDir) -> RunResult:
    outcome = Outcome()
    verifier = _Verifier(name, outcome)

    # Reference children: what the replay's spans are reconciled against.
    # The first one is unmeasured (see ``run``), and the replay follows the
    # children at once so it reuses the memory they faulted in.
    argv = repro_argv(*loadgen.CLI_ARGS[name])
    flagged = argv + ["--trace", rundir.sub("t.json"), "--metrics", rundir.sub("m.json")]
    verifier.op(run_child(argv, rundir))
    plain_ms: List[float] = []
    flagged_ms: List[float] = []
    t_start = time.perf_counter()
    while len(plain_ms) < 2 or time.perf_counter() - t_start < seconds * TRACED_CHILD_SHARE:
        child = run_child(argv, rundir)
        verifier.op(child)
        plain_ms.append(child.wall_s * 1000.0)
        if name == "lammps_profile":  # the observability-cost guard lives here
            child = run_child(flagged, rundir)
            outcome.op(child.returncode == 0, "flagged child failed")
            flagged_ms.append(child.wall_s * 1000.0)

    # Two replays, the faster kept: one sample of a 2-5 s op too often
    # carries a host hiccup (see README, "What this VM does to timings").
    app, _paradigm, check = WORKLOADS[name]
    replays = []
    for _ in range(REPLAYS):
        tracer, counts = Tracer(name), {}
        why = check(_replay(name, tracer, counts))
        if not why and counts.get("ir.vertices") != expected.TABLE2_VERTICES[app]:
            why = f"top-down |V| is {counts.get('ir.vertices')}, not Table 2's"
        outcome.op(not why, why)
        replays.append((tracer, counts))
    tracer, counts = min(replays, key=lambda r: r[0].spans[0][2] - r[0].spans[0][1])

    startup_ms = []
    for _ in range(STARTUP_REPS):
        child = run_child(repro_argv("list"), rundir)
        outcome.op(child.returncode == 0, "`repro list` failed")
        startup_ms.append(child.wall_s * 1000.0)

    self_ms = tracer.self_ms()
    metrics = {f"{layer}_ms": ms for layer, ms in self_ms.items()}
    metrics.update(counts)
    # Reconcile fastest with fastest: host noise only ever adds time.
    metrics["cli.startup_ms"] = min(startup_ms)
    wall_ms = min(plain_ms)
    attributed = metrics["cli.startup_ms"] + sum(self_ms.values())
    metrics["bench.unattributed_pct"] = 100.0 * (wall_ms - attributed) / wall_ms
    if flagged_ms:
        metrics["obs.trace_flag_overhead_pct"] = 100.0 * (min(flagged_ms) / wall_ms - 1.0)
    info = {"reference_wall_ms": wall_ms, "reference_samples": len(plain_ms)}
    return RunResult(name, seed, True, outcome, metrics, info, tracer.to_json())


def _replay(name: str, tracer: Tracer, counts: Dict[str, float]) -> str:
    """Run the workload's command in-process with every layer boundary spanned.

    ``cli.dispatch`` — the ``repro.cli.main`` call — is the root, span 0.
    """
    import repro.cli
    import repro.paradigms  # noqa: F401 - patched below; the CLI imports it lazily

    def on_run(result: Any) -> None:
        counts["runtime.comm_events"] = counts.get("runtime.comm_events", 0) + len(result.comm_events)
        counts["runtime.lock_events"] = counts.get("runtime.lock_events", 0) + len(result.lock_events)

    def on_static(result: Any) -> None:
        counts["ir.vertices"] = result.pag.num_vertices

    def on_parallel_view(pv: Any) -> None:
        counts["pag.pv_vertices"] = pv.num_vertices
        counts["pag.pv_edges"] = pv.num_edges

    targets = [
        ("repro.dataflow.api", "run_program", "runtime.simulate", on_run),
        ("repro.pag.views", "analyze", "ir.analyze", on_static),
        ("repro.pag.views", "embed_samples", "pag.embed", None),
        ("repro.dataflow.api", "build_parallel_view", "pag.parallel_view", on_parallel_view),
        ("repro.dataflow.api", "critical_path_analysis", "passes.critical_path", None),
        ("repro.dataflow.api", "contention_detection", "passes.contention", None),
        ("repro.dataflow.api", "differential_analysis", "passes.differential", None),
        ("repro.paradigms", WORKLOADS[name][1], "paradigms.body", None),
    ]
    registry = repro.cli.registry

    def spanned_registry(*args: Any, **kwargs: Any) -> Dict[str, Callable]:
        with tracer.span("apps.build"):
            builders = registry(*args, **kwargs)
        return {app: wrap(tracer, build, "apps.build") for app, build in builders.items()}

    repro.cli.registry = spanned_registry
    out = io.StringIO()
    try:
        with instrument(tracer, targets), contextlib.redirect_stdout(out):
            with tracer.span("cli.dispatch"):
                rc = repro.cli.main(loadgen.CLI_ARGS[name])
    finally:
        repro.cli.registry = registry
    if rc != 0:
        raise RuntimeError(f"in-process replay of {name} returned {rc}")
    return out.getvalue()
