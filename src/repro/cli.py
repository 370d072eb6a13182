"""Command-line interface: run modelled programs and paradigms.

PerFlow's artifact drives analyses from small Python scripts; this CLI
packages the same flows for the terminal::

    python -m repro list
    python -m repro run cg --np 8 --report
    python -m repro paradigm communication zeusmp --np 16
    python -m repro paradigm scalability zeusmp --np 8 --np-large 64
    python -m repro paradigm mpi-profiler cg --np 8 --jobs 4
    python -m repro paradigm contention vite --np 4 --threads 8
    python -m repro pag stats cg --np 8 --parallel
    python -m repro pag stats --load saved.pag3 --mmap
    python -m repro pag convert uploaded_pag.json saved.pag3
    python -m repro run cg --np 8 --save-pag cg.pag3
    python -m repro table1            # regenerate Table 1's rows
    python -m repro table2 --ranks 128
    python -m repro cache stats       # on-disk pass-result cache
    python -m repro cache clear
    python -m repro serve --port 8321 --jobs 4 --cache-dir /var/cache/perflow
    python -m repro obs history       # recent ledger runs
    python -m repro obs show RUN
    python -m repro obs diff RUN_A RUN_B
    python -m repro obs regressions --threshold 25%
    python -m repro obs analyze t.json --tree --min-ms 0.5

Every analysis command accepts observability flags (:mod:`repro.obs`)::

    python -m repro paradigm mpi_profiler --app lammps --np 16 \
        --trace t.json --metrics m.json   # record spans + metrics
    python -m repro obs analyze t.json --metrics m.json   # self-analysis

``--trace`` records a Chrome trace-event JSON (loadable in Perfetto /
``chrome://tracing``); ``--metrics`` dumps the process-global metrics
registry; ``obs analyze`` turns a recorded trace back into a PAG and
runs PerFlow's own hotspot/imbalance passes over it.  ``-v``/``-vv``
raise logging verbosity on the ``repro.*`` logger hierarchy, ``-q``
silences everything below errors.  ``--jobs N`` runs PerFlowGraph
pipelines on N worker threads via the wavefront scheduler (default:
``$PERFLOW_JOBS`` or serial).  ``--cache`` / ``--no-cache`` /
``--cache-dir DIR`` control the content-addressed pass-result cache
(:mod:`repro.cache`; default ``$PERFLOW_CACHE`` / ``$PERFLOW_CACHE_DIR``
or off), and ``repro cache {stats,clear}`` manages the on-disk tier.

Every ``run``/``paradigm`` invocation is appended to the **run
ledger** (:mod:`repro.obs.ledger`) — the run's span summary, per-node
in/out sizes and cache hits, wall/CPU time — under ``.perflow/ledger/``
unless ``--no-ledger`` (or ``PERFLOW_LEDGER=0``) says otherwise; ``repro obs
{history,show,diff,regressions}`` analyzes the accumulated records, and
``obs regressions`` exits ``EXIT_ISSUES`` when a node breaches its
noise-aware baseline.  Every invocation records its spans into one
recorder — bounded to the newest spans (the **flight recorder**,
:mod:`repro.obs.flight`) unless ``--trace`` or the ledger needs them
all: unhandled crashes and SIGUSR2 dump them, with the open spans and a
metrics snapshot, as a crash report under ``$PERFLOW_CRASH_DIR``
(default ``.perflow/``).

Output is plain text; ``--dot FILE`` additionally writes a Graphviz
rendering of the relevant PAG fragment.

Exit codes distinguish *why* a command failed: ``EXIT_OK`` (0) on
success, ``EXIT_ISSUES`` (1) when an analysis ran and found problems
(a ``run`` that deadlocks, an ``obs regressions`` finding), and
``EXIT_USAGE`` (2) for usage errors — unknown program/paradigm names,
missing required options — matching argparse's own exit code for bad
flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.apps import lammps as lammps_mod
from repro.apps import registry
from repro.dataflow.api import PerFlow
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Command succeeded.
EXIT_OK = 0
#: The analysis ran to completion and reported issues.
EXIT_ISSUES = 1
#: Usage error (unknown program/paradigm, missing option); argparse's code.
EXIT_USAGE = 2

#: `repro paradigm`'s names, in `repro list`'s order.
PARADIGMS = ("mpi-profiler", "communication", "scalability", "critical-path", "contention")


def _usage_error(message: str) -> "SystemExit":
    print(f"repro: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _build(name: str, problem_class: str):
    reg = registry(problem_class)
    if name not in reg:
        raise _usage_error(f"unknown program {name!r}; try: {', '.join(sorted(reg))}")
    return reg[name]()


def _machine_for(name: str):
    return lammps_mod.MACHINE if name == "lammps" else None


def _pflow_for(args) -> PerFlow:
    return PerFlow(
        machine=_machine_for(args.program),
        jobs=args.jobs,
        backend=args.backend,
        cache=args.cache,
    )


def cmd_list(_args) -> int:
    print("modelled programs (repro.apps):")
    for name in sorted(registry()):
        print(f"  {name}")
    print(f"\nparadigms: {', '.join(PARADIGMS)}")
    return 0


def _maybe_save_pag(args, pag) -> None:
    """Honor ``--save-pag FILE`` (format 3) on run/paradigm."""
    path = getattr(args, "save_pag", None)
    if not path:
        return
    from repro.pag.formats import save_pag

    n = save_pag(pag, path)
    print(f"wrote PAG: {path} (format 3, {n:,} bytes)")


def cmd_run(args) -> int:
    from repro.runtime.engine import DeadlockError

    prog = _build(args.program, args.problem_class)
    pflow = _pflow_for(args)
    try:
        pag = pflow.run(bin=prog, nprocs=args.np, nthreads=args.threads)
    except DeadlockError as err:
        print(f"{prog.name}: deadlock — {err}")
        return EXIT_ISSUES
    _maybe_save_pag(args, pag)
    ctx = pflow.context(pag)
    print(f"{prog.name}: {args.np} ranks x {args.threads} threads")
    print(f"  simulated elapsed: {ctx.run.elapsed:.4f} s")
    print(f"  top-down PAG: |V|={pag.num_vertices} |E|={pag.num_edges}")
    print(f"  comm events: {len(ctx.run.comm_events)}, lock events: {len(ctx.run.lock_events)}")
    print(f"  collection overhead: {pag.metadata['dynamic_overhead_pct']:.2f}%")
    if args.report:
        hot = pflow.hotspot_detection(pag.V, n=args.top)
        pflow.report(hot, attrs=["name", "time", "wait", "debug-info"], file=sys.stdout)
    if args.dot:
        from repro.passes.report import to_dot

        hot = pflow.hotspot_detection(pag.V, n=max(args.top, 25))
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(hot, name=prog.name))
        print(f"wrote {args.dot}")
    return 0


def cmd_paradigm(args) -> int:
    from repro import paradigms  # looked up per call, so a patched function is what runs

    prog = _build(args.program, args.problem_class)
    pflow = _pflow_for(args)
    name = args.paradigm
    if name == "scalability" and not args.np_large:
        raise _usage_error("scalability needs --np-large")
    # The analysed run, then the run it is compared with: --np-large
    # ranks, or a quarter of the threads for contention.
    pag = pflow.run(bin=prog, nprocs=args.np, nthreads=args.threads)
    if name == "scalability":
        other = pflow.run(bin=prog, nprocs=args.np_large, nthreads=args.threads)
    elif name == "contention":
        other = pflow.run(bin=prog, nprocs=args.np, nthreads=max(args.threads // 4, 1))
    _maybe_save_pag(args, pag)

    if name == "mpi-profiler":
        rows = paradigms.mpi_profiler_paradigm(pflow, pag, top=args.top)
        print(f"{'call':18} {'site':20} {'time(s)':>10} {'app%':>7} {'count':>6}")
        for r in rows:
            print(f"{r.name:18} {r.site:20} {r.time:10.4f} {r.app_pct:7.2f} {r.count:6}")
    elif name == "communication":
        _imb, _bd, report = paradigms.communication_analysis_paradigm(pflow, pag, top=args.top)
        print(report.to_text())
    elif name == "scalability":
        res = paradigms.scalability_analysis_paradigm(
            pflow, pag, other, top=args.top, max_ranks=min(args.np_large, 64)
        )
        print("scaling-loss hotspots:")
        for v in res.V_hot:
            print(f"  {v.name:20} {v['debug-info']:18} loss={v['time']:.4f}s")
        print(f"backtracking: {len(res.V_bt)} vertices, {len(res.E_bt)} edges")
        shown = set()
        print("root-cause candidates:")
        for v in res.roots:
            if v.name not in shown:
                shown.add(v.name)
                print(f"  {v.name} ({v['debug-info']}) on process {v['process']}")
    elif name == "critical-path":
        res = paradigms.critical_path_paradigm(
            pflow, pag, max_ranks=min(args.np, 32), expand_threads=args.threads > 1
        )
        print(f"critical path weight: {res.weight:.4f}s")
        for vname, proc, thread, weight in res.summary[: args.top]:
            print(f"  {vname:20} p{proc}.t{thread}  {weight:.4f}s")
    else:  # contention; argparse restricts the names to PARADIGMS
        res = paradigms.branching_diagnosis_paradigm(
            pflow, other, pag, top=args.top, max_ranks=min(args.np, 8)
        )
        print(f"differential suspects: {', '.join(sorted({v.name for v in res.V_diff}))}")
        print(
            f"contention: {len(res.V_contention)} vertices in "
            f"{len(res.E_contention)} inter-thread wait edges"
        )
        for hub in sorted({v["contention_hub"] for v in res.V_contention if v["contention_hub"]})[:5]:
            print(f"  serialization hub: {hub}")
    return 0


def _table_runs(args):
    """Each registered program run at ``--ranks`` (Vite on 4 threads,
    LAMMPS on its machine): ``(name, program, run, top-down view)``."""
    from repro.pag.views import build_top_down_view
    from repro.runtime.executor import run_program

    for name, build in registry(args.problem_class).items():
        prog = build()
        nthreads = 4 if name == "vite" else 1
        run = run_program(prog, nprocs=args.ranks, nthreads=nthreads, machine=_machine_for(name))
        yield name, prog, run, build_top_down_view(prog, run)[0]


def cmd_table1(args) -> int:
    from repro.ir.static_analysis import static_analysis_cost
    from repro.pag.formats import storage_size
    from repro.runtime.sampler import dynamic_overhead_percent

    print(f"{'program':8} {'static(s)':>10} {'dynamic%':>9} {'space':>9}")
    for name, prog, run, td in _table_runs(args):
        print(
            f"{name:8} {static_analysis_cost(prog):10.2f} "
            f"{dynamic_overhead_percent(run):9.2f} {storage_size(td) / 1000:8.0f}K"
        )
    return 0


def cmd_table2(args) -> int:
    from repro.ir.binary import binary_info
    from repro.pag.views import parallel_view_stats

    print(f"{'program':8} {'KLoC':>7} {'binary':>9} {'|V|td':>7} {'|E|td':>7} {'|V|par':>10} {'|E|par':>10}")
    for name, prog, run, td in _table_runs(args):
        pv_v, pv_e = parallel_view_stats(td, run)
        info = binary_info(prog)
        print(
            f"{name:8} {info.code_kloc:7.1f} {info.binary_bytes:9} "
            f"{td.num_vertices:7} {td.num_edges:7} {pv_v:10} {pv_e:10}"
        )
    return 0


def _print_column_block(heading: str, stats: dict, kinds: dict) -> None:
    print(f"  {heading}:")
    if not stats:
        print("    (none)")
        return
    for key, nbytes in sorted(stats.items(), key=lambda kv: -kv[1]):
        kind = kinds.get(key, "?")
        print(f"    {key:18} [{kind}] {nbytes:>10,} B")


def cmd_pag(args) -> int:
    if args.action == "convert":
        return cmd_pag_convert(args)
    import json as json_mod
    import os

    on_disk = None
    if args.load:
        from repro.pag.formats import detect_format, load_pag, read_header

        if args.parallel:
            raise _usage_error(
                "--parallel needs a simulated run; it cannot combine with --load"
            )
        fmt = detect_format(args.load)
        if args.mmap and fmt != 3:
            raise _usage_error(
                f"--mmap needs a format-3 file; {args.load!r} is format {fmt} "
                f"(convert it to format 3 with `repro pag convert {args.load} OUT`)"
            )
        pag = load_pag(args.load, mmap=args.mmap)
        on_disk = {
            "format": fmt,
            "bytes": os.stat(args.load).st_size,
            "mmap": bool(args.mmap),
        }
        if fmt == 3:
            hdr = read_header(args.load)
            on_disk["segments"] = {
                name: nbytes for name, (_off, nbytes) in hdr["directory"]["segments"].items()
            }
            on_disk["header_bytes"] = hdr["data_start"]
            lazy = sum(
                1
                for store in (pag._vprops, pag._eprops)
                for col in store.columns.values()
                if getattr(col, "is_lazy", False)
            )
            on_disk["lazy_columns"] = lazy
        name = pag.name
        pags = [("top-down", pag)]
    else:
        if args.mmap:
            raise _usage_error("--mmap only applies with --load FILE")
        prog = _build(args.program, args.problem_class)
        pflow = _pflow_for(args)
        pag = pflow.run(bin=prog, nprocs=args.np, nthreads=args.threads)
        name = prog.name
        pags = [("top-down", pag)]
        if args.parallel:
            pags.append(
                ("parallel", pflow.parallel_view(pag, max_ranks=min(args.np, 64)))
            )
    payload = {}
    for label, g in pags:
        stats = g.memory_stats()
        stats["total"] = (
            sum(stats["structural"].values())
            + stats["strings"]
            + sum(stats["vertex_columns"].values())
            + sum(stats["edge_columns"].values())
        )
        stats["vertex_column_kinds"] = {
            k: col.kind for k, col in g._vprops.columns.items()
        }
        stats["edge_column_kinds"] = {
            k: col.kind for k, col in g._eprops.columns.items()
        }
        payload[label] = stats
    if on_disk is not None:
        payload["on_disk"] = on_disk
    if args.json:
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
        return 0
    for label, stats in payload.items():
        if label == "on_disk":
            continue
        print(
            f"{name} {label} view: |V|={stats['num_vertices']:,} "
            f"|E|={stats['num_edges']:,} "
            f"({stats['total'] / 1024:.1f} KiB columnar)"
        )
        print(f"  structural arrays: {sum(stats['structural'].values()):,} B")
        print(f"  string table:      {stats['strings']:,} B")
        _print_column_block(
            "vertex columns", stats["vertex_columns"], stats["vertex_column_kinds"]
        )
        _print_column_block(
            "edge columns", stats["edge_columns"], stats["edge_column_kinds"]
        )
    if on_disk is not None:
        mode = " (mmap, lazy columns)" if on_disk["mmap"] else ""
        print(
            f"  on disk: format {on_disk['format']}, "
            f"{on_disk['bytes']:,} B{mode}"
        )
        if "segments" in on_disk:
            print(
                f"    header+directory: {on_disk['header_bytes']:,} B, "
                f"{on_disk['lazy_columns']} lazy column(s)"
            )
            for seg, nbytes in sorted(
                on_disk["segments"].items(), key=lambda kv: -kv[1]
            ):
                print(f"    {seg:22} {nbytes:>12,} B")
    return 0


def cmd_pag_convert(args) -> int:
    from repro.pag.formats import detect_format, load_pag, save_pag

    src_fmt = detect_format(args.infile)
    pag = load_pag(args.infile)
    n = save_pag(pag, args.outfile, include_per_rank=args.per_rank)
    print(
        f"converted {args.infile} (format {src_fmt}) -> "
        f"{args.outfile} (format 3, {n:,} bytes)"
    )
    return EXIT_OK


def cmd_obs(args) -> int:
    handlers = {
        "analyze": cmd_obs_analyze,
        "history": cmd_obs_history,
        "show": cmd_obs_show,
        "diff": cmd_obs_diff,
        "regressions": cmd_obs_regressions,
    }
    return handlers[args.action](args)


def cmd_obs_analyze(args) -> int:
    if args.tree:
        import json as json_mod

        try:
            with open(args.trace_file, "r", encoding="utf-8") as fh:
                rec = obs_trace.SpanRecorder.from_chrome_trace(json_mod.load(fh))
        except FileNotFoundError as err:
            raise _usage_error(f"no such trace file: {err.filename}")
        except ValueError as err:
            raise _usage_error(f"not a repro trace: {err}")
        if not rec.spans:
            raise _usage_error(f"no spans in {args.trace_file!r}")
        print(rec.to_tree(min_ms=args.min_ms))
        return EXIT_OK
    from repro.obs.selfpag import analyze_trace

    try:
        res = analyze_trace(
            args.trace_file,
            top=args.top,
            metrics_path=args.metrics,
            imbalance_threshold=args.threshold,
        )
    except FileNotFoundError as err:
        raise _usage_error(f"no such trace file: {err.filename}")
    except (ValueError, KeyError) as err:
        raise _usage_error(f"not a repro trace: {err}")
    print(res.to_text(top=args.top))
    return EXIT_OK


def _ledger_for(args):
    from repro.obs import ledger as obs_ledger

    root = obs_ledger.resolve_ledger(True, getattr(args, "ledger_dir", None))
    return obs_ledger.Ledger(root)


def _ledger_get(ledger, run_id):
    try:
        return ledger.get(run_id)
    except KeyError as err:
        raise _usage_error(err.args[0] if err.args else str(err))


def _fmt_run_line(rec) -> str:
    import time as time_mod

    when = time_mod.strftime(
        "%Y-%m-%d %H:%M:%S", time_mod.localtime(rec.get("time", 0))
    )
    what = rec.get("paradigm") or rec.get("command", "?")
    target = rec.get("program") or "-"
    return (
        f"{rec['run_id']:34} {when}  {rec.get('command', '?'):8} "
        f"{what:14} {target:10} wall={rec.get('wall_s', 0.0):8.3f}s "
        f"exit={rec.get('exit_code', 0)}"
    )


def cmd_obs_history(args) -> int:
    import json as json_mod

    ledger = _ledger_for(args)
    records = ledger.history(limit=args.limit)
    if args.json:
        print(json_mod.dumps(records, indent=2, sort_keys=True))
        return EXIT_OK
    if not records:
        print(f"no runs recorded under {ledger.root}")
        return EXIT_OK
    for rec in records:
        print(_fmt_run_line(rec))
    return EXIT_OK


def cmd_obs_show(args) -> int:
    import json as json_mod

    from repro.obs import ledger as obs_ledger

    ledger = _ledger_for(args)
    rec = _ledger_get(ledger, args.run)
    if args.json:
        print(json_mod.dumps(rec, indent=2, sort_keys=True))
        return EXIT_OK
    print(_fmt_run_line(rec))
    print(f"  argv:        {' '.join(rec.get('argv', []))}")
    print(f"  identity:    {rec.get('identity', '?')}")
    fps = rec.get("pag_fingerprints") or []
    print(f"  PAG fps:     {', '.join(fp[:16] for fp in fps) or '-'}")
    print(
        f"  wall/cpu:    {rec.get('wall_s', 0.0):.3f}s / "
        f"{rec.get('cpu_s', 0.0):.3f}s on Python {rec.get('python', '?')}"
    )
    times = obs_ledger.node_times(rec)
    nodes = sorted(times, key=lambda name: (-times[name], name))
    if nodes:
        print(f"  nodes ({len(nodes)}):")
        print(
            f"    {'name':24} {'count':>5} {'total(s)':>10} {'p50(s)':>10} "
            f"{'max(s)':>10} {'in':>8} {'out':>8} {'cache':>9}"
        )
        for name in nodes:
            summ = rec["spans"]["node:" + name]
            node = rec["nodes"].get(name, {})
            cache = ""
            if "cache_hits" in node or "cache_misses" in node:
                cache = f"{node.get('cache_hits', 0)}h/{node.get('cache_misses', 0)}m"
            print(
                f"    {name:24} {summ['count']:>5} "
                f"{summ['sum']:>10.4f} {summ['p50']:>10.4f} {summ['max']:>10.4f} "
                f"{node.get('in_size', '-'):>8} {node.get('out_size', '-'):>8} "
                f"{cache:>9}"
            )
    return EXIT_OK


def cmd_obs_diff(args) -> int:
    import json as json_mod

    from repro.obs import ledger as obs_ledger

    ledger = _ledger_for(args)
    rec_a = _ledger_get(ledger, args.run_a)
    rec_b = _ledger_get(ledger, args.run_b)
    rows = obs_ledger.diff_records(rec_a, rec_b)
    if args.json:
        print(json_mod.dumps(rows, indent=2, sort_keys=True))
        return EXIT_OK
    if rec_a.get("identity") != rec_b.get("identity"):
        print(
            f"note: comparing different run identities "
            f"({rec_a.get('identity')} vs {rec_b.get('identity')})"
        )
    print(f"a: {rec_a['run_id']}  wall={rec_a.get('wall_s', 0.0):.3f}s")
    print(f"b: {rec_b['run_id']}  wall={rec_b.get('wall_s', 0.0):.3f}s")
    if not rows:
        print("no pipeline node spans in either run")
        return EXIT_OK
    print(f"{'node':24} {'a(s)':>10} {'b(s)':>10} {'delta(s)':>10} {'pct':>8}")
    for row in rows:
        a_s = f"{row['a_s']:.4f}" if row["a_s"] is not None else "-"
        b_s = f"{row['b_s']:.4f}" if row["b_s"] is not None else "-"
        pct = f"{row['pct']:+.1f}%" if row["pct"] is not None else "-"
        print(
            f"{row['name']:24} {a_s:>10} {b_s:>10} "
            f"{row['delta_s']:>+10.4f} {pct:>8}"
        )
    return EXIT_OK


def _parse_threshold(raw: str) -> float:
    try:
        return float(str(raw).strip().rstrip("%"))
    except ValueError:
        raise _usage_error(f"--threshold must be a percentage, got {raw!r}")


def cmd_obs_regressions(args) -> int:
    import json as json_mod

    from repro.obs import ledger as obs_ledger

    threshold = _parse_threshold(args.threshold)
    ledger = _ledger_for(args)
    if args.run:
        target = _ledger_get(ledger, args.run)
    else:
        recent = ledger.history(limit=1)
        if not recent:
            raise _usage_error(f"no runs recorded under {ledger.root}")
        target = recent[0]
    baseline = ledger.baseline_for(target, last=args.last)
    findings = obs_ledger.find_regressions(
        target, baseline, threshold_pct=threshold
    )
    if args.json:
        print(
            json_mod.dumps(
                {
                    "run_id": target["run_id"],
                    "baseline_runs": len(baseline),
                    "threshold_pct": threshold,
                    "regressions": findings,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return EXIT_ISSUES if findings else EXIT_OK
    print(f"target:   {target['run_id']} ({target.get('identity', '?')})")
    print(f"baseline: {len(baseline)} matching run(s)")
    if not obs_ledger.node_times(target):
        print(f"nothing to judge: {target['run_id']} has no pipeline node spans")
        return EXIT_OK
    if len(baseline) < obs_ledger.MIN_BASELINE_RUNS:
        print(
            f"not enough history to judge (need "
            f"{obs_ledger.MIN_BASELINE_RUNS} matching runs)"
        )
        return EXIT_OK
    if not findings:
        print(f"no regressions beyond {threshold:g}% over the baseline median")
        return EXIT_OK
    print(f"{'node':24} {'now(s)':>10} {'median(s)':>10} {'mad(s)':>10} {'pct':>9}")
    for f in findings:
        pct = f"{f['pct']:+.1f}%" if f["pct"] is not None else "new"
        print(
            f"{f['name']:24} {f['current_s']:>10.4f} {f['median_s']:>10.4f} "
            f"{f['mad_s']:>10.4f} {pct:>9}"
        )
    return EXIT_ISSUES


def cmd_serve(args) -> int:
    from repro.serve.server import ServerConfig, main_loop

    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        backend=args.backend,
        cache=args.cache,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        drain_timeout=args.drain_timeout,
        ledger=args.ledger,
        ledger_dir=args.ledger_dir,
        pag_root=args.pag_root,
    )
    if config.max_concurrent < 1:
        raise _usage_error("--max-concurrent must be >= 1")
    if config.max_queue < 0:
        raise _usage_error("--max-queue must be >= 0")
    return main_loop(config, announce=sys.stdout)


def cmd_cache(args) -> int:
    from repro.cache import DiskStore, default_cache_dir

    root = args.cache_dir if args.cache_dir else default_cache_dir()
    store = DiskStore(root)
    if args.action == "stats":
        stats = store.stats()
        print(f"cache dir: {stats['dir']}")
        print(f"  entries: {stats['entries']:,}")
        print(f"  bytes:   {stats['bytes']:,}")
    else:  # clear
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PerFlow reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flags, attachable to every subcommand (add_help=False so
    # they compose as argparse parents).
    logpar = argparse.ArgumentParser(add_help=False)
    logpar.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise log verbosity (-v info, -vv debug)",
    )
    logpar.add_argument(
        "-q", "--quiet", action="store_true", help="only log errors"
    )
    obspar = argparse.ArgumentParser(add_help=False)
    obspar.add_argument(
        "--trace", metavar="FILE",
        help="record a Chrome trace-event JSON of this command's execution",
    )
    obspar.add_argument(
        "--metrics", dest="metrics_out", metavar="FILE",
        help="write the metrics registry as JSON when the command finishes",
    )
    # Run-ledger flags for the commands whose runs are worth remembering
    # (run/paradigm); `repro obs {history,show,diff,regressions}`
    # reads what these write, from the same --ledger-dir.
    ledpar = argparse.ArgumentParser(add_help=False)
    ledpar.add_argument(
        "--ledger-dir", metavar="DIR", default=None,
        help="run-ledger directory (default: $PERFLOW_LEDGER_DIR or "
             ".perflow/ledger)",
    )
    ledgerpar = argparse.ArgumentParser(add_help=False, parents=[ledpar])
    ledgroup = ledgerpar.add_mutually_exclusive_group()
    ledgroup.add_argument(
        "--ledger", dest="ledger", action="store_const", const=True, default=None,
        help="append this run to the run ledger (default: $PERFLOW_LEDGER or on)",
    )
    ledgroup.add_argument(
        "--no-ledger", dest="ledger", action="store_const", const=False,
        help="skip the run ledger for this invocation",
    )
    # Executor flags for every command that runs PerFlowGraphs
    # (run/paradigm/pag stats/serve).
    execpar = argparse.ArgumentParser(add_help=False)
    execpar.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="workers per PerFlowGraph run (default: $PERFLOW_JOBS or 1 = serial)",
    )
    execpar.add_argument(
        "--backend", default=None, metavar="NAME",
        help="pool backend for --jobs: thread or process "
        "(default: $PERFLOW_BACKEND or thread)",
    )
    onoff = execpar.add_mutually_exclusive_group()
    onoff.add_argument(
        "--cache", dest="cache", action="store_const", const=True, default=None,
        help="enable the pass-result cache (default: $PERFLOW_CACHE or off)",
    )
    onoff.add_argument(
        "--no-cache", dest="cache", action="store_const", const=False,
        help="disable the pass-result cache",
    )
    execpar.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist cached pass results under DIR, shared across "
             "processes (implies --cache)",
    )

    sub.add_parser(
        "list", parents=[logpar], help="list modelled programs and paradigms"
    )

    def common(p):
        p.add_argument(
            "program", nargs="?", help="program name (see `repro list`)"
        )
        p.add_argument(
            "--app", help="program name (alternative to the positional)"
        )
        p.add_argument("--np", type=int, default=8, help="MPI rank count")
        p.add_argument("--threads", type=int, default=1, help="threads per rank")
        p.add_argument("--class", dest="problem_class", default="W", help="NPB class (S/W/A/B/C)")
        p.add_argument("--top", type=int, default=10, help="hotspot count")

    p_run = sub.add_parser(
        "run",
        parents=[logpar, obspar, ledgerpar, execpar],
        help="run a program and summarize its PAG",
    )
    common(p_run)
    p_run.add_argument("--report", action="store_true", help="print a hotspot report")
    p_run.add_argument("--dot", help="write a Graphviz view to this file")

    p_par = sub.add_parser(
        "paradigm",
        parents=[logpar, obspar, ledgerpar, execpar],
        help="run a built-in analysis paradigm",
    )
    p_par.add_argument(
        "paradigm",
        # Accept underscore spellings too (mpi_profiler == mpi-profiler);
        # argparse applies `type` before validating against `choices`.
        type=lambda s: s.replace("_", "-"),
        choices=PARADIGMS,
    )
    common(p_par)
    p_par.add_argument("--np-large", type=int, help="large-scale rank count (scalability)")
    for p in (p_run, p_par):
        p.add_argument(
            "--save-pag", metavar="FILE", default=None,
            help="save the analyzed PAG to FILE (format 3, mmap-able)",
        )

    p_pag = sub.add_parser(
        "pag",
        help="inspect a program's PAG (memory footprint per column) or "
             "convert a PAG file to format 3",
    )
    pag_sub = p_pag.add_subparsers(dest="action", required=True)
    p_stats = pag_sub.add_parser(
        "stats",
        parents=[logpar, obspar, execpar],
        help="report a PAG's per-column memory footprint",
    )
    common(p_stats)
    p_stats.add_argument(
        "--parallel", action="store_true", help="also report the parallel view"
    )
    p_stats.add_argument("--json", action="store_true", help="emit stats as JSON")
    p_stats.add_argument(
        "--load", metavar="FILE",
        help="inspect a saved PAG file instead of running a program",
    )
    p_stats.add_argument(
        "--mmap", action="store_true",
        help="open --load FILE via mmap (format 3 only): O(header) open, "
             "columns fault in lazily",
    )
    p_conv = pag_sub.add_parser(
        "convert",
        parents=[logpar, obspar],
        help="rewrite a PAG file (format-1 JSON or format 3) as format 3",
    )
    p_conv.add_argument("infile", help="PAG file (format 1 or 3; sniffed)")
    p_conv.add_argument("outfile", help="destination file (format 3)")
    p_conv.add_argument(
        "--per-rank", action="store_true",
        help="keep full per-rank vectors instead of scalar summaries",
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[logpar, ledgerpar, execpar],
        help="run the concurrent analysis server (HTTP/JSON + NDJSON)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks a free one; printed on startup)",
    )
    p_serve.add_argument(
        "--max-concurrent", type=int, default=4, metavar="N",
        help="pipeline runs executing at once (default 4)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="admitted-but-waiting requests beyond --max-concurrent "
             "before 429 rejection (default 16)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long a SIGTERM drain waits for in-flight requests",
    )
    p_serve.add_argument(
        "--pag-root", metavar="DIR", default=None,
        help="only serve pag_path requests resolving under DIR "
             "(default: any server-readable path; see docs/SERVING.md "
             "trust model)",
    )

    p_cache = sub.add_parser(
        "cache",
        parents=[logpar],
        help="inspect or clear the on-disk pass-result cache",
    )
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (default: $PERFLOW_CACHE_DIR or ~/.cache/perflow)",
    )

    for name in ("table1", "table2"):
        p_t = sub.add_parser(
            name, parents=[logpar, obspar], help=f"regenerate {name}'s rows"
        )
        p_t.add_argument("--ranks", type=int, default=32)
        p_t.add_argument("--class", dest="problem_class", default="W")

    p_obs = sub.add_parser(
        "obs",
        help="observability: trace self-analysis and the run ledger",
    )
    obs_sub = p_obs.add_subparsers(dest="action", required=True)

    p_an = obs_sub.add_parser(
        "analyze",
        parents=[logpar],
        help="self-analysis: run PerFlow's passes on one of its own traces",
    )
    p_an.add_argument(
        "trace_file", help="Chrome trace-event JSON written by --trace"
    )
    p_an.add_argument(
        "--metrics", metavar="FILE",
        help="metrics JSON written by --metrics, folded into the report",
    )
    p_an.add_argument("--top", type=int, default=10, help="hotspot count")
    p_an.add_argument(
        "--threshold", type=float, default=1.2,
        help="imbalance ratio above which a span group is flagged",
    )
    p_an.add_argument(
        "--tree", action="store_true",
        help="print the trace as an indented span tree instead of the "
             "hotspot/imbalance report",
    )
    p_an.add_argument(
        "--min-ms", type=float, default=0.0, metavar="N",
        help="with --tree: hide spans shorter than N milliseconds",
    )

    p_hist = obs_sub.add_parser(
        "history", parents=[logpar, ledpar], help="list recent ledger runs"
    )
    p_hist.add_argument(
        "--limit", type=int, default=20, help="runs to show (0 = all)"
    )
    p_hist.add_argument("--json", action="store_true", help="emit records as JSON")

    p_show = obs_sub.add_parser(
        "show", parents=[logpar, ledpar], help="show one ledger run record"
    )
    p_show.add_argument("run", help="run id (unambiguous prefixes accepted)")
    p_show.add_argument("--json", action="store_true", help="emit the record as JSON")

    p_diff = obs_sub.add_parser(
        "diff", parents=[logpar, ledpar],
        help="per-node duration deltas between two ledger runs",
    )
    p_diff.add_argument("run_a", help="baseline run id")
    p_diff.add_argument("run_b", help="comparison run id")
    p_diff.add_argument("--json", action="store_true", help="emit rows as JSON")

    p_reg = obs_sub.add_parser(
        "regressions", parents=[logpar, ledpar],
        help="flag nodes slower than their noise-aware ledger baseline "
             "(exit 1 on regression)",
    )
    p_reg.add_argument(
        "--run", default=None,
        help="target run id (default: the most recent record)",
    )
    p_reg.add_argument(
        "--last", type=int, default=8, metavar="N",
        help="baseline size: most recent N matching runs (default 8)",
    )
    p_reg.add_argument(
        "--threshold", default="25%",
        help="relative regression threshold over the baseline median, "
             "e.g. 25%% (default)",
    )
    p_reg.add_argument("--json", action="store_true", help="emit findings as JSON")
    return parser


#: Commands whose invocations land in the run ledger.
LEDGERED_COMMANDS = ("run", "paradigm")


def _ledger_params(args) -> dict:
    """The args that make two invocations "the same run" for baselines."""
    params = {}
    for key in ("np", "threads", "np_large", "problem_class", "jobs", "backend"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _append_ledger_record(args, ledger_dir, recorder, exit_code, wall_s, cpu_s) -> None:
    """Append this invocation to the run ledger (never raises)."""
    from repro.obs import ledger as obs_ledger

    log = obs_log.get_logger("cli")
    try:
        record = obs_ledger.build_run_record(
            command=args.command,
            argv=list(sys.argv[1:]),
            program=getattr(args, "program", None),
            paradigm=getattr(args, "paradigm", None),
            params=_ledger_params(args),
            recorder=recorder,
            wall_s=wall_s,
            cpu_s=cpu_s,
            exit_code=exit_code,
        )
        obs_ledger.Ledger(ledger_dir).append(record)
        log.info("ledger: recorded %s under %s", record["run_id"], ledger_dir)
    except Exception as err:
        log.warning("ledger append failed: %s", err)


def _resolve_ledger_dir(args) -> Optional[str]:
    """The ledger directory for a ledgered command, else None."""
    if args.command not in LEDGERED_COMMANDS:
        return None
    from repro.obs import ledger as obs_ledger

    try:
        return obs_ledger.resolve_ledger(
            getattr(args, "ledger", None), getattr(args, "ledger_dir", None)
        )
    except ValueError as err:
        raise _usage_error(str(err))


def _dispatch(args, recorder, ledger_dir: Optional[str]) -> int:
    """Run the selected command, then write its trace, metrics and
    ledger record from ``recorder``."""
    import time

    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "paradigm": cmd_paradigm,
        "pag": cmd_pag,
        "table1": cmd_table1,
        "table2": cmd_table2,
        "obs": cmd_obs,
        "cache": cmd_cache,
        "serve": cmd_serve,
    }
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    rc: Optional[int] = None
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        try:
            rc = handlers[args.command](args)
            return rc
        except ValueError as err:
            # Corrupt/truncated PAG files are a usage problem, not a crash.
            # Only a command that loaded the codecs can have raised one.
            formats = sys.modules.get("repro.pag.formats.base")
            if formats is None or not isinstance(err, formats.PAGFormatError):
                raise
            raise _usage_error(str(err))
        except OSError as err:
            # Unreadable input files / unwritable output paths used to
            # escape as tracebacks (run/paradigm/pag); report them cleanly.
            raise _usage_error(str(err))
    finally:
        if trace_path:
            recorder.save(trace_path)
            print(f"wrote trace: {trace_path}", file=sys.stderr)
        if metrics_path:
            obs_metrics.registry.save(metrics_path, spans=recorder)
            print(f"wrote metrics: {metrics_path}", file=sys.stderr)
        if ledger_dir and rc is not None:
            _append_ledger_record(
                args,
                ledger_dir,
                recorder,
                rc,
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    obs_log.configure_logging(
        verbosity=getattr(args, "verbose", 0), quiet=getattr(args, "quiet", False)
    )
    if hasattr(args, "jobs"):
        # Resolve the executor flags (and the PERFLOW_* defaults behind
        # them) up front: a bad value is a usage error, not a mid-run
        # traceback.
        from repro.dataflow.scheduler import resolve_backend, resolve_cache, resolve_jobs

        for resolve, value in (
            (resolve_jobs, args.jobs),
            (resolve_backend, args.backend),
            (resolve_cache, args.cache),
        ):
            try:
                resolve(value)
            except ValueError as err:
                raise _usage_error(str(err))
        # A directory names the cache; only --no-cache overrules it.
        if args.cache_dir and args.cache is not False:
            args.cache = args.cache_dir
    if hasattr(args, "app"):
        if args.app and args.program and args.app != args.program:
            raise _usage_error(
                f"program given twice: positional {args.program!r} vs "
                f"--app {args.app!r}"
            )
        args.program = args.program or args.app
        if not args.program and not getattr(args, "load", None):
            raise _usage_error(
                f"{args.command} needs a program (positional or --app); "
                "see `repro list`"
            )
    ledger_dir = _resolve_ledger_dir(args)
    # One recorder per invocation.  A --trace file and a ledger record
    # need every span; otherwise it is the flight recorder, the newest
    # spans only.  Either way a crash or SIGUSR2 dumps it.
    from repro.obs import flight as obs_flight

    full = getattr(args, "trace", None) or ledger_dir
    recorder = obs_flight.enable(None if full else obs_flight.DEFAULT_CAPACITY)
    obs_flight.install_signal_dump()
    try:
        return _dispatch(args, recorder, ledger_dir)
    except (SystemExit, KeyboardInterrupt):
        # Usage errors and Ctrl-C are not crashes; no report.
        raise
    except BaseException as exc:
        try:
            path = obs_flight.dump_crash_report(recorder, reason="crash", exc=exc)
            print(f"wrote crash report: {path}", file=sys.stderr)
        except OSError:
            pass
        raise
    finally:
        obs_flight.disable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
