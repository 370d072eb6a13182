"""Fingerprint-cached incremental linting.

Most lint work is per-function: the function-scope rules (PF001, PF004,
PF005, PF006 — see :class:`repro.lint.registry.Rule`) look at one
function's sites at a time.  Their results are therefore cacheable
per function, keyed on everything that can change them:

* the **function fingerprint** — a structural walk of its IR subtree
  hashing node types, names, lines, operand values, and the identity of
  every ``Dyn`` callable (via
  :func:`repro.cache.keys.callable_identity`, the same closure-aware
  machinery the pass cache uses);
* the function's **hotness** (reachability from a loop is a property of
  the *callers*, but it changes function-scope verdicts, so it is part
  of the key rather than a reason to give up on per-function caching);
* the **probe configuration** and the **rule-set fingerprint** (rule
  source changes invalidate everything, exactly like pass source
  changes invalidate pass-cache entries).

Program-scope rules (cross-rank matching, deadlock projection, lock
graphs) get a single whole-program entry whose key additionally folds
in the trace digest when dynamic confirmation is requested.

On a warm run over an unchanged program every per-function entry and
the program entry hit, no rule body executes, and the resulting report
is byte-identical to a cold run — that is what the benchmark in
``benchmarks/test_lint_incremental.py`` pins.  Anything that cannot be
keyed soundly (a ``Dyn`` that is a bound method, say) raises
:class:`~repro.cache.keys.Uncacheable` internally and simply executes
fresh every time — never silently mis-keyed, mirroring the pass-cache
philosophy.

The cache is one JSON file per program under
``<cache-dir>/lintcache/``, rewritten atomically each run with only the
current keys (stale entries age out immediately).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.cache.keys import Uncacheable, callable_identity
from repro.cache.store import default_cache_dir
from repro.diagnostics import Diagnostic, LintReport, Severity
from repro.ir.model import (
    Branch,
    Call,
    CommCall,
    Function,
    Loop,
    Node,
    Program,
    Stmt,
    ThreadCall,
)
from repro.lint.context import LintConfig, LintContext, Site
from repro.lint.registry import Rule, active_rules
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

__all__ = [
    "CACHE_FORMAT",
    "IncrementalStats",
    "function_fingerprint",
    "lint_program_incremental",
]

CACHE_FORMAT = "repro-lintcache/1"


@dataclass
class IncrementalStats:
    """What the cache did for one incremental lint run."""

    function_hits: int = 0
    function_misses: int = 0
    program_hit: bool = False
    #: functions (or the whole run) that could not be keyed soundly and
    #: therefore executed fresh without touching the cache.
    uncacheable: int = 0

    @property
    def functions(self) -> int:
        return self.function_hits + self.function_misses

    @property
    def hit_ratio(self) -> float:
        total = self.functions
        return self.function_hits / total if total else 0.0


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------
def _u(h, text: str) -> None:
    b = text.encode("utf-8")
    h.update(len(b).to_bytes(8, "little"))
    h.update(b)


def _dyn(h, value: Any) -> None:
    """Key material from a model attribute; callables hash by identity
    (source + closure values), raising :class:`Uncacheable` when that
    identity cannot be established."""
    if callable(value):
        h.update(b"fn")
        _u(h, callable_identity(value))
    else:
        h.update(b"v")
        _u(h, repr(value))


def _node_update(h, node: Node) -> None:
    _u(h, type(node).__name__)
    _u(h, node.name)
    h.update(int(node.line).to_bytes(8, "little", signed=True))
    if isinstance(node, Stmt):
        _dyn(h, node.cost)
        for key in sorted(node.pmu):
            _u(h, key)
            _dyn(h, node.pmu[key])
        _u(h, repr(node.touches))
    elif isinstance(node, Loop):
        _dyn(h, node.trips)
        h.update(b"[")
        for child in node.body:
            _node_update(h, child)
        h.update(b"]")
    elif isinstance(node, Branch):
        _dyn(h, node.condition)
        h.update(b"T")
        for child in node.then_body:
            _node_update(h, child)
        h.update(b"E")
        for child in node.else_body:
            _node_update(h, child)
        h.update(b".")
    elif isinstance(node, Call):
        _u(h, node.callee)
        _u(h, node.target.name)
        _dyn(h, node.cost)
    elif isinstance(node, CommCall):
        _u(h, node.op.value)
        for attr in ("peer", "source", "nbytes", "tag", "root"):
            _dyn(h, getattr(node, attr))
        _u(h, repr(node.req))
        _u(h, repr(node.requests))
    elif isinstance(node, ThreadCall):
        _u(h, node.op.value)
        _dyn(h, node.count)
        _u(h, node.lock)
        _dyn(h, node.hold)
        h.update(b"[")
        for child in node.body:
            _node_update(h, child)
        h.update(b"]")


def function_fingerprint(func: Function) -> str:
    """Structural digest of one function's IR subtree.

    Deliberately excludes node ``uid``\\ s (assigned at registration
    order, not content) so a rebuilt-but-identical program hits.
    Raises :class:`Uncacheable` when a ``Dyn`` attribute has no stable
    identity.
    """
    h = hashlib.blake2b(b"perflow-lintfn-v1", digest_size=16)
    _u(h, func.name)
    _u(h, func.source_file)
    h.update(int(func.line).to_bytes(8, "little", signed=True))
    for node in func.body:
        _node_update(h, node)
    return h.hexdigest()


def _config_fingerprint(config: LintConfig) -> str:
    h = hashlib.blake2b(b"perflow-lintcfg-v1", digest_size=16)
    h.update(int(config.nprocs).to_bytes(8, "little"))
    h.update(int(config.nthreads).to_bytes(8, "little"))
    _u(h, repr(tuple(config.sample_iterations)))
    _u(h, repr(config.cost_spread_threshold))
    for key in sorted(config.params):
        _u(h, key)
        _dyn(h, config.params[key])
    return h.hexdigest()


def _rules_fingerprint(rules: Sequence[Rule]) -> str:
    h = hashlib.blake2b(b"perflow-lintrules-v1", digest_size=16)
    for r in rules:
        _u(h, r.code)
        _u(h, r.scope)
        h.update(int(r.severity).to_bytes(8, "little"))
        _u(h, callable_identity(r.check))
    return h.hexdigest()


def _combine(*parts: str) -> str:
    h = hashlib.blake2b(b"perflow-lintkey-v1", digest_size=16)
    for part in parts:
        _u(h, part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# diagnostic (de)serialization
# ---------------------------------------------------------------------------
def _diag_to_dict(d: Diagnostic) -> Dict[str, Any]:
    return {
        "code": d.code,
        "severity": str(d.severity),
        "message": d.message,
        "file": d.file,
        "line": d.line,
        "function": d.function,
        "node": d.node,
        "status": d.status,
    }


def _diag_from_dict(x: Dict[str, Any]) -> Diagnostic:
    return Diagnostic(
        code=str(x["code"]),
        severity=Severity.parse(str(x["severity"])),
        message=str(x["message"]),
        file=str(x.get("file", "")),
        line=int(x.get("line", 0)),
        function=str(x.get("function", "")),
        node=str(x.get("node", "")),
        status=str(x.get("status", "")),
    )


# ---------------------------------------------------------------------------
# restricted context view
# ---------------------------------------------------------------------------
class _FunctionView:
    """A :class:`LintContext` restricted to one function's sites.

    Function-scope rules iterate ``ctx.sites_of(...)``; giving them a
    view whose site list covers a single function is what makes their
    findings attributable to (and cacheable under) that function's key.
    Everything else — probing, config, static structure — delegates to
    the full context.
    """

    def __init__(self, base: LintContext, fname: str):
        self._base = base
        self.sites: List[Site] = list(base.function_sites(fname))

    def sites_of(self, *types: Type[Node]) -> Iterator[Site]:
        for site in self.sites:
            if isinstance(site.node, types):
                yield site

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)


# ---------------------------------------------------------------------------
# the incremental runner
# ---------------------------------------------------------------------------
def _cache_path(cache_dir: Optional[str], program: Program) -> str:
    root = str(cache_dir) if cache_dir else str(default_cache_dir())
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in program.name)
    return os.path.join(root, "lintcache", f"{safe or 'program'}.json")


def _load_cache(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("format") != CACHE_FORMAT:
        return {}
    return data


def _store_cache(path: str, data: Dict[str, Any]) -> None:
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".lintcache-", dir=directory)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        pass  # a read-only cache dir degrades to always-miss, never fails


def _run_rules(
    rules: Sequence[Rule], ctx: Any, program: bool = False
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for r in rules:
        for finding in r.check(ctx):
            out.append(r.to_diagnostic(finding))
    return out


def lint_program_incremental(
    program: Program,
    config: Optional[LintConfig] = None,
    codes: Optional[Sequence[str]] = None,
    trace: Optional[Any] = None,
    cache_dir: Optional[str] = None,
) -> Tuple[LintReport, IncrementalStats]:
    """Like :func:`repro.lint.lint_program`, but re-running only the
    per-function rule work whose inputs changed since the last run.

    Returns ``(report, stats)``; the report is byte-identical to what a
    full run would produce.
    """
    config = config or LintConfig()
    rules = active_rules(codes)
    fn_rules = [r for r in rules if r.scope == "function"]
    prog_rules = [r for r in rules if r.scope == "program"]
    stats = IncrementalStats()

    with _span("lint.incremental", category="lint", program=program.name) as sp:
        ctx = LintContext(program, config, trace=trace)
        report = LintReport(subject=program.name)

        try:
            cfg_fp = _config_fingerprint(config)
            fn_rules_fp = _rules_fingerprint(fn_rules)
            prog_rules_fp = _rules_fingerprint(prog_rules)
        except Uncacheable:
            # Rule set or config itself is unkeyable: lint fully, no cache.
            stats.uncacheable += 1
            report.extend(_run_rules(fn_rules, ctx))
            report.extend(_run_rules(prog_rules, ctx))
            stats.function_misses = len(program.functions)
            report.sort()
            return report, stats

        path = _cache_path(cache_dir, program)
        cache = _load_cache(path)
        old_functions: Dict[str, Any] = cache.get("functions", {})
        old_program: Dict[str, Any] = cache.get("program", {})
        new_functions: Dict[str, Any] = {}

        # -- per-function tier ------------------------------------------
        fn_fps: Dict[str, Optional[str]] = {}
        for fname in sorted(program.functions):
            try:
                fn_fps[fname] = function_fingerprint(program.function(fname))
            except Uncacheable:
                fn_fps[fname] = None

        for fname in sorted(program.functions):
            fp = fn_fps[fname]
            if fp is None:
                stats.uncacheable += 1
                stats.function_misses += 1
                report.extend(_run_rules(fn_rules, _FunctionView(ctx, fname)))
                continue
            hot = "hot" if fname in ctx.hot_functions else "cold"
            key = _combine("fn", fp, hot, cfg_fp, fn_rules_fp)
            cached = old_functions.get(key)
            if cached is not None:
                stats.function_hits += 1
                diags = [_diag_from_dict(x) for x in cached]
            else:
                stats.function_misses += 1
                diags = _run_rules(fn_rules, _FunctionView(ctx, fname))
            new_functions[key] = [_diag_to_dict(d) for d in diags]
            report.extend(diags)

        # -- whole-program tier -----------------------------------------
        trace_fp = ""
        if trace is not None:
            from repro.runtime.records import trace_digest

            trace_fp = trace_digest(trace)
        cacheable_program = all(fp is not None for fp in fn_fps.values())
        prog_diags: List[Diagnostic]
        if cacheable_program:
            prog_key = _combine(
                "prog",
                program.name,
                program.entry,
                *[fn_fps[f] or "" for f in sorted(fn_fps)],
                cfg_fp,
                prog_rules_fp,
                trace_fp,
            )
            cached = old_program.get(prog_key)
            if cached is not None:
                stats.program_hit = True
                prog_diags = [_diag_from_dict(x) for x in cached]
            else:
                prog_diags = _run_rules(prog_rules, ctx)
            new_program = {prog_key: [_diag_to_dict(d) for d in prog_diags]}
        else:
            stats.uncacheable += 1
            prog_diags = _run_rules(prog_rules, ctx)
            new_program = {}
        report.extend(prog_diags)

        _metrics.counter("lint.cache.functions.hit").inc(stats.function_hits)
        _metrics.counter("lint.cache.functions.miss").inc(stats.function_misses)

        _store_cache(
            path,
            {
                "format": CACHE_FORMAT,
                "program": new_program,
                "functions": new_functions,
            },
        )

        report.sort()
        if sp:
            sp.set(
                hits=stats.function_hits,
                misses=stats.function_misses,
                program_hit=stats.program_hit,
            )
    return report, stats
