"""Passes and paradigms are pure: nothing they do writes to an input PAG.

A pass's answer is the set it returns — annotations ride as result
columns on that set (``VertexSet.with_columns``) — so a graph looks the
same to every other node of a run, to the cache and to a process
worker's twin before and after any built-in ran on it.  Checked for
every set-taking name in ``repro.passes.__all__`` on the top-down and
the parallel view of four bundled apps, and for every paradigm on the
PAGs it is given (graphs a paradigm builds itself — the difference PAG,
the parallel view — are its own).
"""

from __future__ import annotations

import pytest

import repro.paradigms
import repro.passes
from repro.apps import registry, vite
from repro.dataflow.api import PerFlow
from tests.test_execution_core import PARADIGM_CASES

_S = registry("S")
APPS = {
    "cg": (_S["cg"], dict(nprocs=8)),
    "zeusmp": (_S["zeusmp"], dict(nprocs=8)),
    "lammps": (_S["lammps"], dict(nprocs=8)),
    "vite": (lambda: vite.build(phases=1), dict(nprocs=2, nthreads=4)),
}

#: name -> call(V, V_hot, V_twin): ``V`` is the whole view, ``V_hot`` its 30
#: most wait-laden vertices (the pair-enumerating and pattern-matching
#: passes take suspects, not a whole graph) and ``V_twin`` the same view
#: of a second, identical run for the one two-graph pass.
P = repro.passes
CALLS = {
    "filter_set": lambda V, hot, twin: P.filter_set(V, name="MPI_*", time=0.0),
    "comm_filter": lambda V, hot, twin: P.comm_filter(V),
    "io_filter": lambda V, hot, twin: P.io_filter(V),
    "hotspot_detection": lambda V, hot, twin: P.hotspot_detection(V, metric="wait", n=25),
    "differential_analysis": lambda V, hot, twin: P.differential_analysis(V, twin, min_delta=0.0),
    "imbalance_analysis": lambda V, hot, twin: P.imbalance_analysis(V),
    "breakdown_analysis": lambda V, hot, twin: P.breakdown_analysis(P.comm_filter(V)),
    "causal_analysis": lambda V, hot, twin: P.causal_analysis(hot)[0],
    "contention_detection": lambda V, hot, twin: P.contention_detection(hot)[0],
    "backtracking_analysis": lambda V, hot, twin: P.backtracking_analysis(hot)[0],
    "critical_path_analysis": lambda V, hot, twin: P.critical_path_analysis(V)[0],
    "community_scope": lambda V, hot, twin: P.community_scope(V),
    "Report": lambda V, hot, twin: P.Report("t").add_set(hot, ["name", "time"]).to_text(),
    "format_table": lambda V, hot, twin: P.format_table(hot, ["name", "time", "imbalance"]),
    "to_dot": lambda V, hot, twin: P.to_dot(hot, highlight=hot[:3]),
}
TAKES_NO_SET = {"default_contention_pattern"}
#: the columns the (formerly annotating) passes now hand back on their set
ANSWERS = {
    "imbalance_analysis": "imbalance",
    "breakdown_analysis": "breakdown",
    "causal_analysis": "causes",
    "contention_detection": "contention_hub",
    "backtracking_analysis": "backtrack_root",
}


def test_every_exported_pass_is_covered():
    assert set(CALLS) | TAKES_NO_SET == set(repro.passes.__all__)


def _state(pag):
    return (pag.fingerprint(), pag._vprops.version, pag._eprops.version, pag._struct_version)


@pytest.fixture(scope="module", params=list(APPS))
def views(request):
    """``{view name: (graph, twin graph)}`` for one app."""
    build, run_args = APPS[request.param]
    pflow, prog = PerFlow(), build()
    expand = run_args.get("nthreads", 1) > 1
    out = {}
    tds = [pflow.run(bin=prog, **run_args) for _ in range(2)]
    out["top-down"] = tuple(tds)
    out["parallel"] = tuple(
        pflow.parallel_view(td, max_ranks=4, expand_threads=expand) for td in tds
    )
    return out


@pytest.mark.parametrize("view", ["top-down", "parallel"])
@pytest.mark.parametrize("name", list(CALLS))
def test_pass_leaves_its_input_pag_untouched(name, view, views):
    pag, twin = views[view]
    before = _state(pag), _state(twin)
    assert before[0][0] == before[1][0], "the twin run is not the same graph"
    V = pag.vs
    result = CALLS[name](V, V.sort_by("wait").top(30), twin.vs)
    assert (_state(pag), _state(twin)) == before
    if name in ANSWERS:
        assert ANSWERS[name] in result.columns
        assert not any(ANSWERS[name] in v for v in pag.vertices())


@pytest.mark.parametrize("paradigm", list(PARADIGM_CASES))
def test_paradigm_leaves_its_input_pags_untouched(paradigm):
    assert paradigm in repro.paradigms.__all__
    build, runs, call = PARADIGM_CASES[paradigm]
    pflow, prog = PerFlow(), build()
    pags = [pflow.run(bin=prog, **kwargs) for kwargs in runs]
    before = [_state(pag) for pag in pags]
    call(pflow, *pags)
    assert [_state(pag) for pag in pags] == before
