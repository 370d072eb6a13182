"""Tests for the interactive analysis mode (§4.5).

Each test builds its own session; passes write nothing to the PAG, so
what ``suggest`` sees is the newest output and only that.
"""

import pytest

from repro.apps import vite, zeusmp
from repro.dataflow.api import PerFlow
from repro.dataflow.interactive import InteractiveSession, Suggestion
from repro.pag.sets import VertexSet


def fresh_zmp_session():
    pflow = PerFlow()
    pag = pflow.run(bin=zeusmp.build(steps=2), nprocs=16)
    return InteractiveSession(pflow, pag)


def test_initial_suggestion_is_hotspot():
    sess = fresh_zmp_session()
    s = sess.suggest()
    assert s.pass_name == "hotspot_detection"
    out = s.run()
    assert len(out) > 0
    assert sess.steps[0].pass_name == "hotspot_detection"


def test_comm_hotspots_lead_to_imbalance_analysis():
    sess = fresh_zmp_session()
    sess.start(n=30)
    s = sess.suggest()
    assert s.pass_name == "imbalance_analysis"
    out = s.run()
    assert sess._ran("imbalance_analysis")
    assert any(v["imbalance"] for v in out)


def test_imbalance_leads_to_backtracking():
    sess = fresh_zmp_session()
    sess.start(n=30)
    first = sess.suggest()
    assert first.pass_name == "imbalance_analysis"
    first.run()
    s = sess.suggest()
    assert s.pass_name == "backtracking_analysis"
    V_bt, _E_bt = s.run()
    assert len(V_bt) > 0


def test_lock_symbols_lead_to_contention():
    pflow = PerFlow()
    pag = pflow.run(bin=vite.build(phases=1), nprocs=2, nthreads=6)
    sess = InteractiveSession(pflow, pag)
    sess.start(n=30)
    s = sess.suggest()
    # Vite's hotspots contain allocator symbols -> contention directly
    assert s.pass_name == "contention_detection"
    V_cont, E_cont = s.run()
    assert sess._ran("contention_detection")
    assert len(V_cont) >= 0  # pattern search executed (embeddings optional)


def test_differential_suggested_with_second_run():
    pflow = PerFlow()
    prog = zeusmp.build(steps=2)
    pag_a = pflow.run(bin=prog, nprocs=16)
    pag_b = pflow.run(bin=prog, nprocs=16, params={"optimized": True})
    sess = InteractiveSession(pflow, pag_a, pag_other=pag_b)
    sess.record("custom", VertexSet([]))  # neutral output: no other rule fires
    s = sess.suggest()
    assert s.pass_name == "differential_analysis"
    out = s.run()
    assert len(out) == pag_a.num_vertices


def test_widen_when_no_signal():
    sess = fresh_zmp_session()
    # a synthetic quiet output: nothing comm/locky/imbalanced/waity
    quiet = VertexSet([sess.pag.vertex(0)])
    sess.record("custom", quiet)
    # root vertex has wait < 50% of time on this app -> widen
    s = sess.suggest()
    assert s.pass_name in ("hotspot_detection", "breakdown_analysis")
    s.run()
    assert len(sess.steps) == 2


def test_suggest_judges_the_newest_output_only():
    sess = fresh_zmp_session()
    sess.start(n=30)
    imb = sess.suggest().run()  # imbalance_analysis
    assert sess.suggest().pass_name == "backtracking_analysis"
    # the same vertices handed on without that pass's columns: what an
    # earlier step found is not on the graph for a later one to trip over
    sess.record("custom", VertexSet.from_ids(sess.pag, imb.ids()))
    assert sess.suggest().pass_name != "backtracking_analysis"


def test_non_set_output_suggests_report():
    sess = fresh_zmp_session()
    sess.start()
    sess.record("backtracking_analysis", (VertexSet([]), VertexSet([])))
    s = sess.suggest()
    assert s.pass_name == "report"


def test_transcript():
    sess = fresh_zmp_session()
    sess.start()
    text = sess.transcript()
    assert "interactive session" in text
    assert "hotspot_detection" in text


def test_suggestion_str():
    assert str(Suggestion("x", "because")) == "x: because"
