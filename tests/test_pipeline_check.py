"""Tests for the PerFlowGraph pipeline type-checker (PF8## diagnostics).

A mis-wired pipeline — e.g. an EdgeSet output fed to a VertexSet
input — must be rejected by :meth:`PerFlowGraph.check` *before any pass
executes*, while undeclared (untyped) passes keep running unchecked.
"""

import pytest

from repro.dataflow import PerFlowGraph, PipelineError, SetKind, signature
from repro.dataflow.signatures import PassSignature, make_signature, signature_of
from repro.pag.sets import EdgeSet, VertexSet


@signature(inputs=(VertexSet,), outputs=(VertexSet,))
def keep_vertices(V):
    return V


@signature(inputs=(VertexSet,), outputs=(VertexSet, EdgeSet))
def split(V):
    return V, EdgeSet([])


@signature(inputs=(VertexSet, EdgeSet), outputs=(VertexSet,))
def merge(V, E):
    return V


def test_well_typed_pipeline_checks_clean_and_runs():
    g = PerFlowGraph("ok")
    V = g.input("V", kind=VertexSet)
    s = g.add_pass(split, V, name="split")
    out = g.add_pass(merge, s.out(0), s.out(1), name="merge")
    assert g.check() == []
    result = g.run(V=VertexSet([]))
    assert isinstance(result["merge"], VertexSet)


def test_pf801_edgeset_into_vertexset_input():
    g = PerFlowGraph("wrong-kind")
    V = g.input("V", kind=VertexSet)
    s = g.add_pass(split, V, name="split")
    g.add_pass(keep_vertices, s.out(1), name="consume")  # out(1) is the EdgeSet
    diags = g.check()
    assert [d.code for d in diags] == ["PF801"]
    assert diags[0].format().startswith("PF801 error: ")
    assert (diags[0].graph, diags[0].node) == ("wrong-kind", "consume (node 2)")
    assert "expects a VertexSet but is fed a EdgeSet" in diags[0].message


def test_pf801_rejected_before_any_pass_executes():
    executed = []

    @signature(inputs=(VertexSet,), outputs=(VertexSet, EdgeSet))
    def tracked_split(V):
        executed.append("split")
        return V, EdgeSet([])

    g = PerFlowGraph("no-exec")
    V = g.input("V", kind=VertexSet)
    s = g.add_pass(tracked_split, V, name="split")
    g.add_pass(keep_vertices, s.out(1), name="consume")
    with pytest.raises(PipelineError) as exc:
        g.run(V=VertexSet([]))
    assert executed == []  # nothing ran
    assert isinstance(exc.value, TypeError)  # drop-in for ad-hoc TypeErrors
    assert [d.code for d in exc.value.diagnostics] == ["PF801"]


def test_pf801_binding_conflicts_with_declared_input_kind():
    g = PerFlowGraph("bad-binding")
    g.input("V", kind=VertexSet)
    diags = g.check(V=EdgeSet([]))
    assert [d.code for d in diags] == ["PF801"]
    assert "declared VertexSet but bound to a EdgeSet" in diags[0].message


def test_pf802_arity_mismatch():
    g = PerFlowGraph("arity")
    V = g.input("V", kind=VertexSet)
    g.add_pass(merge, V, name="merge")  # merge declares two inputs
    diags = g.check()
    assert [d.code for d in diags] == ["PF802"]
    assert "2 input(s)" in diags[0].message


def test_pf803_invalid_output_index():
    g = PerFlowGraph("bad-out")
    V = g.input("V", kind=VertexSet)
    s = g.add_pass(split, V, name="split")
    g.add_pass(keep_vertices, s.out(5), name="consume")
    diags = g.check()
    assert [d.code for d in diags] == ["PF803"]
    assert "declares 2 output(s)" in diags[0].message


def test_pf804_unknown_binding_name():
    g = PerFlowGraph("unknown")
    g.input("V", kind=VertexSet)
    diags = g.check(W=VertexSet([]))
    assert [d.code for d in diags] == ["PF804"]
    assert "'W'" in diags[0].message


def test_untyped_passes_stay_unchecked():
    g = PerFlowGraph("scalars")
    x = g.input("x")
    doubled = g.add_pass(lambda v: v * 2, x, name="double")
    g.add_pass(lambda v: v + 1, doubled, name="inc")
    assert g.check() == []
    assert g.run(x=4)["inc"] == 9


def test_inline_signature_types_a_lambda():
    g = PerFlowGraph("inline-sig")
    V = g.input("V", kind=VertexSet)
    s = g.add_pass(split, V, name="split")
    g.add_pass(
        lambda E: E,
        s.out(1),
        name="edges-only",
        signature=((EdgeSet,), (EdgeSet,)),
    )
    assert g.check() == []
    g.add_pass(
        lambda E: E,
        s.out(1),
        name="edges-as-vertices",
        signature=((VertexSet,), (VertexSet,)),
    )
    assert [d.code for d in g.check()] == ["PF801"]


def test_fixpoint_propagates_input_kind():
    g = PerFlowGraph("fix")
    V = g.input("V", kind=VertexSet)
    fp = g.add_fixpoint(lambda s: s, V, name="stable")
    g.add_pass(keep_vertices, fp, name="after")
    assert g.check() == []


def test_builtin_passes_carry_signatures():
    from repro.passes.causal import causal_analysis
    from repro.passes.hotspot import hotspot_detection

    hot = signature_of(hotspot_detection)
    assert hot == make_signature(inputs=(VertexSet,), outputs=(VertexSet,))
    causal = signature_of(causal_analysis)
    assert causal.outputs == (SetKind.VERTEX_SET, SetKind.EDGE_SET)


def test_builtin_pipeline_miswiring_is_caught():
    from repro.passes.causal import causal_analysis
    from repro.passes.hotspot import hotspot_detection

    g = PerFlowGraph("builtin")
    V = g.input("V", kind=VertexSet)
    hot = g.add_pass(hotspot_detection, V, name="hotspot")
    ca = g.add_pass(causal_analysis, hot, name="causal")
    g.add_pass(hotspot_detection, ca.out(1), name="hot-on-edges")
    diags = g.check()
    assert [d.code for d in diags] == ["PF801"]


def test_setkind_coercions():
    assert SetKind.of(VertexSet) is SetKind.VERTEX_SET
    assert SetKind.of(EdgeSet([])) is SetKind.EDGE_SET
    assert SetKind.of("edges") is SetKind.EDGE_SET
    assert SetKind.of("*") is SetKind.ANY
    assert SetKind.of(42) is SetKind.ANY  # arbitrary values stay unchecked
    with pytest.raises(ValueError):
        SetKind.of("frobnicate")
    assert SetKind.ANY.compatible(SetKind.EDGE_SET)
    assert not SetKind.VERTEX_SET.compatible(SetKind.EDGE_SET)
    assert str(PassSignature((SetKind.VERTEX_SET,), (SetKind.EDGE_SET,))) == (
        "(VertexSet) -> (EdgeSet)"
    )
