"""Differential suite: the lowered run -> PAG substrate against the
per-node, per-vertex and per-element code it replaced.

``tests/reference_shim.py`` keeps the old interpreter (one generator per
IR node visit), the old static expander (``add_vertex``/``add_edge`` per
vertex) and the old parallel-view steps (one handle per stat, one
``add_edge`` per event).  Every result must match bit for bit: stats by
``float.hex`` in key order, every event stream in order, the PAG arrays,
string table and path index in order.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.apps import lammps, npb, registry, vite, zeusmp
from repro.ir.model import (
    Branch,
    Call,
    CallTarget,
    CommCall,
    CommOp,
    Function,
    Loop,
    Program,
    Stmt,
    ThreadCall,
    ThreadOp,
)
from repro.ir.static_analysis import analyze
from repro.pag.columns import FloatColumn, IntColumn, SegmentBacking, StrColumn, StringTable
from repro.pag.views import build_parallel_view, build_top_down_view
from repro.runtime.engine import DeadlockError
from repro.runtime.executor import run_program

from tests import reference_shim as ref


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------
def _f(x):
    return x.hex() if isinstance(x, float) else x


def run_record(run):
    """Everything a RunResult holds, floats as ``float.hex``, in order."""
    return {
        "vertex_stats": [
            (path, [(unit, _f(s.time), _f(s.wait), _f(s.nbytes), s.count)
                    for unit, s in per_unit.items()])
            for path, per_unit in run.vertex_stats.items()
        ],
        "comm": [
            (e.op, _f(e.nbytes), _f(e.t_complete), e.src_rank, e.dst_rank, e.src_path,
             e.dst_path, _f(e.wait_time), _f(e.sender_wait),
             None if e.participants is None
             else [(r, p, _f(a), _f(w)) for r, p, a, w in e.participants])
            for e in run.comm_events
        ],
        "lock": [
            (e.rank, e.lock, e.waiter_thread, e.waiter_path, e.holder_thread,
             e.holder_path, _f(e.t_acquire), _f(e.wait_time))
            for e in run.lock_events
        ],
        "indirect": {uid: sorted(t) for uid, t in run.indirect_targets.items()},
        "elapsed": [(r, _f(t)) for r, t in run.per_rank_elapsed.items()],
    }


def outcome(runner, program, **kwargs):
    """A run's record, or the error it raised (type, message, evidence)."""
    try:
        return run_record(runner(program, **kwargs))
    except DeadlockError as err:
        return ("DeadlockError", str(err), err.blocked)
    except (RuntimeError, ValueError, KeyError) as err:
        return (type(err).__name__, str(err))


def analysis_record(res):
    pag = res.pag
    return (
        [bytes(getattr(pag, a)) for a, _ in pag._STRUCT_ARRAYS],
        list(pag.strings),
        list(res.path_to_vertex.items()),
        res.unresolved_calls,
        {k: (type(c).__name__, list(c.items())) for k, c in pag._vprops.columns.items()},
        (pag._vprops.nrows, pag._eprops.nrows),
    )


def pv_record(pv):
    return (
        [bytes(getattr(pv, a)) for a, _ in pv._STRUCT_ARRAYS],
        list(pv._vprops.columns),
        list(pv._eprops.columns),
        (pv._vprops.nrows, pv._eprops.nrows),
        pv.fingerprint(),
    )


def assert_same_run(program, **kwargs):
    assert outcome(run_program, program, **kwargs) == outcome(ref.run_program, program, **kwargs)


# ---------------------------------------------------------------------------
# hypothesis programs
# ---------------------------------------------------------------------------
PEERS = [
    lambda c: (c.rank + 1) % c.nprocs,
    lambda c: (c.rank - 1) % c.nprocs,
    lambda c: c.rank ^ 1,
    0,
]
LABELS = ["", "a", "b"]
NEXT, PREV = PEERS[0], PEERS[1]
#: Matched exchanges: every rank running one completes it, so programs
#: built from them reach comm events instead of stopping at a deadlock.
EXCHANGES = [
    lambda: [CommCall(CommOp.ISEND, peer=NEXT, nbytes=64, req="a"),
             CommCall(CommOp.IRECV, peer=PREV, nbytes=64, req="b"),
             CommCall(CommOp.WAIT, requests=["a"]),
             CommCall(CommOp.WAITALL)],
    lambda: [CommCall(CommOp.IRECV, peer=PREV, nbytes=8, req="a"),
             CommCall(CommOp.ISEND, peer=NEXT, nbytes=1 << 20, req="b"),
             CommCall(CommOp.ISEND, peer=NEXT, nbytes=8, req="a"),
             CommCall(CommOp.IRECV, peer=PREV, nbytes=8),
             CommCall(CommOp.WAIT, requests=["b"]),
             CommCall(CommOp.WAIT, requests=["b"]),
             CommCall(CommOp.WAITALL)],
    lambda: [CommCall(CommOp.SENDRECV, peer=NEXT, source=PREV, nbytes=1 << 20)],
    lambda: [CommCall(CommOp.SEND, peer=NEXT, nbytes=8), CommCall(CommOp.RECV, peer=PREV, nbytes=8)],
    lambda: [CommCall(CommOp.ALLREDUCE, nbytes=lambda c: 8 * (c.rank + 1))],
]


@st.composite
def programs(draw):
    """Nests of every IR node kind over up to three helper functions.

    ``f<i>`` only calls ``f<j>`` with ``j > i`` (plus a missing callee),
    except for one guarded self-call: recursion under a loop whose depth
    bounds it, so every program terminates.
    """
    nfuncs = draw(st.integers(0, 3))

    def cost():
        return draw(st.sampled_from([
            0.0, 1e-3, 2, lambda c: 1e-4 * (1 + c.rank % 3 + c.iteration),
        ]))

    def node(fi, depth, in_thread):
        kinds = ["stmt", "exchange", "comm", "loop", "branch", "call", "thread", "alloc", "lock"]
        if depth >= 2:
            kinds = ["stmt", "exchange", "comm", "call", "alloc"]
        kind = draw(st.sampled_from(kinds))
        if in_thread and kind in ("exchange", "comm", "call", "thread"):
            kind = draw(st.sampled_from(["stmt", "alloc", "lock"]))
        if kind == "exchange":
            return draw(st.sampled_from(EXCHANGES))()
        if kind == "stmt":
            return [Stmt("s", cost=cost())]
        if kind == "alloc":
            op = draw(st.sampled_from([ThreadOp.ALLOC, ThreadOp.REALLOC, ThreadOp.DEALLOC]))
            return [ThreadCall(op, hold=draw(st.sampled_from([1e-4, lambda c: 1e-5 * c.thread])))]
        if kind == "lock":
            return [ThreadCall(ThreadOp.MUTEX_LOCK, hold=1e-4, lock="m"),
                    ThreadCall(ThreadOp.MUTEX_UNLOCK, lock="m")]
        if kind == "loop":
            trips = draw(st.sampled_from([0, 1, 2, 3, lambda c: 1 + c.rank % 2]))
            return [Loop(trips, body(fi, depth + 1, in_thread))]
        if kind == "branch":
            cond = draw(st.sampled_from([
                lambda c: c.rank % 2 == 0, lambda c: c.iteration == 0, lambda c: True,
            ]))
            return [Branch(cond, body(fi, depth + 1, in_thread), body(fi, depth + 1, in_thread))]
        if kind == "call":
            callees = [f"f{j}" for j in range(fi + 1, nfuncs)] + ["missing"]
            target = draw(st.sampled_from(list(CallTarget)))
            if target is CallTarget.INDIRECT:
                callee = (lambda names: lambda c: names[c.rank % len(names)])(callees)
            else:
                callee = draw(st.sampled_from(callees))
            return [Call(callee, target=target, cost=cost())]
        if kind == "thread":
            count = draw(st.sampled_from([0, 1, 2, lambda c: c.params["nthreads"]]))
            inner = body(fi, depth + 1, True)
            return [ThreadCall(ThreadOp.CREATE, body=inner, count=count),
                    ThreadCall(ThreadOp.JOIN)]
        op = draw(st.sampled_from(list(CommOp)))
        if op in (CommOp.WAIT, CommOp.WAITALL):
            requests = draw(st.lists(st.sampled_from(["a", "b"]), unique=True, max_size=2))
            return [CommCall(op, requests=requests)]
        return [CommCall(
            op,
            peer=draw(st.sampled_from(PEERS)),
            source=draw(st.sampled_from([None] + PEERS)),
            nbytes=draw(st.sampled_from([8, 1 << 20, lambda c: 16 * (c.rank + 1)])),
            tag=draw(st.integers(0, 1)),
            req=draw(st.sampled_from(LABELS)),
            root=draw(st.integers(0, 1)),
        )]

    def body(fi, depth, in_thread=False):
        out = []
        for _ in range(draw(st.integers(0 if depth else 1, 3))):
            out += node(fi, depth, in_thread)
        return out

    p = Program(name="hyp")
    for fi in reversed(range(nfuncs)):
        nodes = body(fi, 1)
        if draw(st.booleans()):
            nodes.append(Branch(
                lambda c: len(c.iterations) < 3,
                then_body=[Loop(1, [Call(f"f{fi}")])],
                name="recurse",
            ))
        p.add_function(Function(f"f{fi}", nodes))
    main = body(-1, 0) + [Call(f"f{fi}") for fi in range(nfuncs)]
    p.add_function(Function("main", main))
    return p


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(), nprocs=st.integers(1, 4), nthreads=st.integers(1, 3))
def test_lowered_run_equals_per_node_interpreter(program, nprocs, nthreads):
    assert_same_run(program, nprocs=nprocs, nthreads=nthreads)
    try:
        traced = run_program(program, nprocs=nprocs, nthreads=nthreads).indirect_targets
    except (RuntimeError, ValueError, KeyError):  # a deadlock, a send to a rank >= nprocs
        traced = {}
    for targets in (None, traced):
        assert analysis_record(analyze(program, targets)) == analysis_record(
            ref.analyze(program, targets)
        )


def test_deadlock_evidence_matches_reference():
    p = Program(name="ring")
    p.add_function(Function("main", [
        CommCall(CommOp.SEND, peer=lambda c: (c.rank + 1) % c.nprocs, nbytes=1 << 20),
        CommCall(CommOp.RECV, peer=lambda c: (c.rank - 1) % c.nprocs, nbytes=1 << 20),
    ]))
    got = outcome(run_program, p, nprocs=3)
    assert got[0] == "DeadlockError" and len(got[2]) == 3
    assert_same_run(p, nprocs=3)


# ---------------------------------------------------------------------------
# every bundled app
# ---------------------------------------------------------------------------
def build_per_node(app, monkeypatch):
    """``app`` built with the per-node ``pad_to_target`` of the reference."""
    with monkeypatch.context() as m:
        for module in (npb, zeusmp, lammps, vite):
            m.setattr(module, "pad_to_target", ref.pad_to_target)
        return registry("S")[app]()


@pytest.mark.parametrize("nprocs", [1, 8, 64])
@pytest.mark.parametrize("app", sorted(registry("S")))
def test_bundled_app_runs_equal_reference(app, nprocs, monkeypatch):
    """The lowered run and the block-wise padding against the per-node
    interpreter, expander and padding: same run, same top-down view."""
    program, per_node = registry("S")[app](), build_per_node(app, monkeypatch)
    assert program.node_count() == per_node.node_count()
    nthreads = 3 if app == "vite" else 1
    got = run_program(program, nprocs=nprocs, nthreads=nthreads)
    want = ref.run_program(per_node, nprocs=nprocs, nthreads=nthreads)
    assert run_record(got) == run_record(want)
    for targets in (None, got.indirect_targets):
        res, want_res = analyze(program, targets), ref.analyze(per_node, targets)
        assert analysis_record(res) == analysis_record(want_res)
        assert res.pag.fingerprint() == want_res.pag.fingerprint()


@pytest.mark.parametrize("extra", [0, 1, 2, 5, 11, 30, 37])
def test_padding_equals_per_node_padding(extra):
    """No fillers, no loose statements, both, neither: block-wise padding
    against the per-node one, on top of a core with a second source file."""
    from repro.apps._common import pad_to_target

    def core():
        p = Program(name="core")
        p.add_function(Function("f", [Stmt("s", cost=1.0, line=1000)], source_file="f.c", line=990))
        p.add_function(Function("main", [Call("f", line=900), Stmt("t", cost=1.0)], source_file="m.c"))
        return p

    unpadded = analyze(core()).pag.num_vertices
    target = unpadded + extra
    program, per_node = pad_to_target(core(), target), ref.pad_to_target(core(), target)
    assert program.node_count() == per_node.node_count()
    res, want = analyze(program), ref.analyze(per_node)
    assert res.pag.num_vertices == (target if extra > 1 else unpadded)  # a branch alone overshoots
    assert analysis_record(res) == analysis_record(want)
    assert res.pag.fingerprint() == want.pag.fingerprint()
    assert run_record(run_program(program, nprocs=2)) == run_record(ref.run_program(per_node, nprocs=2))


@pytest.mark.parametrize("app", sorted(registry("S")))
def test_bundled_app_parallel_view_equals_reference(app):
    program = registry("S")[app]()
    threads = app == "vite"
    run = run_program(program, nprocs=8, nthreads=3 if threads else 1)
    td, sr = build_top_down_view(program, run)
    for max_ranks in (None, 4):
        got = build_parallel_view(td, sr, run, max_ranks=max_ranks, expand_threads=threads)
        want = ref.build_parallel_view(td, sr, run, max_ranks=max_ranks, expand_threads=threads)
        assert pv_record(got) == pv_record(want)


# ---------------------------------------------------------------------------
# column padding
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("make", [FloatColumn, IntColumn, lambda: StrColumn(StringTable())])
def test_padded_rows_read_as_absent(make):
    col, old = make(), make()
    value = "v" if isinstance(col, StrColumn) else 7
    col.set(2, value)
    col._pad_to(6)
    ref.pad_to(old, 3)
    old.set(2, value)
    ref.pad_to(old, 6)
    assert [col.get(i) for i in range(6)] == [None, None, value, None, None, None]
    assert [col.has(i) for i in range(6)] == [False, False, True, False, False, False]
    assert col.rows().tolist() == [2]
    if isinstance(col, StrColumn):
        assert bytes(col.sids) == bytes(old.sids)
    else:
        assert (bytes(col.data), bytes(col.valid)) == (bytes(old.data), bytes(old.valid))
        assert col.arrays(6)[1].tolist() == [False, False, True, False, False, False]


def test_lazy_column_promotes_before_it_grows():
    data = np.frombuffer(np.array([1.5, 2.5]).tobytes(), dtype=np.float64)
    valid = np.frombuffer(b"\x01\x01", dtype=np.uint8)
    col = FloatColumn.from_views(data, valid, SegmentBacking(b"", "test"))
    assert col.is_lazy
    col._pad_to(5)
    assert not col.is_lazy
    assert [col.get(i) for i in range(5)] == [1.5, 2.5, None, None, None]
    assert data.tolist() == [1.5, 2.5]  # the backing buffer is untouched

    sids = np.frombuffer(np.array([0], dtype=np.int64).tobytes(), dtype=np.int64)
    strings = StringTable()
    strings.intern("s")
    scol = StrColumn.from_views(strings, sids, SegmentBacking(b"", "test"))
    scol._pad_to(3)
    assert not scol.is_lazy
    assert [scol.get(i) for i in range(3)] == ["s", None, None]


# ---------------------------------------------------------------------------
# laziness: code a run never enters is never lowered
# ---------------------------------------------------------------------------
class Untouchable(Stmt):
    """A statement whose cost must never be read."""

    __slots__ = ()

    @property
    def cost(self):
        raise AssertionError("lowered code the run never enters")

    @cost.setter
    def cost(self, _value):
        pass


def test_untaken_arms_and_uncalled_functions_are_never_lowered():
    p = Program(name="lazy")
    p.add_function(Function("never_called", [Untouchable("x", cost=0.0)]))
    p.add_function(Function("main", [
        Branch(lambda c: c.rank > 0, [Untouchable("x", cost=0.0)], [Stmt("s", cost=1.0)]),
        Branch(lambda c: False, [Call("never_called")]),
        Call(lambda c: "never_called" if c.rank > 0 else "missing", target=CallTarget.INDIRECT),
    ]))
    run = run_program(p, nprocs=1)
    assert run.elapsed == 1.0
    assert run_record(run) == run_record(ref.run_program(p, nprocs=1))


def test_a_run_leaves_no_cyclic_garbage():
    """The lowered closures reference the lowering, never the reverse, so
    a finished run's IR and RunResult go with refcounting, not a GC pass."""
    import gc

    program = registry("S")["zeusmp"]()
    gc.collect()
    gc.disable()
    try:
        run_program(program, nprocs=8)
        assert gc.collect() == 0
    finally:
        gc.enable()
