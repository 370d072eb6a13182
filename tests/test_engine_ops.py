"""Engine/interpreter coverage for the remaining MPI operations."""

import pytest

from repro.ir.model import (
    Branch,
    CommCall,
    CommOp,
    Function,
    Program,
    Stmt,
)
from repro.runtime.executor import run_program


def one_op_program(op, **kwargs):
    p = Program(name=f"op-{op.value}")
    p.add_function(
        Function(
            "main",
            [
                Stmt("w", cost=lambda ctx: 0.001 * (1 + ctx.rank)),
                CommCall(op, nbytes=kwargs.pop("nbytes", 64), **kwargs),
            ],
        )
    )
    return p


@pytest.mark.parametrize(
    "op",
    [CommOp.BARRIER, CommOp.BCAST, CommOp.REDUCE, CommOp.ALLREDUCE, CommOp.ALLGATHER, CommOp.ALLTOALL],
)
def test_each_collective_runs_and_synchronizes(op):
    run = run_program(one_op_program(op), nprocs=5)
    [ev] = run.comm_events
    assert ev.op is op
    assert len(ev.participants) == 5
    # the slowest rank (rank 4's compute is largest) arrives last
    assert ev.src_rank == 4
    # everyone finishes at the same collective completion time
    finish = set(round(t, 12) for t in run.per_rank_elapsed.values())
    assert len(finish) == 1


def test_collective_wait_attribution_sums():
    run = run_program(one_op_program(CommOp.ALLREDUCE), nprocs=4)
    [ev] = run.comm_events
    waits = {r: w for (r, _p, _a, w) in ev.participants}
    assert waits[3] == 0.0
    assert waits[0] > waits[1] > waits[2] > 0


def test_blocking_send_recv_pair_via_interpreter():
    p = Program(name="pair")
    p.add_function(
        Function(
            "main",
            [
                Branch(
                    lambda ctx: ctx.rank == 0,
                    then_body=[
                        Stmt("slow", cost=0.01),
                        CommCall(CommOp.SEND, peer=1, nbytes=2e6, name="MPI_Send"),
                    ],
                    else_body=[CommCall(CommOp.RECV, peer=0, nbytes=2e6, name="MPI_Recv")],
                )
            ],
        )
    )
    run = run_program(p, nprocs=2)
    [ev] = run.comm_events
    assert ev.op is CommOp.RECV
    assert (ev.src_rank, ev.dst_rank) == (0, 1)
    # the receiver waited for the slow sender
    assert ev.wait_time == pytest.approx(0.01, rel=0.05)


def test_wait_on_named_request():
    p = Program(name="named")
    p.add_function(
        Function(
            "main",
            [
                CommCall(CommOp.ISEND, peer=lambda c: (c.rank + 1) % c.nprocs, nbytes=64, req="a"),
                CommCall(CommOp.IRECV, peer=lambda c: (c.rank - 1) % c.nprocs, nbytes=64, req="b"),
                CommCall(CommOp.WAIT, requests=("b",), name="MPI_Wait"),
                CommCall(CommOp.WAITALL, name="MPI_Waitall"),  # completes "a"
            ],
        )
    )
    run = run_program(p, nprocs=3)
    assert len(run.comm_events) == 3
    # every event surfaced at the named Wait (its dst path ends at MPI_Wait)
    assert run.elapsed > 0


def test_interpreter_rejects_unhandled_wait_reuse():
    """Waiting again on a completed request is a Wait on MPI_REQUEST_NULL."""
    p = Program(name="reuse")
    p.add_function(
        Function(
            "main",
            [
                CommCall(CommOp.ISEND, peer=0, nbytes=8, req="x"),
                CommCall(CommOp.IRECV, peer=0, nbytes=8, req="y"),
                CommCall(CommOp.WAIT, requests=("x", "y")),
                CommCall(CommOp.WAIT, requests=("x",), name="MPI_Wait2"),
            ],
        )
    )
    # after the first wait, "x" is consumed; the second wait takes no label,
    # and the interpreter completes it at once without asking the engine
    # (which would read an empty label set as "every outstanding request")
    run = run_program(p, nprocs=1)
    assert run.elapsed > 0


def test_named_wait_with_nothing_outstanding_takes_no_other_request():
    """irecv r, isend s, wait s, wait s, wait r on 2 ranks: the second
    Wait(s) completes at once instead of taking r, so the Wait(r) after it
    still finds r outstanding."""
    p = Program(name="wait-null")
    nodes = [
        CommCall(CommOp.IRECV, peer=lambda c: 1 - c.rank, nbytes=64, req="r"),
        CommCall(CommOp.ISEND, peer=lambda c: 1 - c.rank, nbytes=64, req="s"),
        CommCall(CommOp.WAIT, requests=("s",), name="wait_s"),
        CommCall(CommOp.WAIT, requests=("s",), name="wait_s_again"),
        CommCall(CommOp.WAIT, requests=("r",), name="wait_r"),
    ]
    p.add_function(Function("main", nodes))
    run = run_program(p, nprocs=2)
    again, wait_r = ("f:main", nodes[3].uid), ("f:main", nodes[4].uid)
    for rank in (0, 1):
        stat = run.vertex_stats[again][(rank, 0)]
        assert (stat.time, stat.wait, stat.count) == (0.0, 0.0, 1)
    # each receive surfaces at the Wait that names it
    assert [ev.dst_path for ev in run.comm_events] == [wait_r, wait_r]


def test_edgeset_select_comm_kind():
    from repro.pag.edge import CommKind, EdgeLabel
    from repro.pag.graph import PAG
    from repro.pag.vertex import VertexLabel

    g = PAG()
    g.add_vertex(VertexLabel.INSTRUCTION, "a")
    g.add_vertex(VertexLabel.INSTRUCTION, "b")
    g.add_edge(0, 1, EdgeLabel.INTER_PROCESS, CommKind.COLLECTIVE)
    g.add_edge(0, 1, EdgeLabel.INTER_PROCESS, CommKind.P2P_ASYNC)
    assert len(g.es_all.select(comm_kind=CommKind.COLLECTIVE)) == 1


def test_vertex_metrics_iterator():
    from repro.pag.graph import PAG
    from repro.pag.vertex import VertexLabel

    v = PAG().add_vertex(
        VertexLabel.INSTRUCTION, "x", properties={"time": 1.0, "tag": "str", "count": 3}
    )
    assert set(v.metrics) == {"time", "count"}


def test_vertex_call_kind_validation():
    from repro.ir.model import CallTarget  # noqa: F401 - import sanity
    from repro.pag.graph import PAG
    from repro.pag.vertex import CallKind, VertexLabel

    with pytest.raises(ValueError):
        PAG().add_vertex(VertexLabel.LOOP, "l", call_kind=CallKind.COMM)
