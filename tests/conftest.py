"""Shared fixtures: small program models exercising every IR feature."""

from __future__ import annotations

import ast
import io
import textwrap
import tokenize

import pytest

from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
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


def make_ring_program(iterations: int = 3, imbalanced_rank: int = -1) -> Program:
    """MPI ring: compute + isend/irecv/waitall + allreduce per iteration.

    ``imbalanced_rank`` (if >= 0) does 3x the work, creating wait states
    downstream.
    """
    p = Program(name="ring", code_kloc=0.5)
    p.add_function(
        Function(
            "work",
            [
                Stmt(
                    "compute",
                    cost=lambda ctx: 0.01 * (3.0 if ctx.rank == imbalanced_rank else 1.0),
                    line=11,
                )
            ],
            source_file="ring.c",
            line=10,
        )
    )
    p.add_function(
        Function(
            "main",
            [
                Loop(
                    trips=iterations,
                    name="loop_1",
                    line=20,
                    body=[
                        Call("work", line=21),
                        CommCall(
                            CommOp.ISEND,
                            peer=lambda c: (c.rank + 1) % c.nprocs,
                            nbytes=1024,
                            req="s",
                            line=22,
                        ),
                        CommCall(
                            CommOp.IRECV,
                            peer=lambda c: (c.rank - 1) % c.nprocs,
                            nbytes=1024,
                            req="r",
                            line=23,
                        ),
                        CommCall(CommOp.WAITALL, name="MPI_Waitall", line=24),
                        CommCall(CommOp.ALLREDUCE, nbytes=8, name="MPI_Allreduce", line=25),
                    ],
                ),
            ],
            source_file="ring.c",
            line=19,
        )
    )
    return p


def make_threaded_program(nthreads_default: int = 4, allocs: int = 5) -> Program:
    """Single-function threaded program with allocator-lock traffic."""
    p = Program(name="threads", code_kloc=0.2)
    p.add_function(
        Function(
            "main",
            [
                Stmt("setup", cost=0.001, line=10),
                ThreadCall(
                    ThreadOp.CREATE,
                    count=lambda ctx: int(ctx.params.get("nthreads", nthreads_default)),
                    body=[
                        Loop(
                            trips=allocs,
                            name="loop_1",
                            line=21,
                            body=[
                                Stmt("compute", cost=lambda ctx: 0.002 * (1 + ctx.thread), line=22),
                                ThreadCall(ThreadOp.ALLOC, hold=0.001, name="allocate", line=23),
                            ],
                        )
                    ],
                    name="pthread_create",
                    line=20,
                ),
                ThreadCall(ThreadOp.JOIN, name="pthread_join", line=30),
            ],
            source_file="threads.c",
            line=9,
        )
    )
    return p


def make_structured_program() -> Program:
    """Covers branches, nested loops, external and indirect calls."""
    p = Program(name="structured", code_kloc=0.3)
    p.add_function(
        Function("leaf_a", [Stmt("a_work", cost=0.001, line=41)], source_file="s.c", line=40)
    )
    p.add_function(
        Function("leaf_b", [Stmt("b_work", cost=0.002, line=46)], source_file="s.c", line=45)
    )
    p.add_function(
        Function(
            "recurse",
            [
                Stmt("r_work", cost=0.0005, line=51),
                Branch(
                    lambda ctx: ctx.iteration < 1,
                    then_body=[Call("recurse", line=53)],
                    name="rec_guard",
                    line=52,
                ),
            ],
            source_file="s.c",
            line=50,
        )
    )
    p.add_function(
        Function(
            "main",
            [
                Loop(
                    trips=2,
                    line=11,
                    body=[
                        Loop(
                            trips=2,
                            line=12,
                            body=[Stmt("inner", cost=0.0001, line=13)],
                        ),
                        Branch(
                            lambda ctx: ctx.rank % 2 == 0,
                            then_body=[Call("leaf_a", line=15)],
                            else_body=[Call("leaf_b", line=16)],
                            name="pick",
                            line=14,
                        ),
                    ],
                ),
                Call("ext_lib", target=CallTarget.EXTERNAL, cost=0.003, line=20),
                Call(
                    lambda ctx: "leaf_a" if ctx.rank == 0 else "leaf_b",
                    target=CallTarget.INDIRECT,
                    name="fptr_call",
                    line=21,
                ),
                Call("recurse", line=22),
            ],
            source_file="s.c",
            line=10,
        )
    )
    return p


def code_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, comments, imports or
    docstrings: the measure of the paper's "lines of code" claims."""
    source = textwrap.dedent(source)
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            skip.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (
            tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
        ):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


@pytest.fixture(autouse=True)
def _isolate_obs_state(tmp_path, monkeypatch):
    """Reset process-global observability and cache state around every test.

    The metrics registry, the installed span recorder (with the flight
    recorder's log handler), and the default pass-result cache are
    process globals; without this fixture a test that enables tracing,
    bumps counters, or populates the cache bleeds into whichever test
    runs next.  Each test starts from a clean registry, the disabled
    null recorder, no log handler, and an empty default cache, and
    anything it installs or accumulates is torn down afterwards.  The
    cache reset also makes the suite rerunnable under
    ``PERFLOW_CACHE=1`` without cross-test hits.

    The run ledger and crash-report dirs are pointed into ``tmp_path``:
    both are on by default in the CLI, and a test invoking ``main()``
    must not write ``.perflow/`` into the checkout (or read another
    test's runs).

    ``PERFLOW_LEDGER`` itself is snapshotted and *removed* for the
    test's duration: a value leaking from the invoking shell (or a test
    mutating ``os.environ`` directly, which ``monkeypatch`` cannot see)
    would flip ledger persistence for every later test.  The raw
    pop/restore — rather than ``monkeypatch.delenv`` — also scrubs any
    raw mutation the test itself made.
    """
    import os as _os

    from repro.cache import reset_default_cache
    from repro.obs import flight as _obs_flight

    saved_ledger = _os.environ.pop("PERFLOW_LEDGER", None)
    monkeypatch.setenv("PERFLOW_LEDGER_DIR", str(tmp_path / "obs-ledger"))
    monkeypatch.setenv("PERFLOW_CRASH_DIR", str(tmp_path / "obs-crash"))
    _obs_trace.set_recorder(None)
    _obs_flight.disable()
    _obs_metrics.registry.reset()
    reset_default_cache()
    yield
    _obs_trace.set_recorder(None)
    _obs_flight.disable()
    _obs_metrics.registry.reset()
    reset_default_cache()
    _os.environ.pop("PERFLOW_LEDGER", None)
    if saved_ledger is not None:
        _os.environ["PERFLOW_LEDGER"] = saved_ledger


@pytest.fixture
def ring_program() -> Program:
    return make_ring_program()


@pytest.fixture
def imbalanced_ring() -> Program:
    return make_ring_program(imbalanced_rank=2)


@pytest.fixture
def threaded_program() -> Program:
    return make_threaded_program()


@pytest.fixture
def structured_program() -> Program:
    return make_structured_program()
