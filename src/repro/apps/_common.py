"""Shared building blocks for the modelled applications.

Every evaluated program is a :class:`~repro.ir.model.Program` whose
*core* captures the paper-relevant behaviour (communication pattern,
injected performance bug) and whose *structure padding* brings the
top-down view's vertex count to the paper's Table 2 value — padding
lives behind an always-false branch, so static analysis sees it (it is
part of "the binary") while the simulator never executes it.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from repro.ir.context import ExecContext
from repro.ir.model import Branch, CommCall, CommOp, Node, Padding, Program
from repro.ir.static_analysis import analyze


# ---------------------------------------------------------------------------
# decomposition helpers
# ---------------------------------------------------------------------------
def dims_2d(nprocs: int) -> Tuple[int, int]:
    """Near-square 2D process grid (px * py == nprocs)."""
    px = int(math.sqrt(nprocs))
    while nprocs % px:
        px -= 1
    return px, nprocs // px


def dims_3d(nprocs: int) -> Tuple[int, int, int]:
    """Near-cubic 3D process grid."""
    px = max(1, round(nprocs ** (1.0 / 3.0)))
    while nprocs % px:
        px -= 1
    py, pz = dims_2d(nprocs // px)
    return px, py, pz


def neighbors_3d(rank: int, nprocs: int) -> List[int]:
    """The six face neighbors of ``rank`` on a periodic 3D grid.

    Ordered as ±x, ±y, ±z pairs so that any *even-length prefix* is a
    symmetric neighbor relation — truncated halo exchanges (e.g. CG's
    2-neighbor transpose) stay deadlock-free.
    """
    px, py, pz = dims_3d(nprocs)
    x = rank % px
    y = (rank // px) % py
    z = rank // (px * py)

    def enc(i: int, j: int, k: int) -> int:
        return (i % px) + (j % py) * px + (k % pz) * px * py

    out = []
    for axis in range(3):
        for d in (-1, 1):
            out.append(
                enc(x + d, y, z) if axis == 0
                else enc(x, y + d, z) if axis == 1
                else enc(x, y, z + d)
            )
    return out


def halo_exchange(
    nbytes,
    tag_base: int = 0,
    neighbor_count: int = 6,
    neighbor_fn: Callable[[ExecContext, int], int] = None,
    waitall_name: str = "MPI_Waitall",
    line: int = 0,
) -> List[Node]:
    """Isend/Irecv to each neighbor plus a closing Waitall.

    ``neighbor_fn(ctx, i)`` maps neighbor index to a rank; default is the
    periodic 3D face neighborhood truncated/extended to
    ``neighbor_count``.
    """

    def default_fn(ctx: ExecContext, i: int) -> int:
        nbrs = neighbors_3d(ctx.rank, ctx.nprocs)
        return nbrs[i % len(nbrs)]

    fn = neighbor_fn or default_fn
    nodes: List[Node] = []
    # All exchanges share tag_base: the pairing is symmetric (each side
    # posts one send and one recv per shared neighbor slot) and FIFO
    # matching pairs them deterministically, so no per-direction tags are
    # needed and the pattern is deadlock-free by construction.
    for i in range(neighbor_count):
        peer = (lambda idx: (lambda ctx: fn(ctx, idx) % ctx.nprocs))(i)
        nodes.append(
            CommCall(CommOp.ISEND, peer=peer, nbytes=nbytes, tag=tag_base, line=line)
        )
        nodes.append(
            CommCall(CommOp.IRECV, peer=peer, nbytes=nbytes, tag=tag_base, line=line + 1)
        )
    nodes.append(CommCall(CommOp.WAITALL, name=waitall_name, line=line + 2))
    return nodes


def hypercube_exchange(rounds: int, nbytes, tag_base: int = 100, line: int = 0) -> List[Node]:
    """Recursive-doubling exchange: round i pairs rank with rank XOR 2^i.

    This is how CG implements its reductions "with three point-to-point
    communications" — the pattern that makes its dynamic overhead the
    highest in Table 1.  XOR pairing is symmetric, so each round is
    deadlock-free; ranks whose partner falls outside the communicator
    (non-power-of-two sizes) sit the round out, as real recursive
    doubling does.
    """
    nodes: List[Node] = []
    for i in range(rounds):
        bit = 1 << i
        peer = (lambda b: (lambda ctx: ctx.rank ^ b))(bit)
        exchange = CommCall(
            CommOp.SENDRECV, peer=peer, nbytes=nbytes, tag=tag_base + i, line=line + i
        )
        cond = (lambda b: (lambda ctx: (ctx.rank ^ b) < ctx.nprocs))(bit)
        nodes.append(
            Branch(cond, then_body=[exchange], name=f"hcube_round_{i}", line=line + i)
        )
    return nodes


# ---------------------------------------------------------------------------
# structure padding
# ---------------------------------------------------------------------------
def pad_to_target(program: Program, target_vertices: int, source_file: str = "") -> Program:
    """Grow the top-down view to ``target_vertices`` (Table 2 calibration)
    with a :class:`~repro.ir.model.Padding` in ``main``.  Idempotent when
    the target is already met."""
    if any(isinstance(node, Padding) for node in program.entry_function.body):
        return program  # already padded
    deficit = target_vertices - analyze(program).pag.num_vertices
    if deficit <= 1:
        return program
    fillers, loose = divmod(deficit - 1, Padding.WIDTH)  # the branch is one vertex
    program.pad(Padding(fillers, loose, source_file or program.entry_function.source_file))
    return program


def jitter(rank: int, salt: int = 0, amplitude: float = 0.02) -> float:
    """Deterministic per-rank multiplicative noise in [1-a, 1+a].

    A cheap hash keeps run-to-run determinism while breaking exact
    symmetry between ranks (real machines are never perfectly uniform).
    """
    h = (rank * 2654435761 + salt * 40503) & 0xFFFFFFFF
    return 1.0 + amplitude * ((h / 0xFFFFFFFF) * 2.0 - 1.0)
