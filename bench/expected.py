"""Hand-written oracle: what a correct run must print, from the paper.

Nothing here is derived from the code under test.  The numbers are the
paper's Table 2 and case studies A-C (§5.3-5.5) as EXPERIMENTS.md
records them; the serve and dataflow workloads have no closed-form
answer, so their oracle is "every mode / every response equals the rows
one plain in-process run computed in set-up" (see the workloads).
Each ``check_*`` returns a reason string, empty when the output is right.
"""

from __future__ import annotations

import re
from typing import Any, List, Sequence

#: Table 2, top-down view |V| per application.
TABLE2_VERTICES = {"zeusmp": 11981, "lammps": 85230, "vite": 7118}


def check_zeusmp_scalability(stdout: str) -> str:
    """Case study A: the allreduce in ``nudt`` is where scaling is lost."""
    hot = _section(stdout, "scaling-loss hotspots:", "backtracking:")
    if not any(line.split()[:1] == ["mpi_allreduce_"] for line in hot):
        return "mpi_allreduce_ missing from the scaling-loss hotspots"
    if "backtracking: 2320 vertices, 2219 edges" not in stdout:
        return "backtracking forest is not 2320 vertices / 2219 edges"
    roots = _section(stdout, "root-cause candidates:", None)
    if not any("mpi_allreduce_" in line for line in roots):
        return "mpi_allreduce_ missing from the root-cause candidates"
    return ""


def check_zeusmp_critical_path(stdout: str) -> str:
    """A positive path weight through ZeusMP's two hydro kernels."""
    m = re.match(r"critical path weight: ([0-9.]+)s\n", stdout)
    if not m or float(m.group(1)) <= 0.0:
        return "no positive critical-path weight on the first line"
    hops = {line.split()[0] for line in stdout.splitlines()[1:] if line.strip()}
    if not {"hydro_src", "advect"} <= hops:
        return "hydro_src/advect missing from the critical path"
    return ""


def check_vite_contention(stdout: str) -> str:
    """Case study C: allocator vertices serialize on the allocator lock."""
    hubs = [line for line in stdout.splitlines() if "serialization hub:" in line]
    for symbol in ("_M_realloc_insert", "_M_emplace", "allocate"):
        if not any(re.search(rf"hub: {re.escape(symbol)}@", line) for line in hubs):
            return f"{symbol} is not a serialization hub"
    return ""


def check_lammps_profile(stdout: str) -> str:
    """Case study B: point-to-point exchange in ``comm_brick.cpp`` on top."""
    rows = [line.split() for line in stdout.splitlines()[1:11]]
    for call in ("MPI_Send", "MPI_Wait"):
        if not any(
            row[:1] == [call] and row[1].startswith("comm_brick.cpp:") for row in rows
        ):
            return f"{call} at comm_brick.cpp missing from the top rows"
    return ""


def check_rows_equal(got: Any, want: Any, what: str) -> str:
    return "" if got == want else f"{what}: result differs from the in-process rows"


def check_same_ids(got: Sequence[int], want: Sequence[int], what: str) -> str:
    return "" if list(got) == list(want) else f"{what}: differs from the serial result"


def _section(stdout: str, start: str, end) -> List[str]:
    lines = stdout.splitlines()
    try:
        i = lines.index(start) + 1
    except ValueError:
        return []
    out = []
    for line in lines[i:]:
        if end is not None and line.startswith(end):
            break
        out.append(line)
    return out
