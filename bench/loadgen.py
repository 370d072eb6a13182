"""Seeded workload generator: everything random is drawn here, up front.

The program under test receives only the generated requests; two runs
with one seed are the same traffic, and :func:`digest` of the schedule
is recorded in the output to prove it.  What the seed may change is
restricted to things that cost the same (which parameter value sits at
which popularity rank, the order of draws, which request gets which
never-repeated value) so that the *mix* of cheap and expensive requests
— and with it every latency percentile — does not move with the seed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

import numpy as np

# Why each workload exists (BENCHMARK.json carries the one-line version).

#: The four CLI workloads are fixed commands: the simulator takes no seed,
#: so the seed changes nothing here and the digest covers the argv.
CLI_ARGS: Dict[str, List[str]] = {
    # Paper case study A at 16 vs 1,024 ranks: the one workload where the
    # simulated runtime and PAG embedding dominate (~60% of wall).  1,024
    # not 2,048 so three ops fit in a 10 s run.
    "zeusmp_scalability": ["paradigm", "scalability", "zeusmp", "--np", "16", "--np-large", "1024"],
    # Critical path over a 191k-vertex parallel view: ``passes`` /
    # ``algorithms`` traversal is ~70-85% of wall and the simulator < 5%,
    # so a simulator change must not move it.
    "zeusmp_critical_path": ["paradigm", "critical-path", "zeusmp", "--np", "16"],
    # Paper case study C: the only workload with lock events and
    # thread-expanded views, and it uses ``algorithms`` differently
    # (backtracking subgraph matching) — a traversal speed-up that costs
    # matching shows here.
    "vite_contention": ["paradigm", "contention", "vite", "--np", "8", "--threads", "3"],
    # Case study B's binary (85,230 vertices): the short interactive run
    # where import time and static analysis matter and ``algorithms``
    # does nothing.
    "lammps_profile": ["paradigm", "mpi-profiler", "lammps", "--np", "128"],
}

#: ``dag_backends``: an 8-branch graph of built-in passes over the
#: ZeusMP-128 16-flow parallel view (191,696 vertices), run serial / 2 threads / 2 processes
#: / cache cold / cache warm.  The only workload where the scheduler,
#: the process pool and the cache's fingerprint/store do most of the
#: work; the paradigm graphs in the CLI workloads are too small to show
#: them.  Deterministic: the seed changes nothing here.
DAG_BRANCHES = 8
DAG_RANKS_PER_BRANCH = 2
DAG_MODES = ("serial", "thread2", "process2", "cache_cold", "cache_warm")

PIPELINES = ("hotspot", "mpi_profiler", "imbalance")
#: Four cost-equivalent parameter values per pipeline (36 warm keys).
WARM_PARAMS: Dict[str, List[Dict[str, Any]]] = {
    "hotspot": [{"top": t} for t in (8, 10, 12, 14)],
    "mpi_profiler": [{"top": t} for t in (16, 18, 20, 22)],
    "imbalance": [{"threshold": t, "top": 10} for t in (1.15, 1.2, 1.25, 1.3)],
}
#: PAG files on ``serve_warm`` and how many of every 25 requests go to
#: each.  Fixed, not seeded, and dealt from shuffled decks rather than
#: drawn: a hit costs ~4 ms on cg/32, ~12 ms on ZeusMP-128 and ~65 ms on
#: LAMMPS-128 (~340 ms for its ``imbalance`` keys, whose first pass is
#: never cached), so these shares put p50 in the middle of the ZeusMP
#: class whatever the seed.  Drawn independently, a 10 s run's ~35 LAMMPS
#: requests held anywhere from 2 to 9 ``imbalance`` ones per 16 and
#: throughput swung ±13% with the seed.
WARM_FILES = ("zeusmp", "cg", "lammps")
WARM_BLOCK = (15, 8, 2)
#: Requests per file after which its key ranks have been dealt exactly
#: in proportion to zipf(1.1) (largest remainder), then reshuffled.
WARM_DECK = (30, 24, 8)
ZIPF_S = 1.1


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_S
    return w / w.sum()


def _rank_deck(ranks: int, size: int) -> np.ndarray:
    """``size`` cards over ``ranks`` ranks, as close to zipf shares as integers get."""
    exact = _zipf_weights(ranks) * size
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact, kind="stable")[: size - counts.sum()]:
        counts[i] += 1
    return np.repeat(np.arange(ranks), counts)


def warm_keys(seed: int) -> List[Dict[str, Any]]:
    """The 36 warm keys, in popularity order within each file.

    Rank ``3 * slot + p`` of a file is pipeline ``p`` with the parameter
    value the seed put in ``slot`` — the seeded part of the ranking.
    """
    rng = np.random.default_rng([seed, 1])
    keys = []
    for file in WARM_FILES:
        perms = {p: rng.permutation(4) for p in PIPELINES}
        for slot in range(4):
            for pipeline in PIPELINES:
                params = WARM_PARAMS[pipeline][int(perms[pipeline][slot])]
                keys.append({"file": file, "pipeline": pipeline, "params": params})
    return keys


def warm_schedule(seed: int, per_client: int, clients: int) -> List[List[int]]:
    """``serve_warm``: per-client lists of indices into :func:`warm_keys`.

    Exists to exercise HTTP framing, mmap open, header fingerprint and
    cache *reads*: every key was requested once in set-up, so pass
    execution is bypassed (but for ``imbalance``'s first pass).  The key
    within a file follows zipf(1.1) over the seeded ranking, closed
    loop, so a few keys take most of the traffic as dashboards do; the
    seed decides the order, not the shares.
    """
    rng = np.random.default_rng([seed, 2])
    per_file = len(PIPELINES) * 4
    block = np.repeat(np.arange(len(WARM_FILES)), WARM_BLOCK)
    blocks = -(-per_client // len(block))
    schedules = []
    for _client in range(clients):
        files = np.concatenate([rng.permutation(block) for _ in range(blocks)])[:per_client]
        index = np.empty(per_client, dtype=np.int64)
        for f, size in enumerate(WARM_DECK):
            where = np.flatnonzero(files == f)
            decks = -(-len(where) // size)
            deck = _rank_deck(per_file, size)
            ranks = np.concatenate([rng.permutation(deck) for _ in range(decks)])
            index[where] = f * per_file + ranks[: len(where)]
        schedules.append(index.tolist())
    return schedules


#: ``serve_cold`` block: 3 inline uploads of the cg/32 document with one
#: vertex ``time`` perturbed (new fingerprint) and 2 ``pag_path``
#: requests on the ZeusMP-128 file with a never-repeated parameter.
COLD_BLOCK = ("inline", "inline", "inline", "path", "path")


def cold_schedule(seed: int, per_client: int, clients: int) -> List[List[Dict[str, Any]]]:
    """``serve_cold``: per-client request descriptors, every one a miss.

    Exists to exercise JSON→PAG, fingerprinting, execution and cache
    *writes* — the same ``cache``/``serve`` layers as ``serve_warm``
    used the other way.  Requests come in blocks of :data:`COLD_BLOCK`
    shuffled by the seed, pipelines rotating, so any prefix of the
    schedule has the same 60/40 mix: p50 falls among the uploads and p95
    among the ZeusMP imbalance runs.  An upload is unique through
    ``patch`` (the perturbed ``time``, fixed width so bodies keep their
    length); a ``pag_path`` request through a ``top`` / ``threshold``
    offset the seed deals out once per pipeline.
    """
    rng = np.random.default_rng([seed, 3])
    blocks = -(-per_client // len(COLD_BLOCK))
    n_path = blocks * clients * COLD_BLOCK.count("path")
    per_pipeline = -(-n_path // len(PIPELINES))
    offsets = {p: iter(rng.permutation(per_pipeline).tolist()) for p in PIPELINES}
    patches = iter(rng.permutation(blocks * clients * COLD_BLOCK.count("inline")).tolist())
    turn = {"inline": 0, "path": 0}
    schedules: List[List[Dict[str, Any]]] = []
    for _client in range(clients):
        reqs: List[Dict[str, Any]] = []
        for _block in range(blocks):
            for kind in rng.permutation(COLD_BLOCK).tolist():
                pipeline = PIPELINES[turn[kind] % len(PIPELINES)]
                turn[kind] += 1
                if kind == "inline":
                    reqs.append({
                        "kind": kind, "pipeline": pipeline,
                        "params": WARM_PARAMS[pipeline][1],
                        "patch": f"{0.01464 + (next(patches) + 1) * 1e-9:.12f}",
                    })
                    continue
                u = next(offsets[pipeline])
                if pipeline == "imbalance":
                    params = {"threshold": round(1.2 + (u + 1) * 1e-5, 6), "top": 10}
                else:
                    params = {"top": 10 + u}
                reqs.append({"kind": kind, "pipeline": pipeline, "params": params})
        schedules.append(reqs[:per_client])
    return schedules


def digest(schedule: Any) -> str:
    """Stable digest of a generated schedule (or of fixed argv)."""
    blob = json.dumps(schedule, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def dag_slices() -> Sequence[Sequence[int]]:
    return [
        tuple(range(k * DAG_RANKS_PER_BRANCH, (k + 1) * DAG_RANKS_PER_BRANCH))
        for k in range(DAG_BRANCHES)
    ]
