"""Out-of-core format-3 storage: the numbers behind the mmap design.

The binary PAG format exists so analysis over a graph far larger than
working memory stays cheap: the loader reads only the 96-byte header
plus the segment directory, and columns page in lazily as passes touch
them.  Three properties are asserted here, on synthetic PAGs built by
direct column assignment (so a multi-million-vertex graph materializes
in seconds, not minutes):

* **O(header) open** — ``load_pag(mmap=True)`` time is flat across two
  orders of magnitude of vertex count (20k -> 2M vertices).
* **Bounded working set** — a hotspot pass over a ~2M-vertex,
  many-column PAG touches one metric column; RSS growth stays under
  25% of the file's total column bytes.  Measured in a fresh
  subprocess via ``/proc/self/status`` VmHWM (which, unlike
  ``getrusage``'s ``ru_maxrss``, resets on exec and so cannot inherit
  the parent's peak), falling back to ``resource.getrusage`` off
  Linux.  The large file is also *written* by a subprocess so no
  process in the chain ever holds the full graph while measuring.
* **Zero-read cache probes** — ``pag_file_fingerprint`` answers from
  the header in well under the time of any column read, and matches
  the fingerprint of the loaded graph.

Each test prints one JSON line (run with ``-s``) for the CI perf-smoke
job to archive.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from array import array

import numpy as np
import pytest

from repro.pag.columns import FloatColumn
from repro.pag.edge import ELABEL_CODE, EdgeLabel
from repro.pag.formats import pag_file_fingerprint, read_header, save_pag
from repro.pag.graph import PAG
from repro.pag.formats import load_pag
from repro.pag.vertex import NO_KIND, VLABEL_CODE, VertexLabel

NV_SMALL = 20_000
NV_LARGE = 2_000_000  #: "multi-million" scale; 100x the small graph
N_VCOLS = 20
N_ECOLS = 20

#: Open budget: the large open may cost at most 10x the small one (it
#: should be ~1x; the directory grows only with column *count*), with an
#: absolute floor so a fast machine's sub-ms small open cannot flake it.
OPEN_RATIO_BUDGET = 10.0
OPEN_FLOOR_SECONDS = 0.1
RSS_FRACTION_BUDGET = 0.25
PROBE_BUDGET_SECONDS = 0.05


def _emit(name: str, **numbers) -> None:
    print(json.dumps({"benchmark": name, **numbers}), file=sys.stderr)


def _fill(pag: PAG, attr: str, typecode: str, values: np.ndarray) -> None:
    buf = array(typecode)
    buf.frombytes(np.ascontiguousarray(values).tobytes())
    setattr(pag, attr, buf)


def _dense_float_column(values: np.ndarray) -> FloatColumn:
    col = FloatColumn()
    col.data.frombytes(values.astype(np.float64).tobytes())
    col.valid = bytearray(b"\x01" * len(values))
    return col


def _synthetic_pag(nv: int, ne: int, vcols: int = N_VCOLS, ecols: int = N_ECOLS) -> PAG:
    """A nv-vertex / ne-edge PAG with many dense float columns.

    Built by direct column assignment — the public ``add_vertex`` path
    would dominate the benchmark's own runtime at this scale.
    """
    pag = PAG(f"synthetic-{nv}", {"nprocs": 64, "view": "top-down"})
    sids = np.array(
        [pag.strings.intern(f"fn_{i:03d}") for i in range(128)], dtype=np.int64
    )
    _fill(pag, "_v_label", "b", np.full(nv, VLABEL_CODE[VertexLabel.FUNCTION], np.int8))
    _fill(pag, "_v_kind", "b", np.full(nv, NO_KIND, np.int8))
    _fill(pag, "_v_name", "q", sids[np.arange(nv) % len(sids)])
    eidx = np.arange(ne, dtype=np.int64)
    _fill(pag, "_e_src", "q", eidx % nv)
    _fill(pag, "_e_dst", "q", (eidx * 7 + 1) % nv)
    _fill(
        pag,
        "_e_label",
        "b",
        np.full(ne, ELABEL_CODE[EdgeLabel.INTRA_PROCEDURAL], np.int8),
    )
    _fill(pag, "_e_kind", "b", np.full(ne, NO_KIND, np.int8))
    pag._vprops.add_rows(nv)
    pag._eprops.add_rows(ne)
    vvals = (np.arange(nv, dtype=np.float64) % 4096) / 8.0
    pag._vprops.columns["time"] = _dense_float_column(vvals)
    for i in range(vcols - 1):
        pag._vprops.columns[f"pmu_{i:02d}"] = _dense_float_column(vvals + i)
    evals = (np.arange(ne, dtype=np.float64) % 4096) / 8.0
    for i in range(ecols):
        pag._eprops.columns[f"edge_metric_{i:02d}"] = _dense_float_column(evals + i)
    return pag


def _column_bytes(path) -> int:
    """Total bytes of property-column segments ("v.*" / "e.*") on disk."""
    segments = read_header(path)["directory"]["segments"]
    return sum(
        nbytes
        for name, (_off, nbytes) in segments.items()
        if name.startswith(("v.", "e."))
    )


_BUILD = """
import sys
sys.path.insert(0, ".")
from benchmarks.test_format3_outofcore import _synthetic_pag
from repro.pag.formats import save_pag
nv = int(sys.argv[2])
save_pag(_synthetic_pag(nv, nv), sys.argv[1], format=3)
"""


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("outofcore") / "large.pag3"
    subprocess.run(
        [sys.executable, "-c", _BUILD, str(path), str(NV_LARGE)], check=True
    )
    return path


def test_open_time_is_order_header(tmp_path, large_file):
    small = tmp_path / "small.pag3"
    save_pag(_synthetic_pag(NV_SMALL, NV_SMALL), small, format=3)

    def best_open(path) -> float:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            pag = load_pag(path, mmap=True)
            best = min(best, time.perf_counter() - t0)
            del pag
        return best

    t_small, t_large = best_open(small), best_open(large_file)
    budget = max(OPEN_RATIO_BUDGET * t_small, OPEN_FLOOR_SECONDS)
    _emit(
        "format3_open_time",
        vertices_small=NV_SMALL,
        vertices_large=NV_LARGE,
        open_small_s=round(t_small, 6),
        open_large_s=round(t_large, 6),
        budget_s=round(budget, 6),
    )
    assert t_large <= budget


_RSS_PROBE = """
import json, sys
from repro.pag.formats import load_pag
from repro.passes import hotspot_detection

def hwm_kib():
    # VmHWM resets on exec, so it measures THIS process only;
    # ru_maxrss is inherited across exec on Linux and would silently
    # report the parent's peak instead.
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

pag = load_pag(sys.argv[1], mmap=True)
base_kib = hwm_kib()
hot = hotspot_detection(pag.vs, metric="time", n=10)
peak_kib = hwm_kib()
print(json.dumps({
    "top_time": hot[0]["time"],
    "base_bytes": base_kib * 1024,
    "grown_bytes": (peak_kib - base_kib) * 1024,
}))
"""


def test_hotspot_rss_bounded_on_mmap_pag(large_file):
    col_bytes = _column_bytes(large_file)
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(large_file)],
        capture_output=True,
        text=True,
        check=True,
    )
    probe = json.loads(out.stdout)
    budget = RSS_FRACTION_BUDGET * col_bytes
    _emit(
        "format3_hotspot_rss",
        vertices=NV_LARGE,
        file_column_bytes=col_bytes,
        rss_base_bytes=probe["base_bytes"],
        rss_grown_bytes=probe["grown_bytes"],
        budget_bytes=int(budget),
    )
    assert probe["top_time"] == 4095 / 8.0
    # the pass pages in the metric column and allocates sort temporaries,
    # both O(|V|) -- a zero delta would mean the probe measured nothing
    assert probe["grown_bytes"] > NV_LARGE * 8
    assert probe["grown_bytes"] < budget


def test_fingerprint_probe_reads_header_only(large_file):
    t0 = time.perf_counter()
    fp = pag_file_fingerprint(large_file)
    probe_s = time.perf_counter() - t0
    assert fp == load_pag(large_file, mmap=True).fingerprint()
    _emit(
        "format3_fingerprint_probe",
        vertices=NV_LARGE,
        probe_s=round(probe_s, 6),
        budget_s=PROBE_BUDGET_SECONDS,
    )
    assert probe_s < PROBE_BUDGET_SECONDS
