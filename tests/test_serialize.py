"""Tests for PAG serialization and the space-cost accounting."""

import numpy as np
import pytest

from repro.pag.formats import (
    load_pag,
    pag_from_dict,
    pag_to_dict,
    save_pag,
    storage_size,
)
from repro.pag.views import build_top_down_view
from repro.runtime.executor import run_program

from tests.conftest import make_ring_program


@pytest.fixture
def embedded_pag():
    prog = make_ring_program()
    run = run_program(prog, nprocs=4)
    td, _ = build_top_down_view(prog, run)
    return td


def test_roundtrip_structure(embedded_pag):
    g2 = pag_from_dict(pag_to_dict(embedded_pag))
    assert g2.num_vertices == embedded_pag.num_vertices
    assert g2.num_edges == embedded_pag.num_edges
    for v1, v2 in zip(embedded_pag.vertices(), g2.vertices()):
        assert (v1.name, v1.label, v1.call_kind) == (v2.name, v2.label, v2.call_kind)
    for e1, e2 in zip(embedded_pag.edges(), g2.edges()):
        assert (e1.src_id, e1.dst_id, e1.label) == (e2.src_id, e2.dst_id, e2.label)


def test_compact_form_summarizes_per_rank(embedded_pag):
    g2 = pag_from_dict(pag_to_dict(embedded_pag, include_per_rank=False))
    root = g2.vertex(0)
    summary = root["time_per_rank"]
    assert isinstance(summary, dict)
    assert {"min", "max", "mean", "imbalance"} <= set(summary)
    assert summary["max"] >= summary["mean"] >= summary["min"]


def test_full_form_roundtrips_per_rank(embedded_pag):
    g2 = pag_from_dict(pag_to_dict(embedded_pag, include_per_rank=True))
    orig = embedded_pag.vertex(0)["time_per_rank"]
    back = g2.vertex(0)["time_per_rank"]
    assert isinstance(back, np.ndarray)
    assert np.allclose(orig, back, atol=1e-8)


def test_scalar_metrics_preserved(embedded_pag):
    g2 = pag_from_dict(pag_to_dict(embedded_pag))
    assert g2.vertex(0)["time"] == pytest.approx(embedded_pag.vertex(0)["time"], rel=1e-6)


def test_save_load(tmp_path, embedded_pag):
    path = tmp_path / "pag.json"
    nbytes = save_pag(embedded_pag, path)
    assert nbytes == path.stat().st_size
    g2 = load_pag(path)
    assert g2.num_vertices == embedded_pag.num_vertices
    assert g2.name == embedded_pag.name


def test_storage_size_consistent_with_save(tmp_path, embedded_pag):
    assert storage_size(embedded_pag) == save_pag(embedded_pag, tmp_path / "x.json")


def test_compact_smaller_than_full_at_scale():
    # the summary beats full vectors once there are more than a few ranks
    prog = make_ring_program()
    run = run_program(prog, nprocs=16)
    td, _ = build_top_down_view(prog, run)
    assert storage_size(td) < storage_size(td, include_per_rank=True)


def test_metadata_filtered_to_json_safe(embedded_pag):
    embedded_pag.metadata["weird"] = object()
    d = pag_to_dict(embedded_pag)
    assert "weird" not in d["metadata"]
    assert d["metadata"]["nprocs"] == 4
