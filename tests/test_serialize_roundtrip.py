"""Property-based serialize round-trip suite (hypothesis).

Random PAGs — unicode names, spilled object columns, per-rank vectors,
empty graphs, arbitrary finite float64 values — must survive format 3
on disk and the format-1 JSON document losslessly, float bits included,
and ``PAG.fingerprint()`` (the identity the result cache is addressed
by) must be exactly preserved by save/load: a cached result keyed
against a graph must still be addressable after that graph takes a trip
through the filesystem.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache.fingerprint import fingerprint_pag
from repro.pag.edge import CommKind, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.formats import (
    PAGFormatError,
    detect_format,
    load_pag,
    pag_from_dict,
    pag_to_dict,
    save_pag,
)
from repro.pag.formats.format3 import load_format3_buffer
from repro.pag.vertex import CallKind, VertexLabel

# Names mix ASCII, unicode (CJK, accents, symbols), and awkward JSON
# characters; floats are any finite float64 — subnormals, signed zeros,
# 17-significant-digit values and the ends of the exponent range — since
# no format rounds and the fingerprint hashes the raw 8 bytes.
names = st.text(
    alphabet=st.sampled_from("abcXYZ_0189 éüΩ中文🌍\"\\\n"), min_size=1, max_size=12
)
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1e300,
         1.7976931348623157e308, 0.1 + 0.2, 3.2012799999980857e-05]
    ),
)


@st.composite
def pags(draw) -> PAG:
    pag = PAG(draw(names))
    nv = draw(st.integers(min_value=0, max_value=8))
    for i in range(nv):
        props = {}
        if draw(st.booleans()):
            props["time"] = draw(floats)
        if draw(st.booleans()):
            props["count"] = draw(st.integers(min_value=-(2**40), max_value=2**40))
        if draw(st.booleans()):
            props["debug-info"] = draw(names)
        if draw(st.booleans()):
            # per-rank vector -> spilled object column
            props["time_per_rank"] = np.asarray(
                draw(st.lists(floats, min_size=1, max_size=4)), dtype=float
            )
        if draw(st.booleans()):
            props["comm-info"] = {"bytes": draw(floats), "peer": draw(names)}
        label = draw(st.sampled_from(list(VertexLabel)))
        call_kind = (
            draw(st.sampled_from([None, CallKind.USER, CallKind.COMM, CallKind.INDIRECT]))
            if label is VertexLabel.CALL
            else None
        )
        pag.add_vertex(label, draw(names), call_kind, props)
    if nv >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            src = draw(st.integers(min_value=0, max_value=nv - 1))
            dst = draw(st.integers(min_value=0, max_value=nv - 1))
            eprops = {}
            if draw(st.booleans()):
                eprops["weight"] = draw(floats)
            elabel = draw(st.sampled_from(list(EdgeLabel)))
            comm_kind = (
                draw(st.sampled_from([None, CommKind.P2P_SYNC, CommKind.COLLECTIVE]))
                if elabel is EdgeLabel.INTER_PROCESS
                else None
            )
            pag.add_edge(src, dst, elabel, comm_kind, eprops)
    if draw(st.booleans()):
        pag.metadata["nprocs"] = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        pag.metadata["case"] = draw(names)
    return pag


_settings = settings(
    max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _assert_equivalent(a: PAG, b: PAG) -> None:
    assert b.name == a.name
    assert b.num_vertices == a.num_vertices
    assert b.num_edges == a.num_edges
    assert b.fingerprint() == a.fingerprint()


@_settings
@given(pags())
def test_default_save_roundtrip_preserves_fingerprint(tmp_path, pag):
    path = tmp_path / "pag.json"
    save_pag(pag, path, include_per_rank=True)
    assert detect_format(path) == 3  # whatever the file is called
    _assert_equivalent(pag, load_pag(path))


@_settings
@given(pags())
def test_format1_dict_roundtrip_preserves_fingerprint(pag):
    # through an actual JSON text round-trip, like a file would
    data = json.loads(json.dumps(pag_to_dict(pag, include_per_rank=True)))
    _assert_equivalent(pag, pag_from_dict(data))


@_settings
@given(pags())
def test_formats_agree_on_fingerprint(tmp_path, pag):
    """Format 1 and format 3 reload to the same fingerprint — the JSON
    document prints ``repr(float)``, which reads back exactly, and
    format 3 stores the raw float64."""
    path = tmp_path / "pag.pag3"
    save_pag(pag, path, include_per_rank=True)
    via3 = load_pag(path)
    via1 = pag_from_dict(json.loads(json.dumps(pag_to_dict(pag, include_per_rank=True))))
    assert via1.fingerprint() == via3.fingerprint() == pag.fingerprint()


@_settings
@given(pags())
def test_properties_survive_roundtrip(tmp_path, pag):
    path = tmp_path / "pag3.json"
    save_pag(pag, path, include_per_rank=True)
    back = load_pag(path)
    for v, w in zip(pag.vertices(), back.vertices()):
        assert w.name == v.name
        assert w.label == v.label
        for key in ("time", "count", "debug-info"):
            a, b = v[key], w[key]
            if isinstance(a, float):
                assert b == pytest.approx(a, abs=1e-8)
            else:
                assert b == a
        pr_a, pr_b = v["time_per_rank"], w["time_per_rank"]
        if isinstance(pr_a, np.ndarray):
            np.testing.assert_allclose(pr_b, pr_a, atol=1e-8)
        else:
            assert pr_b is None or pr_b == pr_a


def _float_bits(value):
    """``value`` with each float64 spelled as its int64 bit pattern."""
    if isinstance(value, float):
        return int(np.float64(value).view(np.int64))
    if isinstance(value, np.ndarray):
        assert value.dtype == np.float64
        return value.view(np.int64).tolist()
    if isinstance(value, dict):
        return {k: _float_bits(v) for k, v in value.items()}
    return value


def _all_float_bits(pag: PAG):
    return [_float_bits(dict(el.properties)) for el in (*pag.vertices(), *pag.edges())]


@_settings
@given(pags())
def test_every_float_survives_every_format_bit_for_bit(tmp_path, pag):
    """``load(save(g))`` holds the floats of ``g`` — scalar columns,
    per-rank vectors, floats nested in dict cells — bit for bit
    (``-0.0`` stays ``-0.0``, a subnormal stays that subnormal), so its
    fingerprint is ``g``'s because the content is, not because a
    canonicalisation made two different contents hash alike."""
    want = _all_float_bits(pag)
    p3 = tmp_path / "bits.pag3"
    save_pag(pag, p3, include_per_rank=True, format=3)
    loaded = {
        "format 1 document": pag_from_dict(
            json.loads(json.dumps(pag_to_dict(pag, include_per_rank=True)))
        ),
        "format 3 heap": load_pag(p3),
        "format 3 mmap": load_pag(p3, mmap=True),
        "format 3 buffer": load_format3_buffer(p3.read_bytes()),
    }
    for how, back in loaded.items():
        assert _all_float_bits(back) == want, how
        assert fingerprint_pag(back) == back.fingerprint() == pag.fingerprint(), how


@_settings
@given(pags(), st.booleans())
def test_format3_roundtrip_preserves_fingerprint(tmp_path, pag, mmap):
    """Binary format 3 round-trips losslessly, eager and mmap-ed alike.

    The loaded fingerprint is checked twice: once through the
    header-seeded cache (``PAG.fingerprint``) and once force-recomputed
    from the actual column data (``fingerprint_pag``) — so a writer that
    stamped a wrong digest into the header cannot hide behind the seed.
    """
    path = tmp_path / "pag.pag3"
    save_pag(pag, path, include_per_rank=True, format=3)
    back = load_pag(path, mmap=mmap)
    _assert_equivalent(pag, back)
    assert fingerprint_pag(back) == pag.fingerprint()


@_settings
@given(pags())
def test_format1_and_format3_load_identical_pags(tmp_path, pag):
    p3 = tmp_path / "a.pag3"
    save_pag(pag, p3, include_per_rank=True, format=3)
    via1 = pag_from_dict(json.loads(json.dumps(pag_to_dict(pag, include_per_rank=True))))
    via3 = load_pag(p3)
    assert fingerprint_pag(via3) == fingerprint_pag(via1) == pag.fingerprint()
    for v1, v3 in zip(via1.vertices(), via3.vertices()):
        assert v3.name == v1.name
        assert v3.label == v1.label
        assert dict(v3.properties).keys() == dict(v1.properties).keys()


@_settings
@given(pags())
def test_mmap_mutation_promotes_without_corrupting_source(tmp_path, pag):
    """Mutating an mmap-loaded PAG copies on write: the graph changes,
    the backing file does not."""
    path = tmp_path / "cow.pag3"
    save_pag(pag, path, include_per_rank=True, format=3)
    raw = path.read_bytes()
    g = load_pag(path, mmap=True)
    g.add_vertex(VertexLabel.FUNCTION, "intruder", None, {"time": 1.0})
    if pag.num_vertices:
        g.vertex(0)["time"] = 123.456
        g.vertex(0).name = "renamed"
    assert g.num_vertices == pag.num_vertices + 1
    assert path.read_bytes() == raw
    # and a fresh load still reproduces the original
    _assert_equivalent(pag, load_pag(path, mmap=True))


def test_empty_pag_roundtrip(tmp_path):
    pag = PAG("empty")
    path = tmp_path / "e.json"
    save_pag(pag, path)
    back = load_pag(path)
    _assert_equivalent(pag, back)
    _assert_equivalent(pag, pag_from_dict(pag_to_dict(pag)))
    path3 = tmp_path / "e.pag3"
    save_pag(pag, path3, format=3)
    for mmap in (False, True):
        _assert_equivalent(pag, load_pag(path3, mmap=mmap))


@_settings
@given(st.text(max_size=40))
def test_arbitrary_text_never_tracebacks(tmp_path, text):
    """load_pag on arbitrary file contents either parses or raises the
    typed PAGFormatError — never a raw JSONDecodeError/KeyError."""
    path = tmp_path / "junk.json"
    path.write_text(text, "utf-8")
    try:
        load_pag(path)
    except PAGFormatError as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize("payload", [
    "",
    "[1, 2, 3]",
    '{"format": 2}',
    '{"format": 2, "name": "x", "strings": [], "v": {}, "e": {}}',
    '{"name": "x", "vertices": [[999, "v", null, {}]], "edges": []}',
    '{"name": "x", "vertices": [["bad-shape"]], "edges": []}',
])
def test_corrupt_documents_raise_pag_format_error(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload, "utf-8")
    with pytest.raises(PAGFormatError):
        load_pag(path)


def _saved_format3(tmp_path) -> bytes:
    pag = PAG("corruptee", {"nprocs": 2})
    v0 = pag.add_vertex(VertexLabel.FUNCTION, "main", None, {"time": 1.0})
    v1 = pag.add_vertex(VertexLabel.LOOP, "loop", None, {"count": 3})
    pag.add_edge(v0, v1, EdgeLabel.INTRA_PROCEDURAL)
    path = tmp_path / "ok.pag3"
    save_pag(pag, path, format=3)
    return path.read_bytes()


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda raw: raw[:40], id="truncated-header"),
        pytest.param(lambda raw: raw[:150], id="truncated-directory"),
        pytest.param(
            lambda raw: b"PAG3" + b"\xff" * (len(raw) - 4), id="garbage-after-magic"
        ),
        pytest.param(
            lambda raw: raw[:4] + (99).to_bytes(2, "little") + raw[6:],
            id="unsupported-version",
        ),
        pytest.param(lambda raw: raw[: len(raw) // 2], id="truncated-data"),
        pytest.param(
            lambda raw: raw.replace(b'"v_name":[128,', b'"v_name":[129,', 1),
            id="misaligned-segment",
        ),
        pytest.param(
            lambda raw: raw[:32] + b"zz" + raw[34:], id="non-hex-fingerprint"
        ),
    ],
)
def test_corrupt_format3_raises_pag_format_error(tmp_path, corrupt, mmap):
    raw = _saved_format3(tmp_path)
    mutated = corrupt(raw)
    assert mutated != raw, "corruption did not change the file"
    path = tmp_path / "bad.pag3"
    path.write_bytes(mutated)
    with pytest.raises(PAGFormatError) as exc:
        load_pag(path, mmap=mmap)
    assert str(path) in str(exc.value)
