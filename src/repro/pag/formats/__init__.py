"""PAG persistence: format dispatch behind ``save_pag`` / ``load_pag``.

Three on-disk formats exist, all behind the same three entry points
(plus :func:`detect_format` / :func:`pag_file_fingerprint` for
sniffing and header-only probes):

* **Format 1** (JSON, element-wise) — read-only: :func:`load_pag` and
  :func:`pag_from_dict` accept it, nothing writes it to a file
  (:func:`pag_to_dict` still builds the document for HTTP uploads).
* **Format 2** (columnar streaming JSON, the default) — one streaming
  pass over the columns; human-greppable; fully materializes on load.
* **Format 3** (binary, mmap-able columnar) — fingerprint in the
  header, 64-byte-aligned array segments; ``load_pag(path, mmap=True)``
  is O(header) and attaches columns as lazy copy-on-write views
  (:mod:`repro.pag.formats.format3`).

``storage_size`` runs the requested format's writer against a counting
sink, so its result is byte-exact with what ``save_pag`` writes.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import Any, Dict, Union

from repro.obs.log import get_logger
from repro.obs.trace import span as _span, timed_span as _timed_span
from repro.pag.formats.base import PAGFormatError
from repro.pag.formats.format3 import (
    MAGIC as _MAGIC3,
    load_format3,
    pag_file_fingerprint,
    read_header,
    segment_sizes,
    write_format3,
)
from repro.pag.formats.json_fmt import pag_from_dict, pag_to_dict, write_format2
from repro.pag.graph import PAG

__all__ = [
    "PAGFormatError",
    "save_pag",
    "load_pag",
    "storage_size",
    "detect_format",
    "pag_file_fingerprint",
    "read_header",
    "segment_sizes",
    "pag_to_dict",
    "pag_from_dict",
]

_LOG = get_logger("pag.serialize")

#: Formats ``save_pag``/``storage_size`` can produce.
WRITABLE_FORMATS = (2, 3)

_WRITERS = {2: write_format2, 3: write_format3}


def save_pag(
    pag: PAG,
    path: Union[str, FsPath],
    include_per_rank: bool = False,
    format: int = 2,
) -> int:
    """Write a PAG in the requested format; returns the byte size written.

    Every save records a ``pag.save`` span tagged with the format and
    the bytes written (when tracing is enabled).
    """
    if format not in _WRITERS:
        raise ValueError(f"unknown PAG format {format!r} (writable: 2, 3)")
    writer = _WRITERS[format]
    binary = format == 3
    total = 0
    with _timed_span("pag.save", category="pag", pag=pag.name, format=format) as sp:
        with open(FsPath(path), "wb") as f:

            def write(chunk) -> None:
                nonlocal total
                b = chunk if binary else chunk.encode("utf-8")
                total += len(b)
                f.write(b)

            writer(pag, write, include_per_rank)
        if sp:
            sp.set(bytes=total)
    _LOG.info("saved %s: format %d, %d bytes in %.4fs", pag.name, format, total, sp.duration)
    return total


def detect_format(path: Union[str, FsPath]) -> int:
    """On-disk format of a saved PAG, sniffed from its first bytes."""
    with open(FsPath(path), "rb") as f:
        head = f.read(16)
    if head.startswith(_MAGIC3):
        return 3
    if head.lstrip().startswith(b'{"format":2'):
        return 2
    return 1


def load_pag(path: Union[str, FsPath], mmap: bool = False) -> PAG:
    """Load a PAG written by :func:`save_pag` (any format).

    ``mmap=True`` applies to format-3 files: the open is O(header) and
    columns attach as lazy views that fault in on first touch (JSON
    formats always materialize; the flag is ignored for them).

    Records a ``pag.load`` span tagged with the detected format, the
    mmap mode and the bytes read.
    """
    fmt = detect_format(path)
    if fmt == 3:
        with _span("pag.load", category="pag", format=3, mmap=bool(mmap)) as sp:
            hdr = read_header(path)
            pag = load_format3(path, hdr, use_mmap=mmap)
            if sp:
                # an mmap open reads only header + directory; report
                # that, not the (untouched) file size
                nbytes = hdr["data_start"] if mmap else hdr["file_size"]
                sp.set(pag=pag.name, bytes=nbytes)
        return pag
    text = FsPath(path).read_text("utf-8")
    with _span("pag.load", category="pag", bytes=len(text), format=fmt, mmap=False) as sp:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PAGFormatError(
                f"not valid JSON (truncated or corrupt file?): {exc}", path=path
            ) from exc
        pag = pag_from_dict(data, path=path)
        if sp:
            sp.set(pag=pag.name)
    return pag


def storage_size(
    pag: PAG, include_per_rank: bool = False, format: int = 2
) -> int:
    """Bytes of the serialized PAG — the space cost of Table 1.

    Runs the requested format's streaming writer against a counting
    sink, so the result matches the written file exactly (all formats,
    including binary format 3).
    """
    if format not in _WRITERS:
        raise ValueError(f"unknown PAG format {format!r} (writable: 2, 3)")
    total = 0

    def write(chunk) -> None:
        nonlocal total
        total += len(chunk) if isinstance(chunk, (bytes, bytearray)) else len(
            chunk.encode("utf-8")
        )

    _WRITERS[format](pag, write, include_per_rank)
    return total


