"""PAG persistence: ``save_pag`` / ``load_pag`` and their probes.

Two formats exist, one per medium:

* **Format 3** (binary, mmap-able columnar) is the one on-disk format:
  ``save_pag`` and ``storage_size`` write nothing else.  Fingerprint in
  the header, 64-byte-aligned array segments; ``load_pag(path,
  mmap=True)`` is O(header) and attaches columns as lazy copy-on-write
  views (:mod:`repro.pag.formats.format3`).
* **Format 1** (JSON, element-wise) is the HTTP document:
  :func:`pag_to_dict` builds it and :func:`pag_from_dict` reads it.
  :func:`load_pag` also reads it from a file.

``storage_size`` runs the format-3 writer against a counting sink, so
its result is byte-exact with what ``save_pag`` writes.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import Union

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
from repro.pag.formats.json_fmt import pag_from_dict, pag_to_dict
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


def save_pag(
    pag: PAG,
    path: Union[str, FsPath],
    include_per_rank: bool = False,
    format: int = 3,
) -> int:
    """Write a PAG as format 3; returns the byte size written.

    ``format`` accepts only 3.  Every save records a ``pag.save`` span
    tagged with the bytes written (when tracing is enabled).
    """
    if format != 3:
        raise ValueError(f"unknown PAG format {format!r} (writable: 3)")
    total = 0
    with _timed_span("pag.save", category="pag", pag=pag.name, format=3) as sp:
        with open(FsPath(path), "wb") as f:

            def write(chunk: bytes) -> None:
                nonlocal total
                total += f.write(chunk)

            write_format3(pag, write, include_per_rank)
        if sp:
            sp.set(bytes=total)
    _LOG.info("saved %s: format 3, %d bytes in %.4fs", pag.name, total, sp.duration)
    return total


def detect_format(path: Union[str, FsPath]) -> int:
    """On-disk format of a saved PAG, sniffed from its first bytes."""
    with open(FsPath(path), "rb") as f:
        head = f.read(16)
    return 3 if head.startswith(_MAGIC3) else 1


def load_pag(path: Union[str, FsPath], mmap: bool = False) -> PAG:
    """Load a PAG file: format 3 (what :func:`save_pag` writes) or a
    format-1 JSON document.

    ``mmap=True`` applies to format-3 files: the open is O(header) and
    columns attach as lazy views that fault in on first touch (a JSON
    document always materializes; the flag is ignored for it).

    Records a ``pag.load`` span tagged with the detected format, the
    mmap mode and the bytes read.
    """
    if detect_format(path) == 3:
        with _span("pag.load", category="pag", format=3, mmap=bool(mmap)) as sp:
            hdr = read_header(path)
            pag = load_format3(path, hdr, use_mmap=mmap)
            if sp:
                # an mmap open reads only header + directory; report
                # that, not the (untouched) file size
                nbytes = hdr["data_start"] if mmap else hdr["file_size"]
                sp.set(pag=pag.name, bytes=nbytes)
        return pag
    raw = FsPath(path).read_bytes()
    with _span("pag.load", category="pag", bytes=len(raw), format=1, mmap=False) as sp:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PAGFormatError(
                f"not valid JSON (truncated or corrupt file?): {exc}", path=path
            ) from exc
        pag = pag_from_dict(data, path=path)
        if sp:
            sp.set(pag=pag.name)
    return pag


def storage_size(pag: PAG, include_per_rank: bool = False) -> int:
    """Bytes of the saved PAG — the space cost of Table 1.

    Runs the format-3 writer against a counting sink, so the result
    matches the file :func:`save_pag` writes exactly.
    """
    total = 0

    def write(chunk: bytes) -> None:
        nonlocal total
        total += len(chunk)

    write_format3(pag, write, include_per_rank)
    return total
