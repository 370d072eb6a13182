"""Cache-key construction: pass identity × input content.

A PerFlowGraph node's cache key must change whenever anything that can
change its output changes:

* the **pass function** — qualified name, source text (falling back to
  bytecode when source is unavailable), default arguments, and the
  *values* captured in its closure cells or bound by a
  ``functools.partial``.  That is how paradigm builders bake in
  parameters (``partial(hotspot, n=top)``), so bound values are
  first-class key material;
* the **node shape** — kind (pass vs. fixpoint) and the fixpoint
  iteration cap;
* the **input values** — sets digest as (owning-PAG fingerprint, id
  array, result columns); scalars, strings, containers, and numpy
  arrays digest by canonical content.

Anything that cannot be keyed soundly raises :class:`Uncacheable` and
the node simply executes: bound methods and callable objects (receiver
state is invisible), closures over arbitrary objects (e.g. a
``PerFlow`` facade), and unrecognized input types.  *Global* variables
read by a pass are hashed only by name (via the source text), not by
value — passes reading mutable global state should opt out with
``add_pass(..., cacheable=False)``.

Keys deliberately never include PAG identity ``token``\\ s, object ids,
or memory addresses: a key must mean the same thing across processes
and after any number of graph deaths and rebirths, which is exactly
what makes a recycled token unable to alias a live cache entry.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import inspect
import struct
from typing import Any, Dict, Iterable, Optional, Set

import numpy as np

from repro.cache.fingerprint import canonical_update
from repro.pag.graph import PAG
from repro.pag.sets import EdgeSet, VertexSet

__all__ = [
    "Uncacheable",
    "pass_identity",
    "value_digest",
    "node_key",
]

_PACK_Q = struct.Struct("<q").pack


class Uncacheable(Exception):
    """This node/value cannot be soundly keyed; execute it instead.

    Raised (and caught by the cache session) whenever key construction
    would have to guess — never silently mis-keyed.
    """


def _update_str(h, s: str) -> None:
    b = s.encode("utf-8")
    h.update(_PACK_Q(len(b)))
    h.update(b)


def _update_set(h, value, registry: Optional[Dict[str, Any]]) -> None:
    h.update(b"V" if isinstance(value, VertexSet) else b"E")
    if value._pag is None:
        h.update(b"-")
    else:
        fp = value._pag.fingerprint()
        if registry is not None:
            registry.setdefault(fp, value._pag)
        _update_str(h, fp)
    h.update(_PACK_Q(len(value._ids)))
    h.update(value._ids.tobytes())
    for name in sorted(value._cols or ()):
        _update_str(h, name)
        _value_update(h, value._cols[name], None)


def _value_update(h, value: Any, registry: Optional[Dict[str, Any]]) -> None:
    if isinstance(value, (VertexSet, EdgeSet)):
        _update_set(h, value, registry)
    elif isinstance(value, PAG):
        fp = value.fingerprint()
        if registry is not None:
            registry.setdefault(fp, value)
        h.update(b"P")
        _update_str(h, fp)
    elif isinstance(value, tuple):
        h.update(b"t")
        h.update(_PACK_Q(len(value)))
        for v in value:
            _value_update(h, v, registry)
    elif isinstance(value, list):
        h.update(b"l")
        h.update(_PACK_Q(len(value)))
        for v in value:
            _value_update(h, v, registry)
    elif isinstance(value, dict):
        h.update(b"d")
        h.update(_PACK_Q(len(value)))
        for k in sorted(value, key=lambda x: (str(type(x)), str(x))):
            _value_update(h, k, registry)
            _value_update(h, value[k], registry)
    elif value is None or isinstance(
        value, (bool, int, float, str, bytes, np.integer, np.floating, np.ndarray)
    ):
        canonical_update(h, value)
    elif isinstance(value, enum.Enum):
        h.update(b"e")
        _update_str(h, f"{type(value).__module__}.{type(value).__qualname__}")
        _update_str(h, value.name)
    else:
        raise Uncacheable(
            f"value of type {type(value).__name__!r} has no stable content key"
        )


def value_digest(value: Any, registry: Optional[Dict[str, Any]] = None) -> str:
    """Content digest of a value flowing along a PerFlowGraph edge.

    ``registry`` (fingerprint → PAG), when given, collects every PAG
    encountered so cached set references can later be re-bound to the
    live graphs of the current run (see :mod:`repro.cache.store`).
    Raises :class:`Uncacheable` for values with no stable content key.
    """
    h = hashlib.blake2b(b"perflow-val-v1", digest_size=16)
    _value_update(h, value, registry)
    return h.hexdigest()


def _param_update(h, value: Any, seen: Set[int]) -> None:
    """Key material from a default/closure value; functions recurse."""
    if inspect.isfunction(value) or isinstance(value, functools.partial):
        _identity_update(h, value, seen)
        return
    if callable(value) and not isinstance(value, type):
        raise Uncacheable(
            f"captured callable {value!r} carries state the key cannot see"
        )
    _value_update(h, value, None)


def _identity_update(h, fn: Any, seen: Set[int]) -> None:
    if id(fn) in seen:
        h.update(b"cycle")
        return
    seen.add(id(fn))
    if isinstance(fn, functools.partial):
        h.update(b"partial")
        _identity_update(h, fn.func, seen)
        _param_update(h, tuple(fn.args), seen)
        _param_update(h, dict(fn.keywords), seen)
        return
    if inspect.ismethod(fn):
        raise Uncacheable(
            f"bound method {fn.__qualname__!r}: receiver state is not part "
            "of the key"
        )
    if not inspect.isfunction(fn):
        raise Uncacheable(
            f"callable of type {type(fn).__name__!r} has no source-based "
            "identity"
        )
    _update_str(h, f"{fn.__module__}.{fn.__qualname__}")
    try:
        src = inspect.getsource(fn)
        h.update(b"src")
        _update_str(h, src)
    except (OSError, TypeError):
        code = fn.__code__
        h.update(b"code")
        h.update(code.co_code)
        _update_str(h, repr(code.co_names))
        for const in code.co_consts:
            if inspect.iscode(const):
                h.update(const.co_code)
            else:
                _update_str(h, repr(const))
    if fn.__defaults__:
        h.update(b"dflt")
        _param_update(h, tuple(fn.__defaults__), seen)
    if fn.__kwdefaults__:
        h.update(b"kwd")
        _param_update(h, dict(fn.__kwdefaults__), seen)
    if fn.__closure__:
        h.update(b"clos")
        h.update(_PACK_Q(len(fn.__closure__)))
        for cell in fn.__closure__:
            try:
                contents = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                raise Uncacheable("closure cell is empty") from None
            _param_update(h, contents, seen)


def pass_identity(fn: Any) -> str:
    """Stable identity of a pass function.

    Qualified name + source hash + normalized defaults and closure
    values; captured functions recurse (with cycle protection).  Raises
    :class:`Uncacheable` for callables whose behavior depends on state
    the key cannot observe.
    """
    h = hashlib.blake2b(b"perflow-pass-v1", digest_size=16)
    _identity_update(h, fn, set())
    return h.hexdigest()


def node_key(
    kind: str,
    identity: str,
    input_digests: Iterable[str],
    max_iters: int = 0,
) -> str:
    """Combine a node's shape, pass identity, and input digests."""
    h = hashlib.blake2b(b"perflow-key-v1", digest_size=16)
    _update_str(h, kind)
    h.update(_PACK_Q(max_iters))
    _update_str(h, identity)
    for d in input_digests:
        _update_str(h, d)
    return h.hexdigest()
