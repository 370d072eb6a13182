"""Set signatures for PerFlowGraph passes.

Paper §4.2: the values flowing along PerFlowGraph edges are *sets* of
PAG vertices and edges.  A :class:`PassSignature` declares which kind
each input position consumes and each output position produces, so a
pipeline can be type-checked **before** execution
(:meth:`repro.dataflow.graph.PerFlowGraph.check`) instead of failing
with a ``TypeError`` halfway through a run.

Declare signatures with the :func:`signature` decorator (it only
attaches metadata — the function is returned unchanged, with zero call
overhead)::

    @signature(inputs=(VertexSet,), outputs=(VertexSet, EdgeSet))
    def causal_analysis(V, **kwargs): ...

Kinds are spelled as the set classes themselves (``VertexSet`` /
``EdgeSet``), the strings ``"vertexset"`` / ``"edgeset"`` / ``"any"``,
or :class:`SetKind` members.  ``ANY`` opts a position out of checking,
so untyped lambdas and scalar-valued passes keep working unchecked.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple, Union

from repro.pag.sets import EdgeSet, VertexSet

#: Attribute under which a signature is attached to a pass function.
SIGNATURE_ATTR = "__pf_signature__"


class SetKind(enum.Enum):
    """The kind of value flowing along one PerFlowGraph edge."""

    VERTEX_SET = "VertexSet"
    EDGE_SET = "EdgeSet"
    ANY = "any"

    def __str__(self) -> str:
        return self.value

    def compatible(self, other: "SetKind") -> bool:
        return SetKind.ANY in (self, other) or self is other

    @classmethod
    def of(cls, spec: Any) -> "SetKind":
        """Coerce a kind spec (class, string, SetKind, or value) to a kind."""
        if isinstance(spec, cls):
            return spec
        if spec is VertexSet or isinstance(spec, VertexSet):
            return cls.VERTEX_SET
        if spec is EdgeSet or isinstance(spec, EdgeSet):
            return cls.EDGE_SET
        if isinstance(spec, str):
            key = spec.strip().lower()
            if key in ("vertexset", "vertex_set", "vertices", "v"):
                return cls.VERTEX_SET
            if key in ("edgeset", "edge_set", "edges", "e"):
                return cls.EDGE_SET
            if key in ("any", "*"):
                return cls.ANY
            raise ValueError(f"unknown set kind {spec!r}")
        return cls.ANY


KindSpec = Union[SetKind, str, type, None]


@dataclass(frozen=True)
class PassSignature:
    """Declared input/output set kinds of a pass."""

    inputs: Tuple[SetKind, ...]
    outputs: Tuple[SetKind, ...]

    def __str__(self) -> str:
        ins = ", ".join(map(str, self.inputs))
        outs = ", ".join(map(str, self.outputs))
        return f"({ins}) -> ({outs})"

    @property
    def arity(self) -> int:
        return len(self.inputs)


def make_signature(
    inputs: Union[KindSpec, Sequence[KindSpec]] = (),
    outputs: Union[KindSpec, Sequence[KindSpec]] = (),
) -> PassSignature:
    """Build a :class:`PassSignature` from loose kind specs."""

    def coerce(spec) -> Tuple[SetKind, ...]:
        if spec is None:
            return ()
        if isinstance(spec, (list, tuple)):
            return tuple(SetKind.of(s) for s in spec)
        return (SetKind.of(spec),)

    return PassSignature(inputs=coerce(inputs), outputs=coerce(outputs))


def signature(
    inputs: Union[KindSpec, Sequence[KindSpec]] = (),
    outputs: Union[KindSpec, Sequence[KindSpec]] = (),
) -> Callable:
    """Decorator attaching a :class:`PassSignature` to a pass function."""
    sig = make_signature(inputs, outputs)

    def deco(fn: Callable) -> Callable:
        setattr(fn, SIGNATURE_ATTR, sig)
        return fn

    return deco


def signature_of(fn: Any) -> Optional[PassSignature]:
    """The signature attached to ``fn``, if any (methods included).

    A ``functools.partial`` that binds keywords only takes the same
    sets as its function, so it carries the function's signature.
    """
    if isinstance(fn, functools.partial) and not fn.args:
        fn = fn.func
    sig = getattr(fn, SIGNATURE_ATTR, None)
    if sig is None:
        sig = getattr(getattr(fn, "__func__", None), SIGNATURE_ATTR, None)
    return sig
