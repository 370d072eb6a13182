"""Static structure extraction — PerFlow's Dyninst role (paper §3.2).

:func:`analyze` walks a :class:`~repro.ir.model.Program` from its entry
function and produces the *top-down view* of the PAG (paper §3.4,
Fig. 4): a tree whose root is the entry function, with user calls inlined
at each call site (hence |E| = |V| - 1, matching Table 2), communication
and external calls as leaf call vertices, and debug information attached
to every vertex.

Call sites that cannot be resolved statically — indirect calls — are
marked (``CallKind.INDIRECT``) and left unexpanded; when a runtime trace
supplies resolved targets they are expanded in place, which is exactly
the static-marks-it / dynamic-fills-it split the paper describes.

Context paths
-------------
Every expanded vertex is keyed by its *context path*: the tuple of node
uids (ints) and function-entry markers (``"f:<name>"`` strings) from the
entry function down.  The runtime interpreter tracks the same paths, so
performance-data embedding (§3.3) is a dictionary lookup with
longest-prefix fallback instead of a graph search.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.ir.model import (
    Branch,
    Call,
    CallTarget,
    CommCall,
    Loop,
    Node,
    Padding,
    Program,
    Stmt,
    ThreadCall,
    ThreadOp,
)
from repro.obs.trace import timed_span as _timed_span
from repro.pag.columns import StrColumn
from repro.pag.edge import ELABEL_CODE, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import CALLKIND_CODE, NO_KIND, VLABEL_CODE, CallKind, Vertex, VertexLabel

PathElem = Union[int, str]
Path = Tuple[PathElem, ...]

#: Maximum inlining depth for recursive call chains.
MAX_RECURSION_DEPTH = 2

_FUNCTION, _LOOP, _BRANCH, _INSTRUCTION, _CALL = (
    VLABEL_CODE[label] for label in (
        VertexLabel.FUNCTION, VertexLabel.LOOP, VertexLabel.BRANCH,
        VertexLabel.INSTRUCTION, VertexLabel.CALL,
    )
)
_COMM, _THREAD, _EXTERNAL, _INDIRECT, _USER, _RECURSIVE = (
    CALLKIND_CODE[kind] for kind in (
        CallKind.COMM, CallKind.THREAD, CallKind.EXTERNAL,
        CallKind.INDIRECT, CallKind.USER, CallKind.RECURSIVE,
    )
)
_INTRA = ELABEL_CODE[EdgeLabel.INTRA_PROCEDURAL]
_INTER = ELABEL_CODE[EdgeLabel.INTER_PROCEDURAL]


@dataclass
class StaticAnalysisResult:
    """Output of :func:`analyze`.

    Attributes
    ----------
    pag:
        The top-down view of the PAG (a tree rooted at the entry function).
    path_to_vertex:
        Context path -> vertex id, the embedding index.
    unresolved_calls:
        Vertex ids of indirect call sites with no runtime target yet.
    static_seconds:
        Wall-clock seconds this analysis took (the measured quantity of
        Table 1's "Static" row for our substrate).
    modeled_static_seconds:
        What the paper's Dyninst-based analysis would cost for a binary of
        this size, from :func:`static_analysis_cost`.
    """

    pag: PAG
    path_to_vertex: Dict[Path, int]
    unresolved_calls: List[int] = field(default_factory=list)
    static_seconds: float = 0.0
    modeled_static_seconds: float = 0.0

    def vertex_for_path(self, path: Path) -> Optional[Vertex]:
        """Resolve a calling context to its vertex, longest prefix first.

        This is the embedding search of Fig. 3: contexts deeper than the
        expanded tree (e.g. below a recursion cut-off) resolve to the
        deepest known ancestor.
        """
        probe = tuple(path)
        while probe:
            vid = self.path_to_vertex.get(probe)
            if vid is not None:
                return self.pag.vertex(vid)
            probe = probe[:-1]
        return None


class _Expander:
    """Walks the IR and appends the top-down view straight into the PAG.

    A vertex is one row of the structural arrays and of the
    ``debug-info`` string column; every vertex but the root adds one
    tree edge from its parent.  Names and debug strings are interned in
    the order ``PAG.add_vertex`` would intern them (name, then
    debug-info), so the string table comes out the same.
    """

    def __init__(self, program: Program, indirect_targets: Dict[int, Set[str]]):
        self.program = program
        self.indirect_targets = indirect_targets
        self.pag = pag = PAG(
            f"{program.name}/top-down",
            {"view": "top-down", "program": program.name},
        )
        self.path_to_vertex: Dict[Path, int] = {}
        self.unresolved: List[int] = []
        self.debug = debug = StrColumn(pag.strings)
        intern, path_to_vertex = pag.strings.intern, self.path_to_vertex
        v_label, v_kind, v_name = pag._v_label.append, pag._v_kind.append, pag._v_name.append
        e_src, e_dst, e_label = pag._e_src.append, pag._e_dst.append, pag._e_label.append
        debug_sid = debug.sids.append

        def add(path, label, name, parent, edge_label, kind, line, source_file) -> int:
            vid = len(pag._v_label)
            v_label(label)
            v_kind(kind)
            v_name(intern(name))
            debug_sid(intern(f"{source_file}:{line}" if source_file else f"line:{line}"))
            path_to_vertex[path] = vid
            if parent >= 0:
                e_src(parent)
                e_dst(vid)
                e_label(edge_label)
            return vid

        self._add = add

    def finish(self) -> PAG:
        """Size the property stores and edge kinds to the appended rows."""
        pag = self.pag
        nv, ne = pag.num_vertices, pag.num_edges
        pag._e_kind.extend(array("b", [NO_KIND]) * ne)
        pag._vprops.columns["debug-info"] = self.debug
        pag._vprops.add_rows(nv)
        pag._vprops.version += 1
        pag._eprops.add_rows(ne)
        return pag

    # -- expansion -----------------------------------------------------------
    def expand_function(
        self,
        fname: str,
        path: Path,
        parent: int,
        call_chain: Tuple[str, ...],
    ) -> int:
        func = self.program.function(fname)
        fpath = path + (f"f:{fname}",)
        fv = self._add(
            fpath, _FUNCTION, fname, parent, _INTER, NO_KIND, func.line, func.source_file
        )
        self.expand_body(func.body, fpath, fv, func.source_file, call_chain + (fname,), "")
        return fv

    def expand_body(
        self,
        body: Sequence[Node],
        path: Path,
        parent: int,
        source_file: str,
        call_chain: Tuple[str, ...],
        loop_prefix: str,
    ) -> None:
        add = self._add
        loop_index = 0
        for node in body:
            npath = path + (node.uid,)
            if isinstance(node, Stmt):
                add(npath, _INSTRUCTION, node.name, parent, _INTRA, NO_KIND, node.line, source_file)
            elif isinstance(node, Call):
                self._expand_call(node, npath, parent, source_file, call_chain)
            elif isinstance(node, Loop):
                loop_index += 1
                name = node.name or (
                    f"loop_{loop_prefix}{loop_index}" if not loop_prefix
                    else f"loop_{loop_prefix}.{loop_index}"
                )
                # The hierarchical numbering in names like "loop_10.1"
                # concatenates ancestor loop ordinals within the function.
                inner_prefix = (
                    f"{loop_prefix}.{loop_index}" if loop_prefix else str(loop_index)
                )
                lv = add(npath, _LOOP, name, parent, _INTRA, NO_KIND, node.line, source_file)
                self.expand_body(node.body, npath, lv, source_file, call_chain, inner_prefix)
            elif isinstance(node, Branch):
                bv = add(
                    npath, _BRANCH, node.name or "branch", parent, _INTRA, NO_KIND,
                    node.line, source_file,
                )
                if isinstance(node, Padding):
                    self.expand_padding(node, npath, bv, source_file)
                else:
                    self.expand_body(
                        list(node.then_body) + list(node.else_body),
                        npath, bv, source_file, call_chain, loop_prefix,
                    )
            elif isinstance(node, CommCall):
                add(npath, _CALL, node.name, parent, _INTRA, _COMM, node.line, source_file)
            elif isinstance(node, ThreadCall):
                tv = add(npath, _CALL, node.name, parent, _INTRA, _THREAD, node.line, source_file)
                if node.op is ThreadOp.CREATE and node.body:
                    self.expand_body(node.body, npath, tv, source_file, call_chain, loop_prefix)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown IR node type {type(node).__name__}")

    def expand_padding(self, pad: Padding, path: Path, parent: int, source_file: str) -> None:
        """Append ``pad``'s arm block-wise, as expanding it node by node
        would: per filler its call, the inlined function and its
        statements, then the loose statements (uids and lines from
        ``pad``)."""
        n, m, r, width = pad.fillers, pad.STMTS, pad.loose, pad.WIDTH
        pag = self.pag
        rows, first = n * width, len(pag._v_label)
        count = rows + r
        fnames = [f"__phase_{k}" for k in range(n)]
        call_paths = list(map(operator.add, repeat(path), zip(pad.call_uids())))
        fn_paths = list(map(operator.add, call_paths, zip(map("f:".__add__, fnames))))
        names, debug, paths = [None] * count, [None] * count, [None] * count
        names[0:rows:width] = names[1:rows:width] = fnames
        outer, inner = (f"{sf}:" if sf else "line:" for sf in (source_file, pad.source_file))
        debug[0:rows:width] = [f"{outer}{pad.CALL_LINE + k}" for k in range(n)]
        paths[0:rows:width], paths[1:rows:width] = call_paths, fn_paths
        vids = np.arange(first, first + count, dtype=np.int64)
        src = np.full(count, parent, dtype=np.int64)  # the tree edge into each vertex
        src[1:rows:width] = vids[0:rows:width]
        for j in range(m):
            col = slice(2 + j, rows, width)
            src[col] = vids[1:rows:width]
            names[col] = list(map(operator.add, fnames, repeat(f"_s{j}")))
            debug[col] = [f"{inner}{line}" for line in pad.stmt_lines(j)]
            paths[col] = list(map(operator.add, fn_paths, zip(pad.stmt_uids(j))))
        debug[1:rows:width] = [f"{inner}{line}" for line in pad.stmt_lines(0)]
        names[rows:] = [f"__pad_s{j}" for j in range(r)]
        debug[rows:] = [f"{outer}{pad.LOOSE_LINE}"] * r
        paths[rows:] = list(map(operator.add, repeat(path), zip(pad.loose_uids())))
        interleaved = [None] * (2 * count)
        interleaved[0::2], interleaved[1::2] = names, debug
        sids = np.fromiter(map(pag.strings.intern, interleaved), np.int64, 2 * count)
        # label, call kind, parent-edge label: a filler's ``width`` rows, then a loose one
        row = np.array(
            [(_CALL, _USER, _INTRA), (_FUNCTION, NO_KIND, _INTER)]
            + [(_INSTRUCTION, NO_KIND, _INTRA)] * (m + 1), np.int8,
        )
        codes = row[np.r_[np.tile(np.arange(width), n), np.full(r, width)]].T.copy()
        pag._v_label.frombytes(codes[0].tobytes())
        pag._v_kind.frombytes(codes[1].tobytes())
        pag._v_name.frombytes(sids[0::2].tobytes())
        self.debug.sids.frombytes(sids[1::2].tobytes())
        pag._e_src.frombytes(src.tobytes())
        pag._e_dst.frombytes(vids.tobytes())
        pag._e_label.frombytes(codes[2].tobytes())
        self.path_to_vertex.update(zip(paths, range(first, first + count)))

    def _expand_call(
        self,
        node: Call,
        npath: Path,
        parent: int,
        source_file: str,
        call_chain: Tuple[str, ...],
    ) -> None:
        if node.target is CallTarget.EXTERNAL:
            self._add(
                npath, _CALL, node.name, parent, _INTRA, _EXTERNAL, node.line, source_file
            )
            return
        if node.target is CallTarget.INDIRECT:
            cv = self._add(
                npath, _CALL, node.name, parent, _INTRA, _INDIRECT, node.line, source_file
            )
            targets = self.indirect_targets.get(node.uid, set())
            if not targets:
                self.unresolved.append(cv)
            for target in sorted(targets):
                if target in self.program.functions:
                    self.expand_function(target, npath, cv, call_chain)
            return
        # USER call: inline, cutting recursion at MAX_RECURSION_DEPTH.
        depth = call_chain.count(node.callee)
        kind = _RECURSIVE if depth > 0 else _USER
        cv = self._add(npath, _CALL, node.name, parent, _INTRA, kind, node.line, source_file)
        if node.callee not in self.program.functions:
            # Modelled as external if the body is absent from the program.
            return
        if depth < MAX_RECURSION_DEPTH:
            self.expand_function(node.callee, npath, cv, call_chain)


def analyze(
    program: Program,
    indirect_targets: Optional[Dict[int, Set[str]]] = None,
) -> StaticAnalysisResult:
    """Extract the top-down view of the PAG from a program model.

    Parameters
    ----------
    program:
        The modelled "binary".
    indirect_targets:
        Runtime-resolved indirect-call targets (call-site uid -> callee
        names), from :class:`repro.runtime.tracer.Tracer`.  Without it,
        indirect call sites stay as marked leaves (§3.2).
    """
    # timed_span measures even when tracing is disabled, so the phase
    # both appears in recorded traces and keeps feeding static_seconds.
    with _timed_span("static.analyze", category="static", program=program.name) as sp:
        exp = _Expander(program, indirect_targets or {})
        exp.expand_function(program.entry, (), -1, ())
        pag = exp.finish()
        sp.set(
            vertices=pag.num_vertices,
            unresolved_calls=len(exp.unresolved),
        )
    return StaticAnalysisResult(
        pag=pag,
        path_to_vertex=exp.path_to_vertex,
        unresolved_calls=exp.unresolved,
        static_seconds=sp.duration,
        modeled_static_seconds=static_analysis_cost(program),
    )


def static_analysis_cost(program: Program) -> float:
    """Model the paper's Dyninst static-analysis cost for this program.

    Table 1 shows the cost growing with binary size: ~0.03 s for the
    smallest NPB kernels up to 5.34 s for LAMMPS (14.67 MB binary).  We
    fit a simple affine model in binary megabytes: ``0.02 + 0.36 * MB``.
    """
    from repro.ir.binary import binary_info

    info = binary_info(program)
    return 0.02 + 0.36 * (info.binary_bytes / 1e6)
