"""The declarative program-model IR.

Programs under analysis are described as trees of :class:`Node` inside
:class:`Function` bodies, collected in a :class:`Program`.  The model
carries exactly the structural features Dyninst extracts from a binary
(paper §3.2): control flow (loops, branches, statement sequences), the
static call graph, and debug information — plus the dynamic behaviour
the runtime simulator needs (costs, trip counts, communication
peers/sizes), expressed as constants or callables of
:class:`~repro.ir.context.ExecContext`.

Every node gets a process-wide unique ``uid`` when it is attached to a
:class:`Program`; context paths (tuples of uids) identify expanded
positions in the top-down view and are the keys of performance-data
embedding (§3.3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.ir.context import ExecContext

#: A model attribute: a constant or a callable of the execution context.
Dyn = Union[int, float, Callable[[ExecContext], Any]]


class CommOp(enum.Enum):
    """MPI operations the runtime simulator understands."""

    SEND = "MPI_Send"
    RECV = "MPI_Recv"
    ISEND = "MPI_Isend"
    IRECV = "MPI_Irecv"
    WAIT = "MPI_Wait"
    WAITALL = "MPI_Waitall"
    BARRIER = "MPI_Barrier"
    BCAST = "MPI_Bcast"
    REDUCE = "MPI_Reduce"
    ALLREDUCE = "MPI_Allreduce"
    ALLTOALL = "MPI_Alltoall"
    ALLGATHER = "MPI_Allgather"
    SENDRECV = "MPI_Sendrecv"


class ThreadOp(enum.Enum):
    """Threading / allocator operations (the inter-thread substrate)."""

    CREATE = "pthread_create"
    JOIN = "pthread_join"
    MUTEX_LOCK = "pthread_mutex_lock"
    MUTEX_UNLOCK = "pthread_mutex_unlock"
    #: Heap operations; serialized on a process-wide allocator lock
    #: (the Vite case study's root cause).
    ALLOC = "allocate"
    REALLOC = "reallocate"
    DEALLOC = "deallocate"


class CallTarget(enum.Enum):
    """Static resolvability of a call site (§3.1/§3.2)."""

    USER = "user"
    EXTERNAL = "external"
    #: Unresolvable statically; the tracer fills the target in at runtime.
    INDIRECT = "indirect"


class Node:
    """Base class for IR nodes.

    ``uid`` is assigned by :meth:`Program.add_function`; ``-1`` means the
    node is not yet attached to a program.
    """

    __slots__ = ("name", "line", "uid")

    def __init__(self, name: str, line: int) -> None:
        self.name = name
        self.line = line
        self.uid = -1

    def children(self) -> Sequence["Node"]:
        return ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, uid={self.uid})"


class Stmt(Node):
    """A straight-line computation block.

    ``cost`` is simulated seconds; ``pmu`` maps counter names to rates per
    simulated second (defaults applied by the sampler when absent).
    """

    __slots__ = ("cost", "pmu")

    def __init__(
        self,
        name: str,
        cost: Dyn,
        line: int = 0,
        pmu: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(name, line)
        self.cost = cost
        self.pmu = dict(pmu or {})


class Loop(Node):
    """A counted loop; ``trips`` may depend on the context (problem size)."""

    __slots__ = ("trips", "body")

    def __init__(
        self,
        trips: Dyn,
        body: Sequence[Node],
        name: str = "",
        line: int = 0,
    ) -> None:
        super().__init__(name, line)
        self.trips = trips
        self.body: List[Node] = list(body)

    def children(self) -> Sequence[Node]:
        return self.body


class Branch(Node):
    """A two-way branch; ``condition`` picks the then- or else-body."""

    __slots__ = ("condition", "then_body", "else_body")

    def __init__(
        self,
        condition: Callable[[ExecContext], bool],
        then_body: Sequence[Node],
        else_body: Sequence[Node] = (),
        name: str = "",
        line: int = 0,
    ) -> None:
        super().__init__(name, line)
        self.condition = condition
        self.then_body: List[Node] = list(then_body)
        self.else_body: List[Node] = list(else_body)

    def children(self) -> Sequence[Node]:
        return list(self.then_body) + list(self.else_body)


class Padding(Branch):
    """Code a binary contains but the run never enters (Table 2 calibration).

    An always-false branch whose arm is two numbers, not nodes:
    ``fillers`` calls to functions ``__phase_<k>`` (in ``source_file``)
    of ``STMTS`` statements each, then ``loose`` statements
    ``__pad_s<j>``.  Static analysis expands it block-wise into the
    vertices, uids and paths that code built node by node has; the uid
    and line layout of that code is kept here only.
    """

    STMTS = 8  #: statements per filler function
    WIDTH = STMTS + 2  #: top-down vertices per filler: call, function, statements
    LINE_BASE = 1000  #: line of ``__phase_0``; filler ``k`` is ``16 k`` lines on
    CALL_LINE = LINE_BASE - 100  #: line of filler ``k``'s call is ``CALL_LINE + k``
    LOOSE_LINE = LINE_BASE - 10

    __slots__ = ("fillers", "loose", "source_file")

    def __init__(self, fillers: int, loose: int, source_file: str):
        super().__init__(lambda ctx: False, (), name="init_once", line=self.CALL_LINE - 1)
        self.fillers, self.loose, self.source_file = fillers, loose, source_file

    @property
    def hidden_nodes(self) -> int:
        """IR nodes the per-node form holds besides the branch."""
        return self.fillers * (self.STMTS + 1) + self.loose

    def take_uids(self, first: int) -> int:
        """Number from ``first`` as the per-node form was: each filler's
        statements last first, the branch, its arm last first.  Returns
        the next free uid."""
        self.uid = first + self.fillers * self.STMTS
        return first + self.hidden_nodes + 1

    def call_uids(self) -> range:
        """Uid of filler ``k``'s call, for ``k = 0, 1, …``."""
        return range(self.uid + self.loose + self.fillers, self.uid + self.loose, -1)

    def stmt_uids(self, j: int) -> range:
        """Uid of statement ``j`` of filler ``k``, for ``k = 0, 1, …``."""
        start = self.uid - (self.fillers - 1) * self.STMTS - 1 - j
        return range(start, start + self.fillers * self.STMTS, self.STMTS)

    def loose_uids(self) -> range:
        return range(self.uid + self.loose, self.uid, -1)

    def stmt_lines(self, j: int) -> range:
        """Line of statement ``j`` of filler ``k`` (statement 0 shares its
        function's line), for ``k = 0, 1, …``."""
        return range(self.LINE_BASE + j, self.LINE_BASE + j + 16 * self.fillers, 16)


class Call(Node):
    """A call site.

    ``callee`` names a :class:`Function` for USER calls, a library symbol
    for EXTERNAL calls, and — for INDIRECT calls — the function actually
    taken at runtime (statically invisible; the static analysis only sees
    an unresolved call site and marks it, per §3.2).  EXTERNAL calls may
    carry a ``cost`` for their opaque body.
    """

    __slots__ = ("callee", "target", "cost")

    def __init__(
        self,
        callee: str,
        target: CallTarget = CallTarget.USER,
        cost: Dyn = 0.0,
        name: str = "",
        line: int = 0,
    ) -> None:
        super().__init__(name or callee, line)
        self.callee = callee
        self.target = target
        self.cost = cost


class CommCall(Node):
    """An MPI call site.

    ``peer`` gives the remote rank for point-to-point operations (callable
    of context or constant; ignored for collectives except REDUCE/BCAST
    root).  ``nbytes`` is the message payload.  ``requests`` names the
    non-blocking requests a WAIT/WAITALL completes: ISEND/IRECV sites tag
    their request with their own ``req`` label, and WAIT/WAITALL list the
    labels they complete (empty = all outstanding).
    """

    __slots__ = ("op", "peer", "source", "nbytes", "tag", "req", "requests", "root")

    def __init__(
        self,
        op: CommOp,
        peer: Dyn = -1,
        nbytes: Dyn = 0,
        tag: int = 0,
        req: str = "",
        requests: Sequence[str] = (),
        root: int = 0,
        source: Optional[Dyn] = None,
        name: str = "",
        line: int = 0,
    ) -> None:
        super().__init__(name or op.value, line)
        self.op = op
        self.peer = peer
        #: SENDRECV only: the rank received from (MPI_Sendrecv's separate
        #: ``source`` argument); defaults to ``peer`` (symmetric exchange).
        self.source = source
        self.nbytes = nbytes
        self.tag = tag
        self.req = req
        self.requests: List[str] = list(requests)
        self.root = root


class ThreadCall(Node):
    """A threading or allocator call site.

    CREATE runs ``body`` (a list of nodes) on ``count`` spawned threads;
    JOIN waits for them.  MUTEX_* name a lock; ALLOC/REALLOC/DEALLOC model
    heap calls that serialize on the process allocator lock, with
    ``hold`` simulated seconds inside the lock.
    """

    __slots__ = ("op", "body", "count", "lock", "hold")

    def __init__(
        self,
        op: ThreadOp,
        body: Sequence[Node] = (),
        count: Dyn = 0,
        lock: str = "",
        hold: Dyn = 0.0,
        name: str = "",
        line: int = 0,
    ) -> None:
        super().__init__(name or op.value, line)
        self.op = op
        self.body: List[Node] = list(body)
        self.count = count
        self.lock = lock
        self.hold = hold

    def children(self) -> Sequence[Node]:
        return self.body


@dataclass
class Function:
    """A named function with a body of IR nodes and debug info."""

    name: str
    body: List[Node]
    source_file: str = "<unknown>"
    line: int = 0


@dataclass
class Program:
    """A complete modelled program ("the binary").

    ``code_kloc`` and ``language``/``models`` feed the binary-size and
    static-analysis cost models (Table 1 / Table 2 columns that describe
    the program itself rather than the PAG).
    """

    name: str
    entry: str = "main"
    code_kloc: float = 1.0
    language: str = "C"
    models: List[str] = field(default_factory=lambda: ["MPI"])
    metadata: Dict[str, Any] = field(default_factory=dict)
    functions: Dict[str, Function] = field(default_factory=dict)
    _uid_counter: itertools.count = field(default_factory=itertools.count, repr=False)

    def add_function(self, func: Function) -> Function:
        """Register a function and assign uids to all its nodes."""
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        self.register_nodes(func.body)
        return func

    def register_nodes(self, nodes: Sequence[Node]) -> None:
        """Assign uids to ``nodes`` and their descendants, last child
        first; a node that has one keeps it."""
        stack: List[Node] = list(nodes)
        while stack:
            node = stack.pop()
            if node.uid == -1:
                node.uid = next(self._uid_counter)
            stack.extend(node.children())

    def pad(self, padding: Padding) -> None:
        """Append ``padding`` to ``main`` with the per-node form's uids."""
        self._uid_counter = itertools.count(padding.take_uids(next(self._uid_counter)))
        self.entry_function.body.append(padding)

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"program {self.name!r} has no function {name!r}") from None

    @property
    def entry_function(self) -> Function:
        return self.function(self.entry)

    def node_count(self) -> int:
        """Total IR nodes across all functions (pre-inlining)."""
        total = 0
        for func in self.functions.values():
            stack: List[Node] = list(func.body)
            while stack:
                node = stack.pop()
                total += 1 + (node.hidden_nodes if isinstance(node, Padding) else 0)
                stack.extend(node.children())
        return total
