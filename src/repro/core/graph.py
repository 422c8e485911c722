"""Fully-parallel dependence-graph IR.

The paper describes algorithms by their *fully-parallel dependence graph*
(Section 1): nodes are operations, edges are data communications, all loops
are unfolded, all inputs/outputs are available in parallel, and every
operation takes unit time.  This module provides that IR.

Node kinds
----------
``INPUT``
    A primary input of the algorithm (one element of the input matrix).
``CONST``
    A compile-time constant (e.g. the always-1 diagonal of the adjacency
    matrix after Fig. 11's simplification).
``OP``
    A computation node.  Each op node carries an ``opcode`` naming its
    semantics (resolved by :mod:`repro.core.evaluate`) and a set of operand
    *roles* (named input ports).  The transitive-closure primitive is the
    semiring multiply-accumulate ``mac: out = a (+) (b (x) c)``.
``PASS``
    A data-transmission node: forwards its single operand unchanged.  Pass
    nodes are what broadcasting turns into after the pipelining
    transformation of Fig. 4a / Fig. 12 — they occupy an array slot but do
    no arithmetic.
``DELAY``
    A pure timing node inserted by the regularization transformation
    (Fig. 4b / Fig. 15); semantically identical to ``PASS`` but accounted
    separately because it exists only to equalise path lengths.
``OUTPUT``
    A primary output (one element of the result matrix).

Output ports
------------
Systolic cells *forward* their operands: a cell that computes
``a (+) (b (x) c)`` also passes ``b`` and ``c`` on to its neighbours.  An
op node therefore exposes output port ``"out"`` (its result) plus one port
per operand role (the forwarded operand).  Operand references are plain
node ids (shorthand for the producer's ``"out"`` port) or
:class:`PortRef` objects naming a forwarding port.

Positions
---------
Every node may carry a ``pos`` attribute — a tuple of coordinates giving
the node a place in the drawing the paper reasons about (for transitive
closure: ``(level k, row, col)``).  Transformations rewrite positions;
analyses (flow direction, regularity) read them.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Iterator, KeysView, Mapping

__all__ = [
    "NodeKind",
    "Axis",
    "OP_ROLES",
    "DependenceGraph",
    "GraphError",
    "PortRef",
    "port",
    "node_counts",
]

NodeId = Hashable


class GraphError(ValueError):
    """Raised when a dependence graph violates a structural invariant."""


class NodeKind(enum.Enum):
    """The role a node plays in the dependence graph."""

    INPUT = "input"
    CONST = "const"
    OP = "op"
    PASS = "pass"
    DELAY = "delay"
    OUTPUT = "output"

    @property
    def is_compute(self) -> bool:
        """True for nodes that perform arithmetic (occupy a PE usefully)."""
        return self is NodeKind.OP

    @property
    def occupies_slot(self) -> bool:
        """True for nodes that consume one array cell-cycle when executed."""
        return self in (NodeKind.OP, NodeKind.PASS, NodeKind.DELAY)


class Axis(str, enum.Enum):
    """Communication-direction tag for an edge (drawing semantics)."""

    VERTICAL = "vertical"  # within a level, down the rows
    HORIZONTAL = "horizontal"  # within a level, along a row
    DIAGONAL = "diagonal"  # within a level, along a diagonal
    LEVEL = "level"  # between consecutive levels (k -> k+1)
    IO = "io"  # to/from the host
    BROADCAST = "broadcast"  # one-to-many fan-out (pre-transformation)


#: Operand roles required by each opcode, in canonical order.
OP_ROLES: dict[str, tuple[str, ...]] = {
    # semiring multiply-accumulate: out = a (+) (b (x) c)
    "mac": ("a", "b", "c"),
    # field ops used by the Section 4.3 workloads (LU, Givens, Faddeev...)
    "add": ("a", "b"),
    "sub": ("a", "b"),
    "mul": ("a", "b"),
    "div": ("a", "b"),
    # out = a - b*c (Gaussian elimination inner update)
    "msub": ("a", "b", "c"),
    # Givens rotation generation: emits the (c, s) pair as one value
    "rotg": ("a", "b"),
    # Givens rotation application halves: out = c*a + s*b / -s*a + c*b
    "rota": ("a", "b", "r"),
    "rotb": ("a", "b", "r"),
    # unary negate / reciprocal
    "neg": ("a",),
    "recip": ("a",),
}


@dataclass(frozen=True)
class PortRef:
    """Reference to a specific output port of a node.

    Plain node ids are shorthand for their ``"out"`` port; use
    :func:`port` to read a forwarded operand instead.
    """

    node: Hashable
    port: str = "out"


def port(nid: Hashable, name: str) -> PortRef:
    """Reference output port ``name`` of node ``nid``."""
    return PortRef(nid, name)


def _split_source(src: Hashable) -> tuple[Hashable, str]:
    """Normalise a source reference to ``(node id, port name)``."""
    if isinstance(src, PortRef):
        return src.node, src.port
    return src, "out"


@dataclass(frozen=True)
class NodeView:
    """Immutable snapshot of one node's attributes (convenience accessor)."""

    id: NodeId
    kind: NodeKind
    opcode: str | None
    pos: tuple | None
    comp_time: int
    tag: str | None
    value: Any


class DependenceGraph:
    """A fully-parallel dependence graph stored as plain adjacency dicts.

    Each node has an attribute record (``kind``, ``operands`` and the
    optional ``opcode``/``pos``/``comp_time``/``tag``/``value``/``draw``
    attributes); ``operands`` maps role -> ``(producer id, producer
    port)`` and is the source of truth for wiring.  The successor and
    predecessor indexes mirror it with parallel operand edges collapsed
    into one structural edge, and are used for traversal and ordering.
    Every map keeps insertion order, so iteration is deterministic.

    The class enforces single assignment (each node added once), port
    completeness for op nodes, and acyclicity (checked by
    :meth:`validate` / :meth:`topological_order`).

    Freeze contract: a graph is mutable while a front-end or
    transformation builds it; :meth:`freeze` then seals it, after which
    every mutator raises :class:`GraphError`.  Only a frozen graph
    caches its derived structure -- the topological order with each
    node's index in it, the per-port consumer index and the structural
    digest -- so every layer shares one computation and no cache can
    outlive a mutation.  :meth:`copy` returns an unfrozen graph.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: dict[NodeId, dict[str, Any]] = {}
        self._succ: dict[NodeId, dict[NodeId, Axis | None]] = {}
        self._pred: dict[NodeId, dict[NodeId, None]] = {}
        self._n_edges = 0
        self._inputs: list[NodeId] = []
        self._outputs: list[NodeId] = []
        self._frozen = False
        self._topo: tuple[NodeId, ...] | None = None
        self._topo_index: dict[NodeId, int] | None = None
        self._consumer_index: dict[NodeId, tuple[tuple[NodeId, str, str], ...]] | None = None
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def freeze(self) -> "DependenceGraph":
        """Seal the graph against mutation; returns ``self``."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has sealed the graph."""
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError(
                f"graph {self.name!r} is frozen; mutate a copy() instead"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_node(self, nid: NodeId, kind: NodeKind, **attrs: Any) -> NodeId:
        self._check_mutable()
        if nid in self._nodes:
            raise GraphError(f"node {nid!r} added twice")
        self._nodes[nid] = {"kind": kind, "operands": {}, **attrs}
        self._succ[nid] = {}
        self._pred[nid] = {}
        return nid

    def add_input(self, nid: NodeId, pos: tuple | None = None, tag: str | None = None) -> NodeId:
        """Add a primary-input node."""
        self._add_node(nid, NodeKind.INPUT, pos=pos, tag=tag, comp_time=0)
        self._inputs.append(nid)
        return nid

    def add_const(self, nid: NodeId, value: Any, pos: tuple | None = None) -> NodeId:
        """Add a constant node carrying ``value``."""
        return self._add_node(nid, NodeKind.CONST, value=value, pos=pos, comp_time=0)

    def add_op(
        self,
        nid: NodeId,
        opcode: str,
        operands: Mapping[str, "NodeId | PortRef"],
        pos: tuple | None = None,
        comp_time: int = 1,
        tag: str | None = None,
        axes: Mapping[str, Axis | str] | None = None,
    ) -> NodeId:
        """Add a computation node.

        Parameters
        ----------
        opcode:
            Key into :data:`OP_ROLES`.
        operands:
            Mapping from role name to the producer (node id or
            :class:`PortRef`); must supply exactly the roles the opcode
            requires.
        axes:
            Optional per-role communication-axis tags.
        """
        roles = OP_ROLES.get(opcode)
        if roles is None:
            raise GraphError(f"unknown opcode {opcode!r}")
        if set(operands) != set(roles):
            raise GraphError(
                f"opcode {opcode!r} requires roles {roles}, got {tuple(operands)}"
            )
        self._add_node(nid, NodeKind.OP, opcode=opcode, pos=pos, comp_time=comp_time, tag=tag)
        axes = axes or {}
        for role, src in operands.items():
            self._wire(src, nid, role=role, axis=axes.get(role))
        return nid

    def add_pass(
        self,
        nid: NodeId,
        src: "NodeId | PortRef",
        pos: tuple | None = None,
        axis: Axis | str | None = None,
        kind: NodeKind = NodeKind.PASS,
        tag: str | None = None,
    ) -> NodeId:
        """Add a pass-through (or, with ``kind=DELAY``, a delay) node."""
        if kind not in (NodeKind.PASS, NodeKind.DELAY):
            raise GraphError(f"add_pass kind must be PASS or DELAY, got {kind}")
        self._add_node(nid, kind, pos=pos, comp_time=1, tag=tag)
        self._wire(src, nid, role="a", axis=axis)
        return nid

    def add_delay(
        self,
        nid: NodeId,
        src: "NodeId | PortRef",
        pos: tuple | None = None,
        axis: Axis | str | None = None,
        tag: str | None = None,
    ) -> NodeId:
        """Add a delay node (regularization padding, Fig. 4b / Fig. 15)."""
        return self.add_pass(nid, src, pos=pos, axis=axis, kind=NodeKind.DELAY, tag=tag)

    def add_output(
        self,
        nid: NodeId,
        src: "NodeId | PortRef",
        pos: tuple | None = None,
        tag: str | None = None,
    ) -> NodeId:
        """Add a primary-output node fed by ``src``."""
        self._add_node(nid, NodeKind.OUTPUT, pos=pos, tag=tag, comp_time=0)
        self._wire(src, nid, role="a", axis=Axis.IO)
        self._outputs.append(nid)
        return nid

    def _check_source(self, src: Hashable, dst: NodeId) -> tuple[Hashable, str]:
        """Validate a producer reference for ``dst``; returns ``(node, port)``."""
        src_node, src_port = _split_source(src)
        d = self._nodes.get(src_node)
        if d is None:
            raise GraphError(f"edge from unknown node {src_node!r}")
        if src_node == dst:
            # A node consuming its own output has no legal firing time;
            # graph-level self-loops are always a construction bug.
            # (Relation-level self-loops in *datasets* are fine — they
            # become diagonal matrix entries, never FPDG edges; see
            # repro.datasets.core.)
            raise GraphError(
                f"self-loop: node {dst!r} cannot consume its own output"
            )
        if src_port != "out" and (
            d["kind"] is not NodeKind.OP or src_port not in OP_ROLES[d["opcode"]]
        ):
            raise GraphError(
                f"node {src_node!r} has no output port {src_port!r} "
                f"(available: {self.output_ports(src_node)})"
            )
        return src_node, src_port

    def _wire(
        self, src: Hashable, dst: NodeId, role: str, axis: Axis | str | None
    ) -> None:
        ref = self._check_source(src, dst)
        if isinstance(axis, str) and not isinstance(axis, Axis):
            axis = Axis(axis)
        self._nodes[dst]["operands"][role] = ref
        succ = self._succ[ref[0]]
        if dst not in succ:
            succ[dst] = axis
            self._pred[dst][ref[0]] = None
            self._n_edges += 1

    def rewire(self, dst: NodeId, role: str, new_src: "NodeId | PortRef") -> None:
        """Re-point operand ``role`` of ``dst`` at a different producer.

        Used by transformations (e.g. broadcast serialization re-points a
        consumer at its upstream neighbour's forwarding port).  Nothing
        changes when the new producer is rejected.
        """
        self._check_mutable()
        ops = self._nodes[dst]["operands"]
        if role not in ops:
            raise GraphError(f"node {dst!r} has no operand role {role!r}")
        self._check_source(new_src, dst)
        old_node, _ = ops.pop(role)
        # Drop the structural edge if no other role still uses it.
        if all(s != old_node for s, _ in ops.values()):
            self._remove_edge(old_node, dst)
        self._wire(new_src, dst, role=role, axis=None)

    def _remove_edge(self, u: NodeId, v: NodeId) -> None:
        del self._succ[u][v]
        del self._pred[v][u]
        self._n_edges -= 1

    def remove_node(self, nid: NodeId) -> None:
        """Remove ``nid`` (callers must have rewired its consumers first)."""
        self._check_mutable()
        consumers = list(self._succ[nid])
        if consumers:
            raise GraphError(f"cannot remove {nid!r}: still feeds {consumers[:3]}")
        for pred in list(self._pred[nid]):
            self._remove_edge(pred, nid)
        del self._nodes[nid], self._succ[nid], self._pred[nid]
        if nid in self._inputs:
            self._inputs.remove(nid)
        if nid in self._outputs:
            self._outputs.remove(nid)

    def set_pos(self, nid: NodeId, pos: tuple) -> None:
        """Reposition ``nid`` (used by the flip transformations)."""
        self.set_attr(nid, "pos", pos)

    def set_attr(self, nid: NodeId, name: str, value: Any) -> None:
        """Set attribute ``name`` of node ``nid`` (not its kind or wiring)."""
        self._check_mutable()
        if name in ("kind", "operands"):
            raise GraphError(f"attribute {name!r} is fixed at construction")
        self._nodes[nid][name] = value

    def output_ports(self, nid: NodeId) -> tuple[str, ...]:
        """Output ports exposed by ``nid`` (see module docstring)."""
        d = self._nodes[nid]
        if d["kind"] is NodeKind.OP:
            return ("out",) + OP_ROLES[d["opcode"]]
        return ("out",)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[NodeId, ...]:
        """Primary inputs in insertion order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[NodeId, ...]:
        """Primary outputs in insertion order."""
        return tuple(self._outputs)

    @property
    def nodes(self) -> Mapping[NodeId, Mapping[str, Any]]:
        """Read-only map node id -> attribute record, in insertion order.

        The hot loops of the simulators, compiler and analyses read
        records through this map; records must not be modified.
        """
        return MappingProxyType(self._nodes)

    def kind(self, nid: NodeId) -> NodeKind:
        """Kind of node ``nid``."""
        return self._nodes[nid]["kind"]

    def node(self, nid: NodeId) -> NodeView:
        """An immutable attribute snapshot for ``nid``."""
        d = self._nodes[nid]
        return NodeView(
            id=nid,
            kind=d["kind"],
            opcode=d.get("opcode"),
            pos=d.get("pos"),
            comp_time=d.get("comp_time", 1),
            tag=d.get("tag"),
            value=d.get("value"),
        )

    def pos(self, nid: NodeId) -> tuple | None:
        """Drawing position of ``nid`` (or None)."""
        return self._nodes[nid].get("pos")

    def operands(self, nid: NodeId) -> dict[str, tuple[NodeId, str]]:
        """Mapping role -> ``(producer id, producer port)``."""
        return dict(self._nodes[nid]["operands"])

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Structural edges ``(producer, consumer)``, producers in node order."""
        for u, succ in self._succ.items():
            for v in succ:
                yield u, v

    def edge_axis(self, u: NodeId, v: NodeId) -> Axis | None:
        """Communication-axis tag of the structural edge ``u -> v``."""
        return self._succ[u][v]

    def number_of_edges(self) -> int:
        """Structural edges (parallel operand edges collapsed)."""
        return self._n_edges

    def successors(self, nid: NodeId) -> KeysView[NodeId]:
        """Nodes reading some port of ``nid``, in first-wire order."""
        return self._succ[nid].keys()

    def predecessors(self, nid: NodeId) -> KeysView[NodeId]:
        """Nodes ``nid`` reads some port of."""
        return self._pred[nid].keys()

    def consumers(self, nid: NodeId, out_port: str | None = None) -> list[tuple[NodeId, str]]:
        """Consumers of ``nid``: list of ``(consumer id, role)``.

        With ``out_port`` given, only consumers reading that port.
        Consumers come in first-wire order, roles in operand order.
        """
        if self._frozen:
            if self._consumer_index is None:
                self._consumer_index = {n: self._scan_consumers(n) for n in self._succ}
            found = self._consumer_index[nid]
        else:
            found = self._scan_consumers(nid)
        return [(c, role) for c, role, p in found if out_port is None or p == out_port]

    def _scan_consumers(self, nid: NodeId) -> tuple[tuple[NodeId, str, str], ...]:
        """``(consumer, role, port)`` for every operand reading ``nid``."""
        return tuple(
            (succ, role, sport)
            for succ in self._succ[nid]
            for role, (src, sport) in self._nodes[succ]["operands"].items()
            if src == nid
        )

    def nodes_of_kind(self, *kinds: NodeKind) -> Iterator[NodeId]:
        """Iterate node ids whose kind is in ``kinds``."""
        want = set(kinds)
        for nid, d in self._nodes.items():
            if d["kind"] in want:
                yield nid

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, nid: NodeId) -> bool:
        return nid in self._nodes

    def __repr__(self) -> str:  # noqa: D105
        c = node_counts(self)
        return (
            f"<DependenceGraph {self.name!r}: {c[NodeKind.OP]} ops, "
            f"{c[NodeKind.PASS]} passes, {c[NodeKind.DELAY]} delays, "
            f"{c[NodeKind.INPUT]} in, {c[NodeKind.OUTPUT]} out>"
        )

    # ------------------------------------------------------------------
    # Structural checks and shared derived structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the invariants every stage of the pipeline must keep.

        * acyclic (the FPDG has all loops unfolded);
        * every op node has exactly the ports its opcode requires;
        * pass/delay/output nodes have exactly one operand;
        * source nodes (inputs/constants) have none.
        """
        cycle = self.find_cycle()
        if cycle is not None:
            raise GraphError(f"graph has a cycle: {cycle[:4]}...")
        for nid, d in self._nodes.items():
            kind, operands = d["kind"], d["operands"]
            if kind is NodeKind.OP:
                roles = set(OP_ROLES[d["opcode"]])
                if set(operands) != roles:
                    raise GraphError(
                        f"op {nid!r} ({d['opcode']}) has ports {set(operands)}, "
                        f"needs {roles}"
                    )
            elif kind in (NodeKind.INPUT, NodeKind.CONST):
                if operands:
                    raise GraphError(f"source node {nid!r} has operands")
            elif len(operands) != 1:
                raise GraphError(
                    f"{kind.value} node {nid!r} has {len(operands)} operands"
                )

    def find_cycle(self) -> list[tuple[NodeId, NodeId]] | None:
        """The edges of one directed cycle, or None when acyclic.

        Depth-first from each unvisited node in insertion order; the
        cycle is reported from the first node the search re-entered.
        """
        try:
            self.topological_order()
            return None
        except GraphError:
            pass
        done: set[NodeId] = set()
        for root in self._nodes:
            if root in done:
                continue
            path: list[NodeId] = [root]
            on_path = {root}
            stack = [iter(self._succ[root])]
            while stack:
                child = next(stack[-1], None)
                if child is None:
                    stack.pop()
                    done.add(path[-1])
                    on_path.discard(path.pop())
                elif child in on_path:
                    loop = path[path.index(child):] + [child]
                    return list(zip(loop, loop[1:]))
                elif child not in done:
                    path.append(child)
                    on_path.add(child)
                    stack.append(iter(self._succ[child]))
        return None

    def topological_order(self) -> tuple[NodeId, ...]:
        """Nodes in topological order (raises :class:`GraphError` on a cycle).

        Kahn's algorithm by generations: each generation lists its nodes
        in the order they became ready, roots in insertion order and
        children in first-wire order.  This is the order
        ``networkx.topological_sort`` produces on the same wiring; slot
        numbering, violation order and plan digests all depend on it.
        """
        if self._topo is not None:
            return self._topo
        succ = self._succ
        indegree = {nid: len(p) for nid, p in self._pred.items() if p}
        generation = [nid for nid, p in self._pred.items() if not p]
        order: list[NodeId] = []
        while generation:
            order.extend(generation)
            ready = []
            for nid in generation:
                for child in succ[nid]:
                    left = indegree[child] - 1
                    if left:
                        indegree[child] = left
                    else:
                        del indegree[child]
                        ready.append(child)
            generation = ready
        if indegree:
            raise GraphError("graph has a cycle")
        topo = tuple(order)
        if self._frozen:
            self._topo = topo
        return topo

    def topological_index(self) -> Mapping[NodeId, int]:
        """Position of every node in :meth:`topological_order`."""
        if self._topo_index is not None:
            return self._topo_index
        index = {nid: i for i, nid in enumerate(self.topological_order())}
        if self._frozen:
            self._topo_index = index
        return index

    def digest(self) -> str:
        """Stable SHA-256 digest of the wiring, kinds and node payloads.

        The compiled-plan cache keys on it; it is computed once per
        frozen graph (and afresh on every call while unfrozen).
        """
        if self._digest is not None:
            return self._digest
        h = hashlib.sha256()
        nodes = self._nodes
        for nid in self.topological_order():
            d = nodes[nid]
            h.update(
                repr(
                    (
                        nid,
                        d["kind"].name,
                        d.get("opcode"),
                        d.get("value"),
                        d.get("tag"),
                        tuple(d["operands"].items()),
                    )
                ).encode()
            )
        h.update(repr((tuple(self._inputs), tuple(self._outputs))).encode())
        digest = h.hexdigest()
        if self._frozen:
            self._digest = digest
        return digest

    def critical_path_length(self) -> int:
        """Length (in unit-time node executions) of the longest path.

        The paper: a direct pipelined implementation of the graph has
        minimum delay *determined by the longest path in the graph*.  Only
        slot-occupying nodes contribute time.
        """
        dist: dict[NodeId, int] = {}
        for nid in self.topological_order():
            t = 1 if self._nodes[nid]["kind"].occupies_slot else 0
            preds = self._pred[nid]
            dist[nid] = t + (max(dist[p] for p in preds) if preds else 0)
        return max(dist.values(), default=0)

    # ------------------------------------------------------------------
    # Copy
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "DependenceGraph":
        """Unfrozen deep structural copy (records and operand maps copied).

        Successor order is preserved; predecessor maps are rebuilt in
        producer order.
        """
        out = DependenceGraph(name or self.name)
        out._nodes = {
            nid: {**d, "operands": dict(d["operands"])}
            for nid, d in self._nodes.items()
        }
        out._succ = {nid: dict(succ) for nid, succ in self._succ.items()}
        out._pred = {nid: {} for nid in self._nodes}
        for u, succ in self._succ.items():
            for v in succ:
                out._pred[v][u] = None
        out._n_edges = self._n_edges
        out._inputs = list(self._inputs)
        out._outputs = list(self._outputs)
        return out


def node_counts(dg: DependenceGraph) -> dict[NodeKind, int]:
    """Histogram of node kinds (Fig. 10/11 bookkeeping)."""
    counts = {k: 0 for k in NodeKind}
    for d in dg.nodes.values():
        counts[d["kind"]] += 1
    return counts
