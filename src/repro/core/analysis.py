"""Dependence-graph analyses.

The transformations of Section 2 are *guided* by graph properties: the
presence of data broadcasting, bi-directional data flow, and irregular
communication patterns.  This module measures those properties so that

* the transformation pipeline can assert it actually removed them, and
* the benchmarks can print the before/after census (Figs. 10-16).

All geometric analyses read the ``pos`` attribute that algorithm front-ends
attach to nodes (for transitive closure: ``(level, row, col)``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import DependenceGraph, NodeId, NodeKind

__all__ = [
    "BroadcastReport",
    "FlowReport",
    "RegularityReport",
    "find_broadcasts",
    "flow_directions",
    "communication_patterns",
    "max_fanout",
    "is_pipelined",
    "long_edges",
]


@dataclass(frozen=True)
class BroadcastReport:
    """Census of data broadcasting in a graph.

    A *broadcast* is a produced value — identified by ``(producer node,
    output port)`` — consumed by more than ``fanout_threshold`` nodes: the
    property Fig. 4a's transformation removes by converting the fan-out
    into a pipeline chain.
    """

    sources: tuple[tuple[tuple[NodeId, str], int], ...]
    fanout_threshold: int

    @property
    def count(self) -> int:
        """Number of broadcast sources."""
        return len(self.sources)

    @property
    def total_fanout(self) -> int:
        """Total number of broadcast destination edges."""
        return sum(f for _, f in self.sources)

    @property
    def max_fanout(self) -> int:
        """Largest single fan-out (drives wire-length in an implementation)."""
        return max((f for _, f in self.sources), default=0)


def find_broadcasts(dg: DependenceGraph, fanout_threshold: int = 2) -> BroadcastReport:
    """Find every value broadcast to more than ``fanout_threshold`` consumers.

    Fan-out is counted per *output port* of the producer: a systolic cell
    that sends its result to one neighbour and forwards each operand to one
    other neighbour is fully pipelined, not broadcasting.  Output nodes do
    not count as consumers (reading a result is not a communication the
    array must realise).
    """
    consumers: dict[tuple, set] = {}
    for nid, d in dg.nodes.items():
        if d["kind"] is NodeKind.OUTPUT:
            continue
        for ref in d["operands"].values():
            consumers.setdefault(ref, set()).add(nid)
    sources = [
        (src_port, len(nodes))
        for src_port, nodes in consumers.items()
        if len(nodes) > fanout_threshold
    ]
    sources.sort(key=lambda t: (-t[1], str(t[0])))
    return BroadcastReport(sources=tuple(sources), fanout_threshold=fanout_threshold)


def max_fanout(dg: DependenceGraph) -> int:
    """Largest non-output fan-out in the graph (1 == fully pipelined)."""
    report = find_broadcasts(dg, fanout_threshold=0)
    return report.max_fanout


@dataclass(frozen=True)
class FlowReport:
    """Census of data-flow directions along each position dimension.

    ``displacements[d]`` maps a signed direction (-1, 0, +1) to the number
    of edges whose position delta along dimension ``d`` has that sign.
    A dimension is *bi-directional* when both +1 and -1 occur — the
    property the flip transformations of Fig. 13 remove.
    """

    displacements: tuple[dict[int, int], ...]
    untagged_edges: int

    def bidirectional_dims(self) -> tuple[int, ...]:
        """Indices of position dimensions with flow in both directions."""
        dims = []
        for d, hist in enumerate(self.displacements):
            if hist.get(1, 0) > 0 and hist.get(-1, 0) > 0:
                dims.append(d)
        return tuple(dims)

    @property
    def is_unidirectional(self) -> bool:
        """True when no dimension carries flow in both directions."""
        return not self.bidirectional_dims()


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def flow_directions(
    dg: DependenceGraph,
    kinds: tuple[NodeKind, ...] = (NodeKind.OP, NodeKind.PASS, NodeKind.DELAY),
    wrap: tuple[int | None, ...] | None = None,
    pos_attr: str = "pos",
) -> FlowReport:
    """Direction census over edges between positioned, slot-occupying nodes.

    Parameters
    ----------
    kinds:
        Node kinds considered (I/O edges are excluded by default: the host
        connection is not an intra-array communication).
    wrap:
        Optional per-dimension modulus: a displacement of ``-(M-1)`` on a
        dimension with modulus ``M`` is a wrap-around, counted as ``+1``
        (cyclic layouts appear transiently between flip steps).
    pos_attr:
        Node attribute holding the coordinates; use ``"draw"`` to measure
        directions in the paper's drawing embedding (algorithm front-ends
        attach one) instead of logical ``(level, row, col)`` space.
    """
    ndim = 0
    hists: list[Counter] = []
    untagged = 0
    want = set(kinds)
    node_data = dg.nodes
    for u, v in dg.edges():
        du, dv = node_data[u], node_data[v]
        if du["kind"] not in want or dv["kind"] not in want:
            continue
        pu = du.get(pos_attr)
        pv = dv.get(pos_attr)
        if pu is None or pv is None:
            untagged += 1
            continue
        if len(pu) > ndim:
            for _ in range(len(pu) - ndim):
                hists.append(Counter())
            ndim = len(pu)
        for d in range(min(len(pu), len(pv))):
            delta = pv[d] - pu[d]
            if wrap is not None and d < len(wrap) and wrap[d]:
                m = wrap[d]
                delta = ((delta + m // 2) % m) - m // 2
            hists[d][_sign(delta)] += 1
    return FlowReport(
        displacements=tuple(dict(h) for h in hists), untagged_edges=untagged
    )


@dataclass(frozen=True)
class RegularityReport:
    """Census of per-node communication patterns.

    For each slot-occupying node we form its *stencil*: the sorted tuple of
    ``(role, position delta)`` pairs over its operand edges.  A graph is
    communication-regular (Fig. 16) when interior nodes share one stencil;
    the Fig. 15 irregularity shows up as several distinct stencils.
    """

    stencils: tuple[tuple[tuple, int], ...]  # (stencil, node count), desc by count

    @property
    def distinct(self) -> int:
        """Number of distinct stencils."""
        return len(self.stencils)

    @property
    def dominant_fraction(self) -> float:
        """Fraction of nodes using the most common stencil."""
        total = sum(c for _, c in self.stencils)
        if total == 0:
            return 1.0
        return self.stencils[0][1] / total


def communication_patterns(
    dg: DependenceGraph,
    kinds: tuple[NodeKind, ...] = (NodeKind.OP,),
    dims: tuple[int, ...] | None = None,
) -> RegularityReport:
    """Group nodes by their operand stencil (see :class:`RegularityReport`).

    ``dims`` restricts the delta to a subset of position dimensions (e.g.
    compare only intra-level geometry).
    """
    want = set(kinds)
    groups: Counter = Counter()
    for nid in dg.nodes:
        if dg.kind(nid) not in want:
            continue
        p = dg.pos(nid)
        if p is None:
            continue
        stencil = []
        for role, (src, _) in dg.operands(nid).items():
            ps = dg.pos(src)
            if ps is None:
                delta = ("?",)
            else:
                full = tuple(a - b for a, b in zip(p, ps))
                delta = tuple(full[i] for i in dims) if dims else full
            stencil.append((role, delta))
        groups[tuple(sorted(stencil))] += 1
    ordered = tuple(sorted(groups.items(), key=lambda kv: -kv[1]))
    return RegularityReport(stencils=ordered)


def is_pipelined(dg: DependenceGraph, fanout_threshold: int = 2) -> bool:
    """True when the graph has no broadcasting (Fig. 12 postcondition)."""
    return find_broadcasts(dg, fanout_threshold).count == 0


def long_edges(
    dg: DependenceGraph,
    max_len: int = 1,
    kinds: tuple[NodeKind, ...] = (NodeKind.OP, NodeKind.PASS, NodeKind.DELAY),
    dims: tuple[int, ...] | None = None,
    pos_attr: str = "pos",
) -> list[tuple[NodeId, NodeId, tuple]]:
    """Edges whose position delta exceeds ``max_len`` on some dimension.

    Long edges are the physical cost of the Fig. 15 irregularity: a
    consumer reading a producer that is not a nearest neighbour needs a
    wire spanning several cells.  The regularization transformation
    (Fig. 15c) replaces them with delay hops; this census quantifies the
    improvement.  ``dims`` restricts the check (e.g. to intra-level
    geometry); ``pos_attr`` selects the embedding, as in
    :func:`flow_directions` (neighbourhood is physical, so the drawing
    embedding is the right space when one is attached).
    """
    want = set(kinds)
    result = []
    for u, v in dg.edges():
        if dg.kind(u) not in want or dg.kind(v) not in want:
            continue
        pu = dg.nodes[u].get(pos_attr)
        pv = dg.nodes[v].get(pos_attr)
        if pu is None or pv is None:
            continue
        delta = tuple(b - a for a, b in zip(pu, pv))
        check = (delta[i] for i in dims) if dims else delta
        if any(abs(d) > max_len for d in check):
            result.append((u, v, delta))
    return result
