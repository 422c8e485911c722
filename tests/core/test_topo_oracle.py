"""Topological-order oracle: the IR's order equals networkx's.

Slot numbering, violation order and plan digests all follow
:meth:`DependenceGraph.topological_order`, so it must stay exactly the
order ``networkx.topological_sort`` gives on the same wiring (Kahn by
generations, roots in insertion order, children in first-wire order).
networkx is the independent oracle here: every graph is mirrored into
an ``nx.DiGraph`` edge by edge as it is wired.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.algorithms import transitive_closure as tc
from repro.algorithms.faddeev import faddeev_graph
from repro.algorithms.givens import givens_graph
from repro.algorithms.lu import lu_graph
from repro.algorithms.matmul import matmul_graph
from repro.algorithms.triangular_inverse import triangular_inverse_graph
from repro.core.graph import OP_ROLES, DependenceGraph, PortRef

FRONT_ENDS = {
    "tc_regular": lambda: tc.tc_regular(5),
    "tc_pruned": lambda: tc.tc_pruned(5),
    "tc_pipelined": lambda: tc.tc_pipelined(5),
    "tc_full": lambda: tc.tc_full(4),
    "tc_unidirectional": lambda: tc.tc_unidirectional(4),
    "matmul": lambda: matmul_graph(4),
    "matmul_rect": lambda: matmul_graph(2, 3, 4),
    "lu": lambda: lu_graph(5),
    "givens": lambda: givens_graph(4),
    "faddeev": lambda: faddeev_graph(3),
    "triangular_inverse": lambda: triangular_inverse_graph(5),
}


def _mirror_from_wiring(dg: DependenceGraph) -> nx.DiGraph:
    """Replay a rewire-free build: nodes in order, each wired on arrival."""
    mirror = nx.DiGraph()
    for nid, record in dg.nodes.items():
        mirror.add_node(nid)
        for src, _port in record["operands"].values():
            if not mirror.has_edge(src, nid):
                mirror.add_edge(src, nid)
    return mirror


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
def test_front_end_order_matches_networkx(name: str) -> None:
    dg = FRONT_ENDS[name]()
    mirror = _mirror_from_wiring(dg)
    assert list(dg.edges()) == list(mirror.edges)
    assert list(dg.topological_order()) == list(nx.topological_sort(mirror))


class Mirrored:
    """Apply each edit to the IR and, with networkx semantics, to a mirror."""

    def __init__(self) -> None:
        self.dg = DependenceGraph("mirrored")
        self.nx = nx.DiGraph()

    def _wire(self, src: PortRef, dst) -> None:
        if not self.nx.has_edge(src.node, dst):
            self.nx.add_edge(src.node, dst)

    def add_input(self, nid) -> None:
        self.dg.add_input(nid)
        self.nx.add_node(nid)

    def add_op(self, nid, operands: dict[str, PortRef]) -> None:
        self.dg.add_op(nid, "mac", operands)
        self.nx.add_node(nid)
        for ref in operands.values():
            self._wire(ref, nid)

    def add_pass(self, nid, src: PortRef) -> None:
        self.dg.add_pass(nid, src)
        self.nx.add_node(nid)
        self._wire(src, nid)

    def rewire(self, dst, role: str, src: PortRef) -> None:
        old = self.dg.operands(dst)[role][0]
        self.dg.rewire(dst, role, src)
        if all(s != old for r, (s, _) in self.dg.operands(dst).items() if r != role):
            self.nx.remove_edge(old, dst)
        self._wire(src, dst)

    def remove_node(self, nid) -> None:
        self.dg.remove_node(nid)
        self.nx.remove_node(nid)

    def copy(self) -> "Mirrored":
        out = Mirrored()
        out.dg, out.nx = self.dg.copy(), self.nx.copy()
        return out

    def check(self) -> None:
        assert list(self.dg.topological_order()) == list(nx.topological_sort(self.nx))
        assert list(self.dg.edges()) == list(self.nx.edges)
        for nid in self.nx:
            assert list(self.dg.successors(nid)) == list(self.nx.successors(nid))
            assert list(self.dg.predecessors(nid)) == list(self.nx.predecessors(nid))


def _random_source(rng: random.Random, g: Mirrored, before) -> PortRef:
    """A port of some node inserted before ``before`` (keeps the graph acyclic)."""
    nodes = list(g.dg.nodes)
    pool = nodes[: nodes.index(before)] if before in g.dg else nodes
    src = rng.choice(pool)
    ports = g.dg.output_ports(src)
    return PortRef(src, rng.choice(ports))


@pytest.mark.parametrize("seed", range(12))
def test_edited_graphs_match_networkx(seed: int) -> None:
    """Hand-built graphs edited by rewire/remove_node before freezing."""
    rng = random.Random(seed)
    g = Mirrored()
    for i in range(4):
        g.add_input(("in", i))
    # Insert nodes out of dependence order now and then, so roots and
    # first-wire order differ from plain insertion order.
    for i in range(40):
        nid = ("n", i)
        if rng.random() < 0.3:
            g.add_pass(nid, _random_source(rng, g, None))
        else:
            g.add_op(nid, {r: _random_source(rng, g, None) for r in OP_ROLES["mac"]})
    g.check()
    for _ in range(60):
        dst = rng.choice([n for n in g.dg.nodes if g.dg.operands(n)])
        role = rng.choice(sorted(g.dg.operands(dst)))
        g.rewire(dst, role, _random_source(rng, g, dst))
    g.check()
    for _ in range(8):
        sinks = [n for n in g.dg.nodes if not g.dg.successors(n)]
        g.remove_node(rng.choice(sinks))
    g.check()
    cp = g.copy()
    cp.check()
    for _ in range(20):
        dst = rng.choice([n for n in cp.dg.nodes if cp.dg.operands(n)])
        role = rng.choice(sorted(cp.dg.operands(dst)))
        cp.rewire(dst, role, _random_source(rng, cp, dst))
    cp.check()
    g.dg.freeze()
    g.check()
