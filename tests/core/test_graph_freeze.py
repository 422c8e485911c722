"""The freeze contract of the dependence-graph IR.

Front-ends and transformations hand out frozen graphs.  A frozen graph
rejects every mutator and computes its derived structure (topological
order, each node's index in it, consumer index, digest) once; an unfrozen
graph caches none of it, so no memo can outlive a mutation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms.transitive_closure import make_inputs, tc_pruned, tc_regular
from repro.arrays.cycle_sim import simulate
from repro.arrays.vector_compile import clear_compiled_cache
from repro.arrays.vector_sim import simulate_vector
from repro.core.graph import DependenceGraph, GraphError, NodeKind, PortRef
from repro.core.partitioner import partition_transitive_closure
from repro.core.transform import pipeline_broadcasts


def _swap_producers(dg: DependenceGraph, o1, o2) -> None:
    (r1,) = dg.operands(o1).values()
    (r2,) = dg.operands(o2).values()
    dg.rewire(o1, "a", PortRef(*r2))
    dg.rewire(o2, "a", PortRef(*r1))


def _cached(dg: DependenceGraph) -> list:
    return [dg._topo, dg._topo_index, dg._consumer_index, dg._digest]


def test_front_ends_and_transforms_hand_out_frozen_graphs() -> None:
    assert tc_regular(4).frozen
    assert pipeline_broadcasts(tc_pruned(4)).frozen
    assert not tc_regular(4).copy().frozen


@pytest.mark.parametrize(
    "mutate",
    [
        lambda dg: dg.add_input(("in", 99, 99)),
        lambda dg: dg.add_const("k", True),
        lambda dg: dg.add_op("m", "mac", {"a": ("in", 0, 0), "b": ("in", 0, 1),
                                          "c": ("in", 1, 0)}),
        lambda dg: dg.add_pass("p", ("in", 0, 0)),
        lambda dg: dg.add_delay("d", ("in", 0, 0)),
        lambda dg: dg.add_output("o", ("in", 0, 0)),
        lambda dg: dg.rewire(("out", 0, 0), "a", ("in", 0, 0)),
        lambda dg: dg.remove_node(("out", 0, 0)),
        lambda dg: dg.set_pos(("cell", 0, 0, 0), (9, 9, 9)),
        lambda dg: dg.set_attr(("cell", 0, 0, 0), "tag", "x"),
    ],
)
def test_every_mutator_rejects_a_frozen_graph(mutate) -> None:
    dg = tc_regular(3)
    before = (len(dg), dg.number_of_edges(), dg.digest())
    with pytest.raises(GraphError, match="frozen"):
        mutate(dg)
    assert (len(dg), dg.number_of_edges(), dg.digest()) == before


def test_rewire_after_vector_simulation_raises() -> None:
    """Regression: the vector backend replayed a stale cached plan.

    Swapping two output producers with the public ``rewire`` changed the
    reference answer while the vector backend kept replaying the plan
    cached under the graph's memoized digest.  The graph is now frozen,
    so the swap itself is refused.
    """
    impl = partition_transitive_closure(6, 3)
    a = np.random.default_rng(1).random((6, 6)) < 0.3
    before = impl.simulate(a, backend="vector")
    with pytest.raises(GraphError, match="frozen"):
        _swap_producers(impl.dg, ("out", 0, 0), ("out", 0, 5))
    assert impl.simulate(a, backend="vector").outputs == before.outputs


def test_mutated_copy_compiles_its_own_plan() -> None:
    """The supported route: mutate a copy; both backends see the change."""
    clear_compiled_cache()
    impl = partition_transitive_closure(6, 3)
    ep = impl.exec_plan
    a = np.eye(6, dtype=bool)
    a[0, 5] = True  # out[0][0] and out[0][5] now differ
    inputs = make_inputs(a)
    simulate_vector(ep, impl.dg, inputs)
    cp = impl.dg.copy()
    _swap_producers(cp, ("out", 0, 0), ("out", 0, 5))
    assert cp.digest() != impl.dg.digest()
    ref = simulate(ep, cp, inputs)
    vec = simulate_vector(ep, cp, inputs)
    assert vec.outputs == ref.outputs
    orig = simulate(ep, impl.dg, inputs).outputs
    assert ref.outputs[("out", 0, 0)] == orig[("out", 0, 5)]
    assert ref.outputs[("out", 0, 5)] == orig[("out", 0, 0)]


def test_unfrozen_graph_caches_nothing() -> None:
    dg = DependenceGraph("open")
    dg.add_input("x")
    dg.add_pass("p", "x")
    dg.add_pass("q", "x")
    dg.add_output("o", "p")
    assert dg.topological_order() == ("x", "p", "q", "o")
    index = dict(dg.topological_index())
    assert dg.consumers("x") == [("p", "a"), ("q", "a")]
    digest = dg.digest()
    assert _cached(dg) == [None, None, None, None]
    dg.rewire("q", "a", "p")
    assert dg.topological_order() == ("x", "p", "o", "q")
    assert dg.topological_index() != index
    assert dg.consumers("x") == [("p", "a")]
    assert dg.consumers("p") == [("o", "a"), ("q", "a")]
    assert dg.digest() != digest
    assert _cached(dg) == [None, None, None, None]


def test_frozen_graph_computes_shared_structure_once() -> None:
    dg = tc_regular(4)
    order = dg.topological_order()
    assert dg.topological_order() is order
    assert dg.topological_index() is dg.topological_index()
    assert [dg.topological_index()[nid] for nid in order] == list(range(len(dg)))
    assert dg.digest() == dg.digest() == dg._digest
    dg.consumers(("in", 0, 0))
    index = dg._consumer_index
    assert index is not None
    dg.consumers(("cell", 0, 0, 0), "b")
    assert dg._consumer_index is index


def test_frozen_consumer_index_matches_scan() -> None:
    frozen = tc_regular(4)
    scan = frozen.copy()
    for nid in frozen.nodes:
        for p in (None,) + frozen.output_ports(nid):
            assert frozen.consumers(nid, p) == scan.consumers(nid, p)


def test_copy_preserves_wiring_and_kinds() -> None:
    dg = tc_regular(4)
    cp = dg.copy()
    assert list(cp.edges()) == list(dg.edges())
    assert cp.topological_order() == dg.topological_order()
    assert cp.digest() == dg.digest()
    assert list(cp.nodes_of_kind(NodeKind.DELAY)) == list(dg.nodes_of_kind(NodeKind.DELAY))


def test_frozen_graph_pickles_with_its_contract() -> None:
    dg = tc_regular(4)
    dg.digest()
    clone = pickle.loads(pickle.dumps(dg))
    assert clone.frozen
    assert clone.topological_order() == dg.topological_order()
    assert clone.digest() == dg.digest()
    with pytest.raises(GraphError, match="frozen"):
        clone.rewire(("out", 0, 0), "a", ("in", 0, 0))
