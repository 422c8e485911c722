"""Cross-cutting property-based tests (hypothesis).

These check the invariants the whole reproduction leans on, over
randomised inputs: algebraic properties of the closure, structural
invariants of groupings and plans, legality of randomised schedules, and
generic semantics preservation of the rewrites on synthetic graphs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transitive_closure import make_inputs, tc_regular
from repro.algorithms.warshall import random_adjacency, warshall
from repro.core.analysis import max_fanout
from repro.core.evaluate import evaluate
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.graph import DependenceGraph
from repro.core.gsets import (
    make_linear_gsets,
    make_mesh_gsets,
    schedule_gsets,
    verify_schedule,
)
from repro.core.semiring import MIN_PLUS
from repro.core.transform import pipeline_broadcasts
from repro.arrays.cycle_sim import simulate
from repro.arrays.plan import partitioned_plan


# ----------------------------------------------------------------------
# Closure algebra
# ----------------------------------------------------------------------

@given(n=st.integers(2, 10), seed=st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_closure_monotone_in_edges(n: int, seed: int) -> None:
    """Adding an edge never removes reachability."""
    rng = np.random.default_rng(seed)
    a = random_adjacency(n, 0.25, seed=seed)
    c1 = warshall(a)
    i, j = rng.integers(0, n, size=2)
    b = a.copy()
    b[i, j] = True
    c2 = warshall(b)
    assert np.all(c2 | ~c1)  # c1 => c2


@given(n=st.integers(2, 9), seed=st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_closure_transitive(n: int, seed: int) -> None:
    """i->k and k->j in the closure imply i->j."""
    c = warshall(random_adjacency(n, 0.3, seed=seed))
    ci = c.astype(int)
    assert np.all(((ci @ ci) > 0) <= c)


@given(n=st.integers(2, 8), seed=st.integers(0, 200))
@settings(max_examples=20, deadline=None)
def test_min_plus_triangle_inequality(n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((n, n)) < 0.5,
                 rng.integers(1, 9, (n, n)).astype(float), np.inf)
    from repro.algorithms.warshall import floyd_warshall_reference

    d = floyd_warshall_reference(w)
    for k in range(n):
        assert np.all(d <= d[:, k][:, None] + d[k, :][None, :] + 1e-9)


# ----------------------------------------------------------------------
# Grouping / plan structural invariants
# ----------------------------------------------------------------------

@given(n=st.integers(3, 9))
@settings(max_examples=10, deadline=None)
def test_ggraph_partitions_slot_nodes(n: int) -> None:
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    members = [nid for gn in gg.gnodes.values() for nid in gn.members]
    assert len(members) == len(set(members))
    slot_nodes = [x for x in dg.nodes if dg.kind(x).occupies_slot]
    assert sorted(map(str, members)) == sorted(map(str, slot_nodes))
    # Edge weights account for every crossing primitive dependence.
    crossing = sum(
        1
        for u, v in dg.edges()
        if gg.node_of.get(u) is not None
        and gg.node_of.get(v) is not None
        and gg.node_of[u] != gg.node_of[v]
    )
    assert sum(d["weight"] for _, _, d in gg.g.edges(data=True)) == crossing


@given(
    n=st.integers(4, 9),
    m=st.integers(1, 6),
    aligned=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_linear_gsets_cover_exactly_once(n: int, m: int, aligned: bool) -> None:
    gg = GGraph(tc_regular(n), group_by_columns)
    plan = make_linear_gsets(gg, m, aligned=aligned)
    seen = [g for s in plan.gsets for g in s.gids]
    assert sorted(seen) == sorted(gg.gnodes)
    for s in plan.gsets:
        assert 1 <= len(s) <= m
        assert len(set(s.cells)) == len(s.cells)
        assert all(0 <= c < m for c in s.cells)


@given(n=st.integers(4, 9), side=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_mesh_gsets_cover_exactly_once(n: int, side: int) -> None:
    gg = GGraph(tc_regular(n), group_by_columns)
    plan = make_mesh_gsets(gg, side * side)
    seen = [g for s in plan.gsets for g in s.gids]
    assert sorted(seen) == sorted(gg.gnodes)


@given(
    n=st.integers(4, 8),
    m=st.integers(1, 5),
    key_seed=st.integers(0, 10**6),
)
@settings(max_examples=20, deadline=None)
def test_random_priority_schedules_are_legal(n, m, key_seed) -> None:
    """Any priority function yields a legal order (Kahn guarantees it)."""

    def random_key(sid):
        return (hash((sid, key_seed)) % 997,)

    gg = GGraph(tc_regular(n), group_by_columns)
    plan = make_linear_gsets(gg, m)
    order = schedule_gsets(plan, policy=random_key)
    verify_schedule(plan, order)


# ----------------------------------------------------------------------
# Simulator invariants
# ----------------------------------------------------------------------

@given(n=st.integers(4, 8), m=st.integers(2, 4), seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_simulation_deterministic(n, m, seed) -> None:
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, m)
    ep = partitioned_plan(plan, schedule_gsets(plan))
    env = make_inputs(random_adjacency(n, seed=seed))
    r1 = simulate(ep, dg, env)
    r2 = simulate(ep, dg, env)
    assert r1.outputs == r2.outputs
    assert r1.makespan == r2.makespan
    assert r1.memory_words == r2.memory_words


@given(n=st.integers(4, 8), m=st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_makespan_bounds(n, m) -> None:
    """Makespan is bounded below by work/m and the critical path."""
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, m)
    ep = partitioned_plan(plan, schedule_gsets(plan))
    env = make_inputs(random_adjacency(n, seed=0))
    res = simulate(ep, dg, env)
    assert res.makespan >= res.busy / m
    assert res.makespan >= dg.critical_path_length()
    assert res.busy == ep.busy_cycles()


@given(n=st.integers(4, 7), seed=st.integers(0, 100))
@settings(max_examples=8, deadline=None)
def test_min_plus_on_array_matches_reference(n, seed) -> None:
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((n, n)) < 0.4,
                 rng.integers(1, 9, (n, n)).astype(float), np.inf)
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, 3)
    ep = partitioned_plan(plan, schedule_gsets(plan))
    res = simulate(ep, dg, make_inputs(w, MIN_PLUS), MIN_PLUS)
    from repro.algorithms.warshall import floyd_warshall_reference

    assert np.array_equal(res.output_matrix(n, MIN_PLUS), floyd_warshall_reference(w))


# ----------------------------------------------------------------------
# Generic rewrites on synthetic broadcast graphs
# ----------------------------------------------------------------------

@st.composite
def broadcast_graphs(draw):
    """A random two-layer graph with one value broadcast to many macs."""
    n_inputs = draw(st.integers(2, 5))
    n_consumers = draw(st.integers(3, 8))
    dg = DependenceGraph("synthetic")
    for i in range(n_inputs):
        dg.add_input(("in", i), pos=(0, i))
    src = ("in", 0)
    for c in range(n_consumers):
        a = ("in", draw(st.integers(0, n_inputs - 1)))
        b = ("in", draw(st.integers(0, n_inputs - 1)))
        dg.add_op(("op", c), "mac", {"a": a, "b": b, "c": src}, pos=(1, c))
        dg.add_output(("out", c), ("op", c), pos=(2, c))
    return dg, n_inputs, n_consumers


@given(data=broadcast_graphs(), seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_pipeline_broadcasts_generic(data, seed) -> None:
    dg, n_inputs, n_consumers = data
    rng = np.random.default_rng(seed)
    env = {("in", i): bool(rng.integers(0, 2)) for i in range(n_inputs)}
    before = evaluate(dg, env)
    piped = pipeline_broadcasts(dg, fanout_threshold=1)
    piped.validate()
    after = evaluate(piped, env)
    assert before == after
    assert max_fanout(piped) <= max(1, max_fanout(dg) and 1)


@st.composite
def layered_graphs(draw):
    """Random multi-layer graphs with broadcasts at every layer."""
    layers = draw(st.integers(2, 4))
    width = draw(st.integers(2, 5))
    dg = DependenceGraph("layered")
    prev = []
    for i in range(width):
        nid = ("in", i)
        dg.add_input(nid, pos=(0, i))
        prev.append(nid)
    for layer in range(1, layers + 1):
        # one broadcast source per layer: the first value of the previous
        # layer feeds role c of every node here.
        src = prev[0]
        new = []
        for i in range(width):
            a = prev[draw(st.integers(0, width - 1))]
            b = prev[draw(st.integers(0, width - 1))]
            nid = ("op", layer, i)
            dg.add_op(nid, "mac", {"a": a, "b": b, "c": src}, pos=(layer, i))
            new.append(nid)
        prev = new
    for i, nid in enumerate(prev):
        dg.add_output(("out", i), nid, pos=(layers + 1, i))
    return dg, width


@given(data=layered_graphs(), seed=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_pipeline_broadcasts_multilayer(data, seed) -> None:
    """Generic rewrite on deep graphs: same function, fan-out gone."""
    dg, width = data
    rng = np.random.default_rng(seed)
    env = {("in", i): bool(rng.integers(0, 2)) for i in range(width)}
    before = evaluate(dg, env)
    piped = pipeline_broadcasts(dg, fanout_threshold=1)
    piped.validate()
    assert evaluate(piped, env) == before
    assert max_fanout(piped) <= 1


@given(
    n=st.integers(5, 10),
    m=st.integers(2, 4),
    rate_denom=st.integers(1, 12),
)
@settings(max_examples=12, deadline=None)
def test_rblock_chain_feasible_at_any_rate_with_preload(n, m, rate_denom) -> None:
    """With a free start time, every positive rate <= 1 is feasible."""
    from fractions import Fraction

    from repro.arrays.host import simulate_rblock_chain

    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, m)
    ep = partitioned_plan(plan, schedule_gsets(plan))
    res = simulate(ep, dg, make_inputs(random_adjacency(n, seed=0)))
    rep = simulate_rblock_chain(res, Fraction(1, rate_denom))
    assert rep.feasible
    assert rep.words == n * n


@given(n=st.integers(5, 9), m=st.integers(2, 4))
@settings(max_examples=10, deadline=None)
def test_rblock_preload_monotone_in_rate(n, m) -> None:
    """Slower hosts must start earlier (preload grows as rate drops)."""
    from fractions import Fraction

    from repro.arrays.host import simulate_rblock_chain

    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, m)
    ep = partitioned_plan(plan, schedule_gsets(plan))
    res = simulate(ep, dg, make_inputs(random_adjacency(n, seed=1)))
    starts = [
        simulate_rblock_chain(res, Fraction(1, d)).start_time for d in (1, 2, 4)
    ]
    assert starts == sorted(starts, reverse=True)
