"""Tests for the cycle-level simulator — the reproduction's ground truth."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transitive_closure import make_inputs, tc_regular
from repro.algorithms.warshall import random_adjacency, warshall
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.graph import GraphError
from repro.core.gsets import make_linear_gsets, make_mesh_gsets, schedule_gsets
from repro.core.metrics import evaluate_schedule, schedule_memory_traffic
from repro.arrays.cycle_sim import SimResult, SimulationError, simulate
from repro.arrays.plan import (
    fixed_array_plan,
    fixed_linear_plan,
    partitioned_plan,
)


def build(n, m, geometry="linear", aligned=True):
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    if geometry == "linear":
        plan = make_linear_gsets(gg, m, aligned=aligned)
    else:
        plan = make_mesh_gsets(gg, m)
    order = schedule_gsets(plan, "vertical")
    return dg, gg, plan, order, partitioned_plan(plan, order)


class TestCorrectness:
    @given(
        n=st.integers(4, 9),
        m=st.integers(1, 5),
        seed=st.integers(0, 100),
        aligned=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_linear_array_computes_closure(self, n, m, seed, aligned) -> None:
        dg, _, _, _, ep = build(n, m, aligned=aligned)
        a = random_adjacency(n, 0.35, seed=seed)
        res = simulate(ep, dg, make_inputs(a))
        assert res.ok, res.violations[:3]
        assert np.array_equal(res.output_matrix(n), warshall(a))

    @given(n=st.integers(5, 9), seed=st.integers(0, 100))
    @settings(max_examples=8, deadline=None)
    def test_mesh_array_computes_closure(self, n, seed) -> None:
        dg, _, _, _, ep = build(n, 4, geometry="mesh")
        a = random_adjacency(n, 0.35, seed=seed)
        res = simulate(ep, dg, make_inputs(a))
        assert res.ok
        assert np.array_equal(res.output_matrix(n), warshall(a))

    def test_fixed_arrays_compute_closure(self) -> None:
        n = 7
        dg = tc_regular(n)
        gg = GGraph(dg, group_by_columns)
        a = random_adjacency(n, seed=2)
        for mk in (fixed_array_plan, fixed_linear_plan):
            res = simulate(mk(gg), dg, make_inputs(a))
            assert res.ok
            assert np.array_equal(res.output_matrix(n), warshall(a))
            assert res.memory_words == 0  # everything neighbour-to-neighbour


class TestMeasurements:
    def test_memory_matches_schedule_prediction(self) -> None:
        for geometry in ("linear", "mesh"):
            dg, gg, plan, order, ep = build(9, 4 if geometry == "mesh" else 3,
                                            geometry=geometry)
            res = simulate(ep, dg, make_inputs(random_adjacency(9, seed=1)))
            assert res.memory_words == schedule_memory_traffic(plan, order)
            assert res.memory_reads >= res.memory_words

    def test_occupancy_matches_report(self) -> None:
        """Cycle-measured occupancy ~ schedule-level occupancy."""
        dg, gg, plan, order, ep = build(10, 5, aligned=False)
        res = simulate(ep, dg, make_inputs(random_adjacency(10, seed=3)))
        rep = evaluate_schedule(plan, order)
        # The cycle sim adds at most the skew drain (m-1 cycles).
        assert rep.total_time <= res.makespan <= rep.total_time + plan.m - 1
        assert abs(float(res.occupancy) - float(rep.occupancy)) < 0.1

    def test_useful_equals_computed_ops(self) -> None:
        n = 8
        dg, _, _, _, ep = build(n, 4)
        res = simulate(ep, dg, make_inputs(random_adjacency(n, seed=4)))
        assert res.useful == n * (n - 1) * (n - 2)

    def test_input_deadlines_cover_all_inputs(self) -> None:
        n = 7
        dg, _, _, _, ep = build(n, 4)
        res = simulate(ep, dg, make_inputs(random_adjacency(n, seed=5)))
        assert len(res.input_deadlines) == n * n
        assert set(res.input_cell_of) == set(res.input_deadlines)
        curve = res.io_demand_curve()
        assert curve[-1][1] == n * n

    def test_host_bandwidth_accessors(self) -> None:
        n, m = 12, 3
        dg, _, _, _, ep = build(n, m)
        res = simulate(ep, dg, make_inputs(random_adjacency(n, seed=6)))
        avg = float(res.average_host_bandwidth())
        assert 0 < avg <= m / n + 0.05
        assert res.required_host_bandwidth(preload=n * m) <= res.required_host_bandwidth()


def make_result(**overrides) -> SimResult:
    base = dict(
        outputs={},
        makespan=0,
        cells=0,
        busy=0,
        useful=0,
        memory_words=0,
        memory_reads=0,
        input_deadlines={},
        input_cells=set(),
    )
    base.update(overrides)
    return SimResult(**base)


class TestDegenerateResults:
    """Empty/degenerate runs must yield ratios of 0, not ZeroDivisionError."""

    def test_zero_makespan_and_cells(self) -> None:
        from fractions import Fraction

        res = make_result()
        assert res.utilization == Fraction(0)
        assert res.occupancy == Fraction(0)
        assert res.average_host_bandwidth() == Fraction(0)

    def test_zero_makespan_nonzero_cells(self) -> None:
        from fractions import Fraction

        res = make_result(cells=4)
        assert res.utilization == Fraction(0)
        assert res.occupancy == Fraction(0)

    def test_zero_cells_nonzero_makespan(self) -> None:
        from fractions import Fraction

        res = make_result(makespan=10)
        assert res.utilization == Fraction(0)
        assert res.occupancy == Fraction(0)

    def test_no_inputs_means_empty_curve_and_zero_rate(self) -> None:
        from fractions import Fraction

        res = make_result(makespan=10, cells=3)
        assert res.io_demand_curve() == []
        assert res.required_host_bandwidth() == Fraction(0)

    def test_preload_larger_than_total_words(self) -> None:
        from fractions import Fraction

        res = make_result(
            makespan=10, cells=3,
            input_deadlines={"a": 2, "b": 5, "c": 7},
        )
        assert res.required_host_bandwidth(preload=99) == Fraction(0)
        assert res.required_host_bandwidth(preload=3) == Fraction(0)

    def test_deadline_at_cycle_zero_must_be_preloaded(self) -> None:
        """Words due at t=0 cannot be streamed at any finite rate; the
        bandwidth bound only covers t > 0 deadlines, so the t=0 word
        is implicitly part of the preload."""
        from fractions import Fraction

        res = make_result(
            makespan=8, cells=2,
            input_deadlines={"x": 0, "y": 4},
        )
        curve = res.io_demand_curve()
        assert curve == [(0, 1), (4, 2)]
        # Only the t=4 deadline constrains the streaming rate:
        # 2 cumulative words by cycle 4 -> 1/2 word/cycle.
        assert res.required_host_bandwidth() == Fraction(2, 4)
        # With one word preloaded the rate drops to 1/4.
        assert res.required_host_bandwidth(preload=1) == Fraction(1, 4)


class TestViolationDetection:
    def test_tampered_plan_is_caught(self) -> None:
        dg, _, _, _, ep = build(6, 3)
        # Fire one node a cycle too early.
        victim = next(iter(ep.fires))
        cell, t = ep.fires[victim]
        consumers = [nid for nid in dg.successors(victim) if nid in ep.fires]
        if consumers:
            c0 = consumers[0]
            ccell, ct = ep.fires[c0]
            ep.fires[victim] = (cell, ct + 5)  # producer now fires after use
            res = simulate(ep, dg, make_inputs(random_adjacency(6, seed=0)))
            assert not res.ok
            assert any(v.producer == victim for v in res.violations)

    def test_strict_mode_raises(self) -> None:
        dg, _, _, _, ep = build(6, 3)
        victim = next(
            nid for nid in ep.fires if list(dg.successors(nid))
        )
        cons = next(c for c in dg.successors(victim) if c in ep.fires)
        ep.fires[victim] = (ep.fires[victim][0], ep.fires[cons][1] + 9)
        with pytest.raises(GraphError, match="violation"):
            simulate(ep, dg, make_inputs(random_adjacency(6, seed=0)), strict=True)

    def test_strict_mode_carries_structured_violation(self) -> None:
        """SimulationError exposes the Violation object, not just a string."""
        dg, _, _, _, ep = build(6, 3)
        victim = next(
            nid for nid in ep.fires if list(dg.successors(nid))
        )
        cons = next(c for c in dg.successors(victim) if c in ep.fires)
        ep.fires[victim] = (ep.fires[victim][0], ep.fires[cons][1] + 9)
        with pytest.raises(SimulationError) as exc:
            simulate(ep, dg, make_inputs(random_adjacency(6, seed=0)), strict=True)
        v = exc.value.violation
        assert v.producer == victim
        assert v.slack < 0
        assert v.kind in ("timing", "memory-timing")
        assert str(v) == str(exc.value)
        # Backwards compatible: it still *is* a GraphError.
        assert isinstance(exc.value, GraphError)

    def test_missing_plan_entry_raises(self) -> None:
        dg, _, _, _, ep = build(5, 3)
        victim = next(iter(ep.fires))
        del ep.fires[victim]
        with pytest.raises(GraphError, match="does not cover"):
            simulate(ep, dg, make_inputs(random_adjacency(5, seed=0)))

    def test_missing_input_raises(self) -> None:
        dg, _, _, _, ep = build(5, 3)
        with pytest.raises(GraphError, match="no value supplied"):
            simulate(ep, dg, {})

    def test_violation_str(self) -> None:
        from repro.arrays.cycle_sim import Violation

        v = Violation(node="x", role="a", producer="y", kind="timing", slack=-2)
        assert "late by 2" in str(v)
