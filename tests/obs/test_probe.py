"""Tests for the simulator probe protocol and derived reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.transitive_closure import make_inputs, tc_regular
from repro.algorithms.warshall import random_adjacency, warshall
from repro.arrays.cycle_sim import simulate
from repro.arrays.plan import partitioned_plan
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.gsets import make_linear_gsets, schedule_gsets
from repro.obs import (
    MetricsRegistry,
    NullProbe,
    Probe,
    RecordingProbe,
    io_demand_curve,
    memory_traffic_per_cycle,
    occupancy_timeline,
    probe_chrome_events,
    register_expected_metrics,
    register_sim_metrics,
)


def build(n=7, m=3):
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, m)
    order = schedule_gsets(plan, "vertical")
    return dg, plan, order, partitioned_plan(plan, order)


@pytest.fixture(scope="module")
def probed_run():
    n = 7
    dg, plan, order, ep = build(n)
    a = random_adjacency(n, seed=3)
    probe = RecordingProbe()
    res = simulate(ep, dg, make_inputs(a), probe=probe)
    assert np.array_equal(res.output_matrix(n), warshall(a))
    return n, res, probe


class TestProbeProtocol:
    def test_recording_probe_satisfies_protocol(self) -> None:
        assert isinstance(RecordingProbe(), Probe)
        assert isinstance(NullProbe(), Probe)

    def test_probe_does_not_change_results(self) -> None:
        n = 6
        dg, _, _, ep = build(n)
        a = random_adjacency(n, seed=1)
        bare = simulate(ep, dg, make_inputs(a))
        probed = simulate(ep, dg, make_inputs(a), probe=RecordingProbe())
        nulled = simulate(ep, dg, make_inputs(a), probe=NullProbe())
        for res in (probed, nulled):
            assert res.makespan == bare.makespan
            assert res.memory_words == bare.memory_words
            assert res.outputs == bare.outputs

    def test_fires_match_busy_count(self, probed_run) -> None:
        _, res, probe = probed_run
        assert len(probe.fires) == res.busy

    def test_operand_census_accounts_for_memory_reads(self, probed_run) -> None:
        _, res, probe = probed_run
        census = probe.operand_source_census()
        assert census["memory"] == res.memory_reads
        assert census["input"] >= len(res.input_deadlines)

    def test_violation_events(self) -> None:
        dg, _, _, ep = build(6)
        victim = next(nid for nid in ep.fires if list(dg.successors(nid)))
        cons = next(c for c in dg.successors(victim) if c in ep.fires)
        ep.fires[victim] = (ep.fires[victim][0], ep.fires[cons][1] + 9)
        probe = RecordingProbe()
        res = simulate(ep, dg, make_inputs(random_adjacency(6, seed=0)),
                       probe=probe)
        assert not res.ok
        assert probe.violations == res.violations


class TestDerivedReports:
    def test_io_demand_curve_matches_simresult(self, probed_run) -> None:
        _, res, probe = probed_run
        assert io_demand_curve(probe) == res.io_demand_curve()

    def test_occupancy_timeline_covers_all_cells(self, probed_run) -> None:
        _, res, probe = probed_run
        lanes = occupancy_timeline(probe)
        assert sum(len(v) for v in lanes.values()) == res.busy
        for lane in lanes.values():
            cycles = [c for c, _ in lane]
            assert cycles == sorted(cycles)

    def test_memory_traffic_totals_match(self, probed_run) -> None:
        _, res, probe = probed_run
        curve = memory_traffic_per_cycle(probe)
        assert sum(w for _, w in curve) == res.memory_reads

    def test_chrome_events_schema(self, probed_run) -> None:
        _, res, probe = probed_run
        events = probe_chrome_events(probe)
        fires = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        assert len(fires) == res.busy
        assert {e["name"] for e in counters} == {
            "fires/cycle", "memory reads/cycle", "host words needed (cum.)",
        }
        for ev in events:
            assert {"name", "ph", "pid"} <= set(ev)


class TestRegistryBridges:
    def test_register_sim_metrics(self, probed_run) -> None:
        n, res, _ = probed_run
        reg = MetricsRegistry()
        register_sim_metrics(reg, res, labels={"n": n})
        assert reg.gauge("repro_sim_makespan_cycles").value(n=n) == res.makespan
        assert reg.gauge("repro_sim_utilization").value(n=n) == res.utilization
        assert reg.counter("repro_sim_violations_total").value(n=n) == 0

    def test_register_expected_metrics_closed_forms(self) -> None:
        from fractions import Fraction

        reg = MetricsRegistry()
        register_expected_metrics(reg, 12, 4)
        assert reg.gauge("repro_expected_utilization").value() == Fraction(
            11 * 10, 12 * 13
        )
        assert reg.gauge("repro_expected_io_bandwidth").value() == Fraction(1, 3)
        assert reg.gauge("repro_expected_memory_ports").value() == 5
