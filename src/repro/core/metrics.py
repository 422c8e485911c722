"""Performance measures for partitioned execution (Section 4.1).

The paper evaluates arrays with four measures, all computable from the
dependence graphs used to derive the implementation:

* **Throughput** ``T``: ``T^{-1} = sum_i (tau_i^{-1} + d_i)`` where
  ``tau_i^{-1} = t_i`` is the longest computation time of a node in the
  ``i``-th G-set and ``d_i`` the partitioning overhead (zero when data
  flow through the G-nodes is pipelined).
* **Utilization** ``U = N / (m / T)`` where ``N = sum_i n_i t_i`` is the
  total number of nodes of the *original* (pruned) dependence graph — the
  work that must actually be performed.
* **I/O bandwidth** ``D_IO``: rate at which the host must feed inputs.
* **Overhead due to partitioning**: cycles spent on actions that are not
  part of the algorithm (loading/unloading); zero for the paper's arrays,
  non-zero for the baselines.

Two families of functions live here:

* ``tc_*`` — the paper's closed forms for partitioned transitive closure
  (Section 4.2), used as the *expected* values in benchmarks;
* ``*_from_schedule`` — the same measures computed from an actual G-set
  plan and schedule, used as the *measured* values (and cross-checked
  against the cycle-accurate simulator in :mod:`repro.arrays`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ggraph import GGraph
from .graph import NodeKind
from .gsets import GSet, GSetPlan

__all__ = [
    "PerformanceReport",
    "tc_linear_throughput",
    "tc_mesh_throughput",
    "tc_utilization",
    "tc_io_bandwidth",
    "tc_gset_count",
    "memory_connections",
    "evaluate_schedule",
    "time_mixing_loss",
    "boundary_loss",
    "schedule_total_time",
    "schedule_io_profile",
    "schedule_memory_traffic",
]


# ----------------------------------------------------------------------
# Closed forms (Section 4.2)
# ----------------------------------------------------------------------

def tc_gset_count(n: int, m: int) -> Fraction:
    """Number of G-sets, ``n(n+1)/m`` (exact when ``m | n+1``)."""
    return Fraction(n * (n + 1), m)


def tc_linear_throughput(n: int, m: int) -> Fraction:
    """Linear-array throughput ``T = m / (n^2 (n+1))`` (Sec. 4.2)."""
    return Fraction(m, n * n * (n + 1))


def tc_mesh_throughput(n: int, m: int) -> Fraction:
    """Two-dimensional-array throughput — same as the linear array.

    ``(n/sqrt(m)) ((n+1)/sqrt(m)) = n(n+1)/m`` G-sets of time ``n``.
    """
    return tc_linear_throughput(n, m)


def tc_utilization(n: int) -> Fraction:
    """Utilization ``U = (n-1)(n-2) / (n(n+1)) -> 1`` (Sec. 4.2).

    Independent of ``m``; identical for the linear and the
    two-dimensional arrays.
    """
    return Fraction((n - 1) * (n - 2), n * (n + 1))


def tc_io_bandwidth(n: int, m: int) -> Fraction:
    """Host I/O bandwidth ``D_IO = n m / n^2 = m / n`` (Fig. 21)."""
    return Fraction(m, n)


def memory_connections(geometry: str, m: int) -> int:
    """External-memory connections: ``m+1`` (linear) or ``2 sqrt(m)`` (mesh)."""
    if geometry == "linear":
        return m + 1
    if geometry == "mesh":
        side = math.isqrt(m)
        if side * side != m:
            raise ValueError(f"mesh memory connections need square m, got {m}")
        return 2 * side
    raise ValueError(f"unknown geometry {geometry!r}")


# ----------------------------------------------------------------------
# Schedule-derived measures
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PerformanceReport:
    """Sec. 4.1 measures for one partitioned implementation."""

    geometry: str
    m: int
    total_time: int
    overhead: int
    throughput: Fraction
    utilization: Fraction
    occupancy: Fraction
    io_bandwidth: Fraction
    io_steady: Fraction
    io_peak: int
    memory_words: int
    memory_connections: int
    gsets: int
    boundary_gsets: int

    def row(self) -> dict:
        """Flat dict for table printing in the benchmark harness."""
        return {
            "geometry": self.geometry,
            "m": self.m,
            "T_total": self.total_time,
            "overhead": self.overhead,
            "T": float(self.throughput),
            "U": float(self.utilization),
            "occupancy": float(self.occupancy),
            "D_IO": float(self.io_bandwidth),
            "D_IO_steady": float(self.io_steady),
            "D_IO_peak": self.io_peak,
            "mem_words": self.memory_words,
            "mem_ports": self.memory_connections,
            "gsets": self.gsets,
            "boundary": self.boundary_gsets,
        }


def schedule_total_time(
    gg: GGraph, order: Sequence[GSet], overheads: Sequence[int] | None = None
) -> tuple[int, int]:
    """``(total cycles, overhead cycles)`` for a sequential G-set schedule.

    Sec. 4.1: ``T^{-1} = sum_i (t_i + d_i)``.  G-sets are executed in
    pipelined overlap, so each contributes its slowest member's
    computation time; ``overheads`` supplies the per-set ``d_i`` (zero by
    default — the paper's arrays have none; baselines pass theirs).
    """
    times = [s.comp_time(gg) for s in order]
    if overheads is None:
        overheads = [0] * len(order)
    if len(overheads) != len(order):
        raise ValueError("need one overhead entry per G-set")
    return sum(times) + sum(overheads), sum(overheads)


def schedule_io_profile(
    plan: GSetPlan, order: Sequence[GSet]
) -> tuple[list[tuple[int, int]], int]:
    """Input-consumption timeline of a schedule.

    Returns ``(events, total_inputs)`` where each event is
    ``(start_cycle_of_the_gset, number_of_primary_inputs_it_consumes)``.
    Primary inputs are operand references to INPUT nodes of the underlying
    dependence graph — exactly the words the host must deliver (Fig. 21).
    """
    node_data = plan.gg.dg.nodes
    events: list[tuple[int, int]] = []
    t = 0
    total = 0
    for s in order:
        refs: set[tuple] = set()
        for gid in s.gids:
            for nid in plan.gg.gnodes[gid].members:
                for ref in node_data[nid]["operands"].values():
                    if node_data[ref[0]]["kind"] is NodeKind.INPUT:
                        refs.add(ref)
        if refs:
            events.append((t, len(refs)))
            total += len(refs)
        t += s.comp_time(plan.gg)
    return events, total


def schedule_memory_traffic(plan: GSetPlan, order: Sequence[GSet]) -> int:
    """Words written to external memory by the schedule.

    Every value produced in one G-set and consumed in another must be
    parked in an external memory between the two executions (cut-and-pile,
    Fig. 2).  Values used inside their own G-set stay in cell registers.
    Counted as distinct produced values crossing a set boundary.
    """
    set_of = plan.set_of
    crossing: set[tuple] = set()
    for nid, d in plan.gg.dg.nodes.items():
        gdst = plan.gg.node_of.get(nid)
        if gdst is None:
            continue
        for ref in d["operands"].values():
            gsrc = plan.gg.node_of.get(ref[0])
            if gsrc is None:
                continue
            if set_of[gsrc] != set_of[gdst]:
                crossing.add(ref)
    return len(crossing)


def time_mixing_loss(plan: GSetPlan, order: Sequence[GSet]) -> Fraction:
    """Cell-cycles wasted because a G-set mixes computation times.

    Every G-set occupies each of its cells for its *slowest* member's
    time; a cell holding a faster member idles for the difference.  This
    is the Sec. 4.3 / Fig. 22 inefficiency: zero when G-sets are chosen
    along uniform-time paths (the linear array always can), strictly
    positive for two-dimensional blocks over a time-graded G-graph.
    Returned as a fraction of total capacity ``m * total_time``.
    """
    gg = plan.gg
    total, _ = schedule_total_time(gg, order)
    if total == 0:
        return Fraction(0)
    wasted = 0
    for s in order:
        t_set = s.comp_time(gg)
        for gid in s.gids:
            wasted += t_set - gg.gnodes[gid].comp_time
    return Fraction(wasted, plan.m * total)


def boundary_loss(plan: GSetPlan, order: Sequence[GSet]) -> Fraction:
    """Cell-cycles wasted by ragged (partially filled) boundary G-sets.

    The paper's "boundary sets ... might not use all cells in the array";
    fraction of total capacity, complementary to
    :func:`time_mixing_loss`: occupancy = 1 - mixing - boundary.
    """
    gg = plan.gg
    total, _ = schedule_total_time(gg, order)
    if total == 0:
        return Fraction(0)
    wasted = sum((plan.m - len(s)) * s.comp_time(gg) for s in order)
    return Fraction(wasted, plan.m * total)


def evaluate_schedule(
    plan: GSetPlan,
    order: Sequence[GSet],
    overheads: Sequence[int] | None = None,
) -> PerformanceReport:
    """Compute the full Sec. 4.1 report for a plan + schedule.

    * ``utilization`` uses the paper's numerator: primitive nodes of the
      original pruned graph (tag ``compute``).
    * ``occupancy`` additionally counts transmit/delay slots as busy —
      the gap between the two is the price of the regularization padding.
    * ``io_bandwidth`` is total inputs / total time (the paper's steady
      state aggregate); ``io_peak`` is the largest single-set demand.
    """
    gg = plan.gg
    total, ovh = schedule_total_time(gg, order, overheads)
    useful = gg.total_useful()
    occupied = sum(gg.gnodes[g].comp_time for s in order for g in s.gids)
    events, total_inputs = schedule_io_profile(plan, order)
    peak = max((w for _, w in events), default=0)
    # Steady-state host rate: words of one input event over the time until
    # the next one -- the paper's D_IO = nm / sum(t_ck) = m/n (Fig. 21).
    # The median gap is used because the first vertical path is shorter
    # than the steady ones (pipeline fill), and the R-block chain of
    # Fig. 21 absorbs exactly that kind of transient.
    rates = []
    for idx, (t0, w) in enumerate(events):
        t1 = events[idx + 1][0] if idx + 1 < len(events) else total
        if t1 > t0:
            rates.append(Fraction(w, t1 - t0))
    rates.sort()
    steady = rates[len(rates) // 2] if rates else Fraction(0)
    mem_words = schedule_memory_traffic(plan, order)
    try:
        ports = memory_connections(plan.geometry, plan.m)
    except ValueError:
        ports = -1
    denom = plan.m * total if total else 1
    return PerformanceReport(
        geometry=plan.geometry,
        m=plan.m,
        total_time=total,
        overhead=ovh,
        throughput=Fraction(1, total) if total else Fraction(0),
        utilization=Fraction(useful, denom),
        occupancy=Fraction(occupied, denom),
        io_bandwidth=Fraction(total_inputs, total) if total else Fraction(0),
        io_steady=steady,
        io_peak=peak,
        memory_words=mem_words,
        memory_connections=ports,
        gsets=len(order),
        boundary_gsets=plan.boundary_sets(),
    )
