"""RL3xx — array-level passes over the cycle-accurate execution plan.

These passes re-derive, without running the simulator, the physical
feasibility facts of the target structure: every fire lands on a real
cell and intra-set operands travel over existing links (RL301), the
external-memory taps never take two writes in one cycle (RL302), the
traffic fits the paper's connection count — ``m+1`` for the linear
array, ``2 sqrt(m)`` for the mesh (RL303) — and the host can feed the
schedule within the Fig. 21 ``m/n`` bandwidth (RL304).

The memory-routing model mirrors :mod:`repro.arrays.memory` exactly:
a reference round-trips through memory when producer and consumer are
in different execution regions (G-sets) or on unlinked cells; the word
is written through the producer-side tap one cycle after the producer
fires.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable

from ..core.graph import NodeKind
from ..core.metrics import schedule_io_profile, schedule_total_time
from ..arrays.memory import _port_of
from .diagnostics import Diagnostic, Severity
from .passes_graph import _capped
from .registry import LintTarget, lint_pass

__all__: list[str] = []


@lint_pass("array.ports", codes=("RL301",), requires=("dg", "exec_plan"))
def check_array_ports(target: LintTarget) -> Iterable[Diagnostic]:
    """RL301: program/topology mismatches.

    Errors: a node fired on a cell the topology does not have, or a
    slot-occupying node the plan never fires.  Warnings: an operand
    between two cells of the *same* execution region that are not
    linked — the value silently detours through external memory, which
    the paper's intra-set chaining never needs.
    """
    dg, ep = target.dg, target.exec_plan
    assert dg is not None and ep is not None
    topo = ep.topology
    diags: list[Diagnostic] = []
    for nid, (cell, _) in ep.fires.items():
        if not topo.has_cell(cell):
            diags.append(
                Diagnostic(
                    code="RL301",
                    severity=Severity.ERROR,
                    message=(
                        f"node fired on cell {cell!r}, which {topo.name} "
                        "does not have"
                    ),
                    nodes=(nid,),
                    cells=(cell,),
                )
            )
    node_data = dg.nodes
    unfired = [
        nid
        for nid, d in node_data.items()
        if d["kind"].occupies_slot and nid not in ep.fires
    ]
    if unfired:
        diags.append(
            Diagnostic(
                code="RL301",
                severity=Severity.ERROR,
                message=(
                    f"{len(unfired)} slot node(s) are never fired by the "
                    f"plan (first: {unfired[:4]})"
                ),
                nodes=tuple(unfired[:4]),
            )
        )
    region_of = ep.region_of
    for nid, d in node_data.items():
        fire = ep.fires.get(nid)
        if fire is None:
            continue
        cell = fire[0]
        for ref in d["operands"].values():
            src = ref[0]
            if node_data[src]["kind"] in (NodeKind.INPUT, NodeKind.CONST):
                continue
            pfire = ep.fires.get(src)
            if pfire is None:
                continue  # already reported above
            pcell = pfire[0]
            same_region = (
                not region_of
                or region_of.get(src) == region_of.get(nid)
            )
            if same_region and not (
                cell == pcell or topo.is_neighbor(pcell, cell)
            ):
                diags.append(
                    Diagnostic(
                        code="RL301",
                        severity=Severity.WARNING,
                        message=(
                            f"intra-set operand travels {pcell!r} -> "
                            f"{cell!r}, cells {topo.name} does not link; "
                            "the value detours through external memory"
                        ),
                        hint="re-map the G-set so chained members sit on "
                        "linked cells",
                        nodes=(src, nid),
                        cells=(pcell, cell),
                    )
                )
    return _capped(diags, "RL301", len(diags))


def _memory_events(
    target: LintTarget,
) -> tuple[list[tuple[tuple, Hashable, int, Hashable]], set[Hashable]]:
    """Memory-routed traffic of the plan: write events and read ports.

    Returns ``(writes, read_ports)`` with one
    ``(ref, port, cycle, producing_cell)`` entry per distinct parked
    value.  Same routing rule as
    :func:`repro.arrays.memory.analyze_memory`.
    """
    dg, ep = target.dg, target.exec_plan
    assert dg is not None and ep is not None
    region_of = ep.region_of
    writes: list[tuple[tuple, Hashable, int, Hashable]] = []
    seen: set[tuple] = set()
    read_ports: set[Hashable] = set()
    node_data = dg.nodes
    for nid, d in node_data.items():
        fire = ep.fires.get(nid)
        if fire is None:
            continue
        cell, _ = fire
        for ref in d["operands"].values():
            src = ref[0]
            if node_data[src]["kind"] in (NodeKind.INPUT, NodeKind.CONST):
                continue
            pfire = ep.fires.get(src)
            if pfire is None:
                continue
            pcell, pt = pfire
            same_region = (
                not region_of
                or region_of.get(src) == region_of.get(nid)
            )
            local = cell == pcell or ep.topology.is_neighbor(pcell, cell)
            if same_region and local:
                continue
            if ref not in seen:
                seen.add(ref)
                writes.append((ref, _port_of(ep, pcell), pt + 1, pcell))
            read_ports.add(_port_of(ep, cell))
    return writes, read_ports


@lint_pass(
    "array.memconflict", codes=("RL302",), requires=("dg", "exec_plan")
)
def check_memory_conflicts(target: LintTarget) -> Iterable[Diagnostic]:
    """RL302: two cells writing through one memory tap in one cycle.

    A single-word-per-cycle tap must serialize such writes (one extra
    buffer stage).  One cell parking several of its output ports in the
    same cycle is a single bundled transfer (the cell's whole output
    register crosses the tap once), so only writes from *distinct*
    producing cells conflict.  Severity *warning*: the shared row taps
    of the mesh (``2 sqrt(m)`` connections for ``m`` cells) make
    occasional collisions inherent to the Fig. 19 wiring, not a broken
    design.
    """
    writes, _ = target.shared("memory_events", _memory_events)
    by_slot: dict[tuple[Hashable, int], dict[Hashable, tuple]] = {}
    for ref, port, cycle, pcell in writes:
        by_slot.setdefault((port, cycle), {})[pcell] = ref
    diags = [
        Diagnostic(
            code="RL302",
            severity=Severity.WARNING,
            message=(
                f"memory tap {port!r} takes writes from "
                f"{len(cells)} cells in cycle {cycle} "
                f"(cells: {sorted(map(repr, cells))[:3]})"
            ),
            hint="add a one-stage write buffer at the tap or re-map the "
            "colliding producers",
            nodes=tuple(ref[0] for ref in cells.values())[:4],
            cells=tuple(cells)[:4],
        )
        for (port, cycle), cells in sorted(
            by_slot.items(), key=lambda kv: kv[0][1]
        )
        if len(cells) > 1
    ]
    return _capped(diags, "RL302", len(diags))


@lint_pass(
    "array.memports", codes=("RL303",), requires=("dg", "exec_plan")
)
def check_memory_port_bound(target: LintTarget) -> Iterable[Diagnostic]:
    """RL303: traffic uses more memory taps than the array provides.

    The paper's bound: ``m+1`` connections for the linear array
    (Fig. 18), ``2 sqrt(m)`` for the mesh (Fig. 19), carried by
    ``topology.memory_ports``.
    """
    ep = target.exec_plan
    assert ep is not None
    writes, read_ports = target.shared("memory_events", _memory_events)
    used = {port for _, port, _, _ in writes} | read_ports
    if len(used) <= ep.topology.memory_ports:
        return []
    sample = sorted(map(repr, used))[:6]
    return [
        Diagnostic(
            code="RL303",
            severity=Severity.ERROR,
            message=(
                f"plan routes traffic through {len(used)} memory taps "
                f"but {ep.topology.name} provides only "
                f"{ep.topology.memory_ports} connections "
                f"(taps: {sample}...)"
            ),
            hint="the connection count is the paper's m+1 (linear) / "
            "2*sqrt(m) (mesh) bound; reduce distinct taps or widen "
            "the array",
        )
    ]


@lint_pass(
    "array.iobandwidth",
    codes=("RL304",),
    requires=("plan", "order", "io_bound"),
)
def check_io_bandwidth(target: LintTarget) -> Iterable[Diagnostic]:
    """RL304: host input demand exceeds the declared bandwidth bound.

    The Fig. 21 host interface sustains ``m/n`` words/cycle through the
    R-block chain.  Two static checks: the *aggregate* rate — all
    primary inputs over the whole schedule — must stay within the
    declared bound, and no inter-event window may demand more than the
    chain's physical 1 word/cycle (a bunched schedule forces the host
    to run ahead and park the surplus in R-block memories, which the
    non-aligned and horizontal-policy ablations do by construction).
    Severity *warning*: exceeding the bound needs a faster host or
    deeper R memories than the paper's design point, but the design
    still computes.
    """
    plan, order, bound = target.plan, target.order, target.io_bound
    assert plan is not None and order is not None and bound is not None
    events, total_inputs = schedule_io_profile(plan, order)
    total, _ = schedule_total_time(plan.gg, order)
    diags: list[Diagnostic] = []
    if total > 0 and Fraction(total_inputs, total) > bound:
        diags.append(
            Diagnostic(
                code="RL304",
                severity=Severity.WARNING,
                message=(
                    f"aggregate host demand {total_inputs}/{total} = "
                    f"{Fraction(total_inputs, total)} words/cycle exceeds "
                    f"the declared bound {bound} (Fig. 21: m/n)"
                ),
                hint="use the aligned G-set selection / vertical-path "
                "schedule to space input-consuming G-sets n sets apart",
            )
        )
    worst: tuple[Fraction, int, int] | None = None
    for idx, (t0, _) in enumerate(events[:-1]):
        t1, w_next = events[idx + 1]
        if t1 <= t0:
            continue
        # The next event's words must cross the chain during this window.
        rate = Fraction(w_next, t1 - t0)
        if rate > 1 and (worst is None or rate > worst[0]):
            worst = (rate, t1, w_next)
    if worst is not None:
        rate, t0, w = worst
        diags.append(
            Diagnostic(
                code="RL304",
                severity=Severity.WARNING,
                message=(
                    f"input-consuming G-sets bunch: {w} words for the "
                    f"G-set starting at cycle {t0} arrive over a window "
                    f"sustaining only {float(1 / rate):.2f} of the demand "
                    "at the chain's 1 word/cycle limit"
                ),
                hint="schedule input-consuming G-sets further apart "
                "(vertical-path policy over aligned blocks, Fig. 20a), "
                "or size the R-block preload memories for the surplus",
            )
        )
    return diags
