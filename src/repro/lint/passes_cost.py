"""RL6xx — static cost passes over the compiled value program.

Closed-form bounds and cross-checks, computed without simulating one
cycle:

* ``cost.makespan`` (RL601) — the critical path over the plan's
  constraint DAG (PR 7's :func:`repro.obs.profile.critical_path`) is a
  lower bound on any executable makespan; the recorded makespan must
  meet it, and the compiled plan must agree with the execution plan.
  On every shipped configuration the bound is *tight* (the
  ``matches_makespan`` cross-check); slack is reported as info.
* ``cost.traffic`` (RL602) — an independent recount of busy/useful
  firings and external-memory words/reads (the exact timing rules of
  the reference interpreter) must equal the compiled plan's recorded
  static measures.
* ``cost.iobandwidth`` (RL603) — the Fig. 21 check at the plan level:
  aggregate input demand (host words per cycle over the run) must stay
  within the ``m/n`` bound the R-block chain provides.

Warn-severity anti-pattern passes:

* ``cost.fragmentation`` (RL604) — many narrow depth-batches forfeit
  the vector backend's advantage to per-step dispatch overhead.
* ``cost.utilization`` (RL605) — cells idle most of the run (the
  paper's "might not use all cells" loss, Fig. 22).
* ``cost.headroom`` (RL606) — demand within the Fig. 21 bound but so
  close that any schedule perturbation would starve cells.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable

from ..core.graph import NodeKind
from ..obs.profile import critical_path
from .diagnostics import Diagnostic, Severity
from .registry import LintTarget, lint_pass

__all__ = [
    "FRAGMENTATION_MIN_STEPS",
    "FRAGMENTATION_MEAN_WIDTH",
    "UTILIZATION_FLOOR",
    "HEADROOM_RATIO",
]

#: RL604 fires when the program has more than this many batches *and*
#: their mean width is below :data:`FRAGMENTATION_MEAN_WIDTH`.
FRAGMENTATION_MIN_STEPS = 8
FRAGMENTATION_MEAN_WIDTH = 4.0

#: RL605 fires when busy / (cells * makespan) drops below this.
UTILIZATION_FLOOR = 0.25

#: RL606 fires when demand/bound exceeds this while still <= 1.
HEADROOM_RATIO = Fraction(9, 10)


def _recount_measures(target: LintTarget) -> dict[str, int]:
    """Recount busy/useful/memory measures straight from the IR.

    Mirrors the timing rules of the reference interpreter (and of
    ``compile_plan``'s walk): a reference round-trips external memory
    when producer and consumer sit in different execution regions or on
    unlinked cells; each distinct round-tripping ``(node, port)`` is
    one stored word, each consumption one read.
    """
    dg, ep = target.dg, target.exec_plan
    assert dg is not None and ep is not None
    node_data = dg.nodes
    fires = ep.fires
    region_of = ep.region_of
    topology = ep.topology
    busy = 0
    useful = 0
    memory_refs: set[tuple[Hashable, str]] = set()
    memory_reads = 0
    for nid, (cell, _t) in fires.items():
        d = node_data[nid]
        busy += 1
        if d.get("tag") == "compute":
            useful += 1
        for ref in d.get("operands", {}).values():
            src = ref[0]
            src_kind = node_data[src]["kind"]
            if src_kind in (NodeKind.INPUT, NodeKind.CONST):
                continue
            pcell, _pt = fires[src]
            same_region = (
                not region_of or region_of.get(src) == region_of.get(nid)
            )
            local = cell == pcell or topology.is_neighbor(pcell, cell)
            if not (same_region and local):
                memory_refs.add(ref)
                memory_reads += 1
    return {
        "busy": busy,
        "useful": useful,
        "memory_words": len(memory_refs),
        "memory_reads": memory_reads,
    }


@lint_pass(
    "cost.makespan", codes=("RL601",), requires=("dg", "exec_plan", "compiled")
)
def check_makespan_bound(target: LintTarget) -> Iterable[Diagnostic]:
    """RL601: recorded makespan vs. the critical-path lower bound."""
    dg, ep, cp = target.dg, target.exec_plan, target.compiled
    assert dg is not None and ep is not None and cp is not None
    diags: list[Diagnostic] = []
    if cp.makespan != ep.makespan:
        diags.append(
            Diagnostic(
                code="RL601",
                severity=Severity.ERROR,
                message=(
                    f"compiled plan records makespan {cp.makespan} but "
                    f"the execution plan's is {ep.makespan}"
                ),
                suggestion=(
                    "recompile with compile_plan(); recorded measures "
                    "are derived state"
                ),
            )
        )
    path = critical_path(ep, dg)
    bound = path.length
    if ep.makespan < bound:
        diags.append(
            Diagnostic(
                code="RL601",
                severity=Severity.ERROR,
                message=(
                    f"makespan {ep.makespan} undercuts the critical-path "
                    f"lower bound of {bound} cycle(s); the schedule is "
                    "unexecutable under the timing model"
                ),
                suggestion=(
                    "rebuild the schedule; a chain of dependent firings "
                    "cannot finish faster than its critical path"
                ),
            )
        )
    elif ep.makespan > bound:
        diags.append(
            Diagnostic(
                code="RL601",
                severity=Severity.INFO,
                message=(
                    f"schedule idles {ep.makespan - bound} cycle(s) above "
                    f"the critical-path bound ({bound} of {ep.makespan} "
                    "explained)"
                ),
                hint=(
                    "the critical path does not account for the whole "
                    "run; see repro profile's hotspot attribution"
                ),
            )
        )
    return diags


@lint_pass(
    "cost.traffic", codes=("RL602",), requires=("dg", "exec_plan", "compiled")
)
def check_static_measures(target: LintTarget) -> Iterable[Diagnostic]:
    """RL602: recorded static measures vs. an independent recount."""
    cp = target.compiled
    assert cp is not None
    want = _recount_measures(target)
    got = {
        "busy": cp.busy,
        "useful": cp.useful,
        "memory_words": cp.memory_words,
        "memory_reads": cp.memory_reads,
    }
    diags: list[Diagnostic] = []
    for key in want:
        if want[key] != got[key]:
            diags.append(
                Diagnostic(
                    code="RL602",
                    severity=Severity.ERROR,
                    message=(
                        f"compiled plan records {key}={got[key]} but the "
                        f"schedule recount gives {want[key]}"
                    ),
                    suggestion=(
                        "recompile with compile_plan(); perf gates and "
                        "dashboards trust these recorded measures"
                    ),
                )
            )
    assert target.exec_plan is not None
    if cp.cells != target.exec_plan.topology.m:
        diags.append(
            Diagnostic(
                code="RL602",
                severity=Severity.ERROR,
                message=(
                    f"compiled plan records {cp.cells} cell(s) but the "
                    f"topology has {target.exec_plan.topology.m}"
                ),
                suggestion="recompile with compile_plan()",
            )
        )
    return diags


def _aggregate_demand(target: LintTarget) -> Fraction | None:
    """Host words per cycle over the whole run, or None (no inputs)."""
    cp = target.compiled
    assert cp is not None
    if not cp.input_ids or cp.makespan <= 0:
        return None
    return Fraction(len(cp.input_ids), cp.makespan)


@lint_pass(
    "cost.iobandwidth",
    codes=("RL603",),
    requires=("compiled", "io_bound"),
)
def check_io_bandwidth(target: LintTarget) -> Iterable[Diagnostic]:
    """RL603: aggregate input demand vs. the Fig. 21 bound."""
    demand = _aggregate_demand(target)
    bound = target.io_bound
    assert bound is not None
    if demand is None or demand <= bound:
        return []
    return [
        Diagnostic(
            code="RL603",
            severity=Severity.WARNING,
            message=(
                f"aggregate host demand {demand} words/cycle exceeds the "
                f"Fig. 21 bound {bound} "
                f"({float(demand):.3f} > {float(bound):.3f})"
            ),
            hint=(
                "the R-block chain cannot sustain this input rate; "
                "cells will starve"
            ),
            suggestion=(
                "use the aligned G-set selection and the vertical-path "
                "schedule so input G-sets are spaced apart"
            ),
        )
    ]


@lint_pass("cost.fragmentation", codes=("RL604",), requires=("compiled",))
def check_batch_fragmentation(target: LintTarget) -> Iterable[Diagnostic]:
    """RL604 (warn): the program fragments into many narrow batches."""
    cp = target.compiled
    assert cp is not None
    if len(cp.steps) <= FRAGMENTATION_MIN_STEPS:
        return []
    mean_width = sum(s.width for s in cp.steps) / len(cp.steps)
    if mean_width >= FRAGMENTATION_MEAN_WIDTH:
        return []
    return [
        Diagnostic(
            code="RL604",
            severity=Severity.WARNING,
            message=(
                f"value program fragments into {len(cp.steps)} batches "
                f"of mean width {mean_width:.1f} "
                f"(threshold {FRAGMENTATION_MEAN_WIDTH:.1f})"
            ),
            hint=(
                "per-batch dispatch overhead dominates; the vector "
                "backend will not beat the interpreter here"
            ),
            suggestion=(
                "regroup the computation into wider depth levels, or "
                "run this design on the reference backend"
            ),
        )
    ]


@lint_pass("cost.utilization", codes=("RL605",), requires=("compiled",))
def check_cell_utilization(target: LintTarget) -> Iterable[Diagnostic]:
    """RL605 (warn): cells idle most of the run."""
    cp = target.compiled
    assert cp is not None
    if cp.cells <= 0 or cp.makespan <= 0:
        return []
    util = Fraction(cp.busy, cp.cells * cp.makespan)
    if float(util) >= UTILIZATION_FLOOR:
        return []
    return [
        Diagnostic(
            code="RL605",
            severity=Severity.WARNING,
            message=(
                f"cells are busy only {float(util):.1%} of "
                f"{cp.cells} cell(s) x {cp.makespan} cycle(s) "
                f"(floor {UTILIZATION_FLOOR:.0%})"
            ),
            hint=(
                "the paper's 'might not use all cells' loss (Fig. 22): "
                "most of the array idles"
            ),
            suggestion=(
                "choose m closer to a divisor of the G-graph width, or "
                "regroup along uniform-time paths"
            ),
        )
    ]


@lint_pass(
    "cost.headroom", codes=("RL606",), requires=("compiled", "io_bound")
)
def check_bandwidth_headroom(target: LintTarget) -> Iterable[Diagnostic]:
    """RL606 (warn): demand within the Fig. 21 bound but nearly at it."""
    demand = _aggregate_demand(target)
    bound = target.io_bound
    assert bound is not None
    if demand is None or bound <= 0:
        return []
    ratio = demand / bound
    if not (HEADROOM_RATIO < ratio <= 1):
        return []
    return [
        Diagnostic(
            code="RL606",
            severity=Severity.WARNING,
            message=(
                f"host demand uses {float(ratio):.1%} of the Fig. 21 "
                f"bound ({demand} of {bound} words/cycle); headroom "
                "is exhausted"
            ),
            hint=(
                "any pile-order perturbation or larger n at this m "
                "tips the design over the bandwidth envelope"
            ),
            suggestion=(
                "space input G-sets further apart in the pile order, "
                "or provision the next m before growing n"
            ),
        )
    ]
