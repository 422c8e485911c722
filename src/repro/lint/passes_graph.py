"""RL1xx — structural passes over the dependence graph.

These passes prove (or refute, with located diagnostics) the Section 2
preconditions the transformation pipeline claims to establish: no data
broadcasting (Fig. 12), uni-directional flow (Figs. 13-14), regular
nearest-neighbour communication (Figs. 15-16), complete port wiring,
and acyclicity.  They read the same censuses the benchmarks print
(:mod:`repro.core.analysis`) but turn them into pass/fail findings.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.analysis import find_broadcasts, flow_directions
from ..core.graph import DependenceGraph, NodeKind, OP_ROLES
from .diagnostics import Diagnostic, Severity
from .registry import LintTarget, lint_pass

__all__ = ["MAX_REPORTED"]

#: Cap the findings one pass emits per code; the design is equally
#: broken whether 3 or 3000 instances are listed, and reports stay
#: readable.  The capping diagnostic says how many were suppressed.
MAX_REPORTED = 16


def _capped(diags: list[Diagnostic], code: str, total: int) -> Iterator[Diagnostic]:
    yield from diags[:MAX_REPORTED]
    if total > MAX_REPORTED:
        first = diags[0]
        yield Diagnostic(
            code=code,
            severity=first.severity,
            message=f"... {total - MAX_REPORTED} further {code} finding(s) "
            "suppressed",
        )


@lint_pass("graph.broadcast", codes=("RL101",), requires=("dg",))
def check_broadcasts(target: LintTarget) -> Iterable[Diagnostic]:
    """RL101: residual broadcasts above the fan-out threshold.

    The Fig. 4a / Fig. 12 transformation replaces every fan-out by a
    pipeline chain through the consumers; a transformed graph must have
    none left (:func:`repro.core.analysis.is_pipelined`).
    """
    dg = target.dg
    assert dg is not None
    report = find_broadcasts(dg, fanout_threshold=target.fanout_threshold)
    diags = [
        Diagnostic(
            code="RL101",
            severity=Severity.ERROR,
            message=(
                f"value {src!r} port {port!r} is broadcast to {fanout} "
                f"consumers (threshold {target.fanout_threshold})"
            ),
            hint="serialize the fan-out into a chain over the consumers' "
            "forwarding ports (Fig. 12)",
            nodes=(src,),
        )
        for (src, port), fanout in report.sources
    ]
    return _capped(diags, "RL101", len(diags))


def _flow_pos_attr(dg: DependenceGraph) -> str:
    """The embedding the flow-direction claim is stated in.

    The paper's uni-directionality (Figs. 13-16) holds in the *drawing*
    embedding (strips shifted right per level); algorithm front-ends
    attach it as the ``draw`` node attribute.  Fall back to logical
    positions when no drawing exists.
    """
    for d in dg.nodes.values():
        if d.get("draw") is not None:
            return "draw"
    return "pos"


@lint_pass("graph.flow", codes=("RL102",), requires=("dg",))
def check_flow_directions(target: LintTarget) -> Iterable[Diagnostic]:
    """RL102: bi-directional data flow along a position dimension."""
    dg = target.dg
    assert dg is not None
    attr = _flow_pos_attr(dg)
    report = flow_directions(dg, pos_attr=attr)
    diags = []
    for dim in report.bidirectional_dims():
        hist = report.displacements[dim]
        diags.append(
            Diagnostic(
                code="RL102",
                severity=Severity.ERROR,
                message=(
                    f"dimension {dim} of the {attr!r} embedding carries "
                    f"flow in both directions "
                    f"(+1: {hist.get(1, 0)} edges, -1: {hist.get(-1, 0)})"
                ),
                hint="apply the flip transformation (Fig. 13): re-index "
                "node positions so all chains run one way",
            )
        )
    return diags


@lint_pass("graph.regularity", codes=("RL103",), requires=("gg",))
def check_gedge_regularity(target: LintTarget) -> Iterable[Diagnostic]:
    """RL103: irregular (non-nearest-neighbour) communication edges.

    The Fig. 15 irregularity materializes at the G-graph level: a
    G-edge spanning more than one G-space hop needs a wire crossing
    several cells.  The Fig. 15c regularization (delay column) makes
    the winning grouping nearest-neighbour — Fig. 17's G-graph has
    exactly the deltas ``{(0, 1), (1, -1)}`` — while the unregularized
    graph's strip boundary surfaces here as long G-edges.  (The
    primitive graph legitimately keeps one long corner wire per level
    transition even after regularization; the invariant the array
    needs is adjacency of the *grouped* communication.)
    """
    gg = target.gg
    assert gg is not None
    diags = []
    for (r1, c1), (r2, c2) in gg.g.edges:
        dr, dc = r2 - r1, c2 - c1
        if abs(dr) > 1 or abs(dc) > 1:
            weight = gg.g.edges[(r1, c1), (r2, c2)].get("weight", 1)
            diags.append(
                Diagnostic(
                    code="RL103",
                    severity=Severity.ERROR,
                    message=(
                        f"G-edge spans G-space delta ({dr}, {dc}) "
                        f"({weight} value(s)); cells are not neighbours"
                    ),
                    hint="regularize the dependence graph (delay column, "
                    "Fig. 15c) or regroup so communication is "
                    "nearest-neighbour",
                    gsets=((r1, c1), (r2, c2)),
                )
            )
    return _capped(diags, "RL103", len(diags))


@lint_pass("graph.ports", codes=("RL104",), requires=("dg",))
def check_ports(target: LintTarget) -> Iterable[Diagnostic]:
    """RL104: dangling operand references and malformed port sets.

    Re-checks (without raising) what :meth:`DependenceGraph.validate`
    enforces at construction time — mutations applied after
    construction (node deletion, hand-edited wiring) land here.
    """
    dg = target.dg
    assert dg is not None
    diags: list[Diagnostic] = []
    for nid, d in dg.nodes.items():
        kind = d["kind"]
        operands = d["operands"]
        for role, (src, src_port) in operands.items():
            if src not in dg:
                diags.append(
                    Diagnostic(
                        code="RL104",
                        severity=Severity.ERROR,
                        message=(
                            f"operand {role!r} references missing node "
                            f"{src!r}"
                        ),
                        hint="the producer was removed without rewiring "
                        "its consumers",
                        nodes=(nid,),
                    )
                )
            elif src_port != "out" and src_port not in dg.output_ports(src):
                diags.append(
                    Diagnostic(
                        code="RL104",
                        severity=Severity.ERROR,
                        message=(
                            f"operand {role!r} reads port {src_port!r} "
                            f"which producer {src!r} does not expose"
                        ),
                        nodes=(nid,),
                    )
                )
        if kind is NodeKind.OP:
            opcode = d.get("opcode")
            roles = OP_ROLES.get(opcode or "")
            if roles is None:
                diags.append(
                    Diagnostic(
                        code="RL104",
                        severity=Severity.ERROR,
                        message=f"op node has unknown opcode {opcode!r}",
                        nodes=(nid,),
                    )
                )
            elif set(operands) != set(roles):
                diags.append(
                    Diagnostic(
                        code="RL104",
                        severity=Severity.ERROR,
                        message=(
                            f"op node ({opcode}) has roles "
                            f"{sorted(map(str, operands))}, needs "
                            f"{sorted(roles)}"
                        ),
                        nodes=(nid,),
                    )
                )
        elif kind in (NodeKind.PASS, NodeKind.DELAY, NodeKind.OUTPUT):
            if len(operands) != 1:
                diags.append(
                    Diagnostic(
                        code="RL104",
                        severity=Severity.ERROR,
                        message=(
                            f"{kind.value} node has {len(operands)} "
                            "operands (needs exactly 1)"
                        ),
                        nodes=(nid,),
                    )
                )
        elif kind in (NodeKind.INPUT, NodeKind.CONST):
            if operands:
                diags.append(
                    Diagnostic(
                        code="RL104",
                        severity=Severity.ERROR,
                        message=f"source node has {len(operands)} operands",
                        nodes=(nid,),
                    )
                )
        if kind.occupies_slot and not dg.successors(nid):
            diags.append(
                Diagnostic(
                    code="RL104",
                    severity=Severity.WARNING,
                    message="produced value is never consumed (dead node)",
                    hint="prune the node or wire a consumer/output to it",
                    nodes=(nid,),
                )
            )
    return _capped(diags, "RL104", len(diags))


@lint_pass("graph.acyclic", codes=("RL105",), requires=("dg",))
def check_acyclic(target: LintTarget) -> Iterable[Diagnostic]:
    """RL105: cycles in the dependence graph."""
    dg = target.dg
    assert dg is not None
    cycle = dg.find_cycle()
    if cycle is None:
        return []
    return [
        Diagnostic(
            code="RL105",
            severity=Severity.ERROR,
            message=(
                f"dependence graph contains a cycle of {len(cycle)} edges"
            ),
            hint="the FPDG must have all loops unfolded; no pipeline "
            "stage may introduce a back edge",
            edges=tuple((u, v) for u, v in cycle[:4]),
        )
    ]
