"""Cell programs: the microcode an execution plan implies.

A systolic cell is a datapath plus a control store.  This module derives,
from any :class:`~repro.arrays.plan.ExecutionPlan`, the *instruction
stream* each cell executes: for every cycle the cell is busy, which
operation fires and where each operand comes from — a neighbour port
(N/S/E/W for meshes, L/R for chains), the cell's own registers, external
memory, the host, or a wired constant.

Two uses:

* **implementability**: the distinct instruction patterns per cell are
  the true control-store size (finer than the context census of
  :mod:`repro.core.control` — it distinguishes operand steering, which is
  what cell microcode actually encodes);
* **inspection**: :func:`render_program` prints a cell's stream, which
  makes statements like "the Fig. 17 array has no control complexity"
  concrete — every cell there runs one instruction forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..core.graph import DependenceGraph, NodeId, NodeKind
from .plan import ExecutionPlan

__all__ = ["Instruction", "CellProgram", "cell_programs", "render_program"]


@dataclass(frozen=True)
class Instruction:
    """One cycle of one cell: operation plus operand steering."""

    cycle: int
    opcode: str  # mac / msub / ... / pass / delay
    sources: tuple[tuple[str, str], ...]  # (role, origin), sorted by role
    tag: str | None = None

    @property
    def pattern(self) -> tuple:
        """The control-store entry (everything but the cycle number)."""
        return (self.opcode, self.sources)


@dataclass
class CellProgram:
    """The full instruction stream of one cell."""

    cell: Hashable
    instructions: list[Instruction]

    @property
    def distinct_patterns(self) -> int:
        """Control-store entries this cell needs."""
        return len({ins.pattern for ins in self.instructions})

    @property
    def busy_cycles(self) -> int:
        """Cycles with an instruction (the rest are idle)."""
        return len(self.instructions)


def _origin(
    plan: ExecutionPlan,
    dg: DependenceGraph,
    consumer: NodeId,
    ref: tuple,
    cell: Hashable,
) -> str:
    src = ref[0]
    kind = dg.kind(src)
    if kind is NodeKind.INPUT:
        return "host"
    if kind is NodeKind.CONST:
        return "const"
    pcell, _ = plan.fires[src]
    same_region = (
        not plan.region_of
        or plan.region_of.get(src) == plan.region_of.get(consumer)
    )
    if not same_region:
        return "mem"
    if pcell == cell:
        return "self"
    if not plan.topology.is_neighbor(pcell, cell):
        return "mem"
    if isinstance(cell, tuple):
        dr, dc = cell[0] - pcell[0], cell[1] - pcell[1]
        return {(1, 0): "N", (-1, 0): "S", (0, 1): "W", (0, -1): "E"}.get(
            (dr, dc), f"d{dr},{dc}"
        )
    return "L" if pcell < cell else "R"


def cell_programs(plan: ExecutionPlan, dg: DependenceGraph) -> dict[Hashable, CellProgram]:
    """Derive every cell's instruction stream from a plan."""
    streams: dict[Hashable, list[Instruction]] = {}
    for nid, (cell, t) in plan.fires.items():
        d = dg.nodes[nid]
        kind = d["kind"]
        opcode = d.get("opcode") or kind.value
        sources = tuple(
            sorted(
                (role, _origin(plan, dg, nid, ref, cell))
                for role, ref in d["operands"].items()
            )
        )
        streams.setdefault(cell, []).append(
            Instruction(cycle=t, opcode=opcode, sources=sources, tag=d.get("tag"))
        )
    return {
        cell: CellProgram(cell=cell, instructions=sorted(ins, key=lambda i: i.cycle))
        for cell, ins in streams.items()
    }


def render_program(program: CellProgram, limit: int = 16) -> str:
    """Human-readable listing of (the head of) one cell's stream."""
    lines = [
        f"cell {program.cell}: {program.busy_cycles} instructions, "
        f"{program.distinct_patterns} distinct patterns"
    ]
    for ins in program.instructions[:limit]:
        srcs = " ".join(f"{role}<-{origin}" for role, origin in ins.sources)
        lines.append(f"  t={ins.cycle:>5}  {ins.opcode:<6} {srcs}")
    if program.busy_cycles > limit:
        lines.append(f"  ... {program.busy_cycles - limit} more")
    return "\n".join(lines)
