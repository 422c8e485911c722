"""Terminal renderings of the paper's figures.

These helpers regenerate the *shape* of the figures as text: G-graph
computation-time grids (Figs. 17/22), G-set schedules (Fig. 20), the
stage-by-stage property table (Figs. 10-16), and one level of the
transitive-closure grid with its node roles (Fig. 16).  The benchmark
harness prints them so a reader can eyeball the reproduction against the
paper without a plotting stack.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..core.analysis import communication_patterns, find_broadcasts, flow_directions
from ..core.ggraph import GGraph
from ..core.graph import DependenceGraph
from ..core.gsets import GSet

__all__ = [
    "format_table",
    "render_ggraph_times",
    "render_schedule",
    "render_stage_table",
    "render_level_grid",
    "render_gantt",
]


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Plain-text table from dict rows (the benchmark harness's printer)."""
    if not rows:
        return "(empty)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    header = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    rule = "-" * len(header)
    body = "\n".join("  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in cells)
    return f"{header}\n{rule}\n{body}"


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def render_ggraph_times(gg: GGraph) -> str:
    """Computation-time grid of a G-graph (Figs. 17 / 22a).

    Rows are horizontal G-paths; each entry is one G-node's computation
    time.  Uniform grids (transitive closure) print a constant field;
    LU-like graphs show the monotone decrease of Sec. 4.3.
    """
    lines = []
    col_list = gg.cols
    width = max(
        2, max((len(str(gn.comp_time)) for gn in gg.gnodes.values()), default=2)
    )
    for r in gg.rows:
        entries = []
        for c in col_list:
            gn = gg.gnodes.get((r, c))
            entries.append(str(gn.comp_time).rjust(width) if gn else " " * width)
        lines.append(f"k={str(r):>3} | " + " ".join(entries))
    return "\n".join(lines)


def render_schedule(order: Iterable[GSet], per_line: int = 8) -> str:
    """G-set issue order (the Fig. 20 tags), wrapped for the terminal."""
    sids = [str(s.sid) for s in order]
    lines = []
    for i in range(0, len(sids), per_line):
        chunk = sids[i : i + per_line]
        lines.append(f"t{i:>4}: " + " -> ".join(chunk))
    return "\n".join(lines)


def render_stage_table(stages: Mapping[str, DependenceGraph]) -> str:
    """Property census across pipeline stages (the Figs. 10-16 story)."""
    rows = []
    for name, dg in stages.items():
        bc = find_broadcasts(dg)
        fl = flow_directions(dg, pos_attr="draw")
        st = communication_patterns(dg)
        rows.append(
            {
                "stage": name,
                "nodes": len(dg),
                "broadcasts": bc.count,
                "max_fanout": bc.max_fanout if bc.sources else 1,
                "unidirectional": fl.is_unidirectional,
                "stencils": st.distinct,
                "dominant": float(st.dominant_fraction),
            }
        )
    return format_table(rows)


def render_gantt(plan, dg: DependenceGraph, start: int = 0, width: int = 72) -> str:
    """Cell-occupancy timeline of an execution plan (one row per cell).

    Legend: ``#`` compute slot, ``+`` transmit/pass, ``-`` delay,
    ``.`` idle.  Shows cycles ``[start, start+width)``; wide plans are
    meant to be windowed (e.g. one G-set period).
    """
    symbol = {"compute": "#", "delay": "-"}
    rows: dict = {}
    for nid, (cell, t) in plan.fires.items():
        if not (start <= t < start + width):
            continue
        tag = dg.nodes[nid].get("tag")
        ch = symbol.get(tag, "+")
        rows.setdefault(cell, {})[t - start] = ch
    lines = [f"cycles {start}..{start + width - 1}  (# compute, + transmit, - delay)"]
    for cell in sorted(rows, key=str):
        cells = rows[cell]
        line = "".join(cells.get(i, ".") for i in range(width))
        lines.append(f"{str(cell):>8} |{line}|")
    return "\n".join(lines)


def render_level_grid(dg: DependenceGraph, level: int, n: int) -> str:
    """One level of the flipped transitive-closure grid (Fig. 16).

    Legend: ``*`` compute, ``r`` row-k transmitter, ``c`` column-k
    transmitter, ``s`` superfluous (diagonal), ``D`` delay column.
    """
    legend = {
        "compute": "*",
        "transmit-row": "r",
        "transmit-col": "c",
        "superfluous": "s",
        "delay": "D",
    }
    grid: dict[tuple[int, int], str] = {}
    for nid, d in dg.nodes.items():
        p = d.get("pos")
        if p is None or len(p) != 3 or p[0] != level:
            continue
        tag = d.get("tag")
        if tag in legend:
            grid[(p[1], p[2])] = legend[tag]
    if not grid:
        return f"(no nodes at level {level})"
    max_r = max(r for r, _ in grid)
    max_c = max(c for _, c in grid)
    lines = [f"level k={level}  (rows i=(k+r) mod n, cols j=(k+c) mod n)"]
    for r in range(max_r + 1):
        lines.append(" ".join(grid.get((r, c), ".") for c in range(max_c + 1)))
    return "\n".join(lines)
