"""Dependence graph of upper-triangular matrix inversion (Sec. 4.3).

``V = U^{-1}`` by back-substitution, column by column::

    v[j,j] = 1 / u[j,j]
    v[i,j] = -( sum_{k=i+1..j} u[i,k] * v[k,j] ) / u[i,i]     (i < j)

Column ``j`` costs ``O(j^2)`` operations — the *increasing* counterpart
of LU's decreasing pattern; the paper lists "inverse of non-singular
upper triangular matrix" among the algorithms whose G-nodes cannot share
one computation time (Sec. 4.3).

Node ids: ``("vd", j)`` — the diagonal reciprocal; ``("acc", i, j, k)``
— accumulation step ``k`` of element ``(i, j)``; ``("neg", i, j)`` and
``("div", i, j)`` — the final negate-and-scale.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.graph import Axis, DependenceGraph, GraphError, NodeId
from ..core.evaluate import evaluate
from ..core.ggraph import GGraph, GNodeId
from ..core.semiring import REAL

__all__ = [
    "triangular_inverse_graph",
    "triangular_inverse_inputs",
    "run_triangular_inverse",
    "triangular_inverse_ggraph",
]


def triangular_inverse_graph(n: int) -> DependenceGraph:
    """FPDG of the inversion of an ``n x n`` upper-triangular matrix."""
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    dg = DependenceGraph(f"triangular_inverse(n={n})")
    for i in range(n):
        for j in range(i, n):
            dg.add_input(("in", i, j), pos=(-1, i, j))
    dg.add_const(("zero",), 0.0)

    def v(i: int, j: int) -> NodeId:
        return ("vd", j) if i == j else ("div", i, j)

    for j in range(n):
        dg.add_op(
            ("vd", j),
            "recip",
            {"a": ("in", j, j)},
            pos=(j, j, j),
            tag="compute",
        )
        for i in range(j - 1, -1, -1):
            prev: NodeId = ("zero",)
            for k in range(i + 1, j + 1):
                acc = ("acc", i, j, k)
                dg.add_op(
                    acc,
                    "mac",
                    {"a": prev, "b": ("in", i, k), "c": v(k, j)},
                    pos=(j, i, k),
                    tag="compute",
                    axes={"a": Axis.HORIZONTAL, "c": Axis.VERTICAL},
                )
                prev = acc
            dg.add_op(("neg", i, j), "neg", {"a": prev}, pos=(j, i, j), tag="compute")
            dg.add_op(
                ("div", i, j),
                "mul",
                {"a": ("neg", i, j), "b": ("vd", i)},
                pos=(j, i, j),
                tag="compute",
            )
    for i in range(n):
        for j in range(i, n):
            dg.add_output(("out", i, j), v(i, j), pos=(n, i, j))
    return dg.freeze()


def triangular_inverse_inputs(u: np.ndarray) -> dict[NodeId, Any]:
    """Input environment from an upper-triangular matrix."""
    n = u.shape[0]
    if not np.allclose(u, np.triu(u)):
        raise ValueError("matrix must be upper triangular")
    return {("in", i, j): float(u[i, j]) for i in range(n) for j in range(i, n)}


def run_triangular_inverse(u: np.ndarray) -> np.ndarray:
    """Evaluate the graph; returns ``U^{-1}`` (upper triangular)."""
    n = u.shape[0]
    dg = triangular_inverse_graph(n)
    outs = evaluate(dg, triangular_inverse_inputs(u), REAL)
    inv = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            inv[i, j] = outs[("out", i, j)]
    return inv


def _group_by_result_column(dg: DependenceGraph, nid: NodeId) -> GNodeId | None:
    if not dg.kind(nid).occupies_slot:
        return None
    j = dg.pos(nid)[0]
    return (0, j)


def triangular_inverse_ggraph(n: int) -> GGraph:
    """One G-node per result column; times grow quadratically with ``j``."""
    return GGraph(triangular_inverse_graph(n), _group_by_result_column)
