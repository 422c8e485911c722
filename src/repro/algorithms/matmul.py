"""Dependence graph of matrix multiplication ``C = A @ B``.

Matrix product is the canonical *uniform* matrix algorithm: every G-node
of its G-graph has the same computation time, so it partitions as cleanly
as transitive closure.  It is used here

* as the substrate of the Núñez-Torralba baseline (their transitive-
  closure partitioning decomposes into sequences of matrix
  multiplications, ref. [22]);
* as the workload of the Fig. 3 band-decomposition scheme (Navarro);
* as a second algorithm exercising the generic partitioning pipeline.

The generator emits the already-pipelined form (broadcasts of ``A`` rows
and ``B`` columns replaced by chains through the ``mac`` nodes' forwarding
ports), with positions ``(k, i, j)`` — accumulation level, row, column.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..core.graph import Axis, DependenceGraph, GraphError, NodeId, port
from ..core.semiring import REAL
from ..core.evaluate import evaluate

__all__ = [
    "matmul_graph",
    "matmul_inputs",
    "read_matmul_output",
    "run_matmul",
    "matmul_group_by_columns",
    "matmul_ggraph",
]


def matmul_graph(n: int, p: int | None = None, q: int | None = None) -> DependenceGraph:
    """Pipelined FPDG of ``C[i,j] = sum_k A[i,k] * B[k,j]``.

    ``A`` is ``n x p``, ``B`` is ``p x q``; defaults give square ``n``.
    Node ``("op", k, i, j)`` performs ``acc + A[i,k]*B[k,j]``; the
    ``A[i,k]`` value is pipelined along row ``i`` (port ``b``), the
    ``B[k,j]`` value down column ``j`` (port ``c``), and the accumulator
    flows through levels (port ``a`` / ``out``).
    """
    p = n if p is None else p
    q = n if q is None else q
    if min(n, p, q) < 1:
        raise GraphError(f"matrix dimensions must be positive, got {(n, p, q)}")
    dg = DependenceGraph(f"matmul({n}x{p} @ {p}x{q})")
    for i in range(n):
        for k in range(p):
            dg.add_input(("a", i, k), pos=(-1, i, k))
    for k in range(p):
        for j in range(q):
            dg.add_input(("b", k, j), pos=(-1, k, j))
    for i in range(n):
        for j in range(q):
            dg.add_const(("zero", i, j), 0.0, pos=(-1, i, j))

    for k in range(p):
        for i in range(n):
            for j in range(q):
                acc = ("zero", i, j) if k == 0 else ("op", k - 1, i, j)
                b_src = ("a", i, k) if j == 0 else port(("op", k, i, j - 1), "b")
                c_src = ("b", k, j) if i == 0 else port(("op", k, i - 1, j), "c")
                dg.add_op(
                    ("op", k, i, j),
                    "mac",
                    {"a": acc, "b": b_src, "c": c_src},
                    pos=(k, i, j),
                    tag="compute",
                    axes={"a": Axis.LEVEL, "b": Axis.HORIZONTAL, "c": Axis.VERTICAL},
                )
    for i in range(n):
        for j in range(q):
            dg.add_output(("out", i, j), ("op", p - 1, i, j), pos=(p, i, j))
    return dg.freeze()


def matmul_inputs(a: np.ndarray, b: np.ndarray) -> dict[NodeId, Any]:
    """Input environment for :func:`matmul_graph` from two matrices."""
    n, p = a.shape
    p2, q = b.shape
    if p != p2:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    env: dict[NodeId, Any] = {}
    for i in range(n):
        for k in range(p):
            env[("a", i, k)] = float(a[i, k])
    for k in range(p):
        for j in range(q):
            env[("b", k, j)] = float(b[k, j])
    return env


def read_matmul_output(outputs: Mapping[NodeId, Any], n: int, q: int) -> np.ndarray:
    """Assemble the product matrix from output values."""
    c = np.empty((n, q), dtype=np.float64)
    for i in range(n):
        for j in range(q):
            c[i, j] = outputs[("out", i, j)]
    return c


def run_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate the matmul dependence graph over (+, *) arithmetic."""
    n, _ = a.shape
    _, q = b.shape
    dg = matmul_graph(n, a.shape[1], q)
    outs = evaluate(dg, matmul_inputs(a, b), REAL)
    return read_matmul_output(outs, n, q)


def matmul_group_by_columns(dg, nid):
    """Column-per-level grouping: G-node ``(k, j)``, uniform time ``n``.

    Like transitive closure, matrix product groups into a uniform-time
    2-D G-graph (here with straight down verticals — no skew), so it
    partitions onto linear and mesh arrays with the same machinery; see
    ``tests/algorithms`` for the cycle-simulated proof.
    """
    if not dg.kind(nid).occupies_slot:
        return None
    k, _, j = dg.pos(nid)
    return (k, j)


def matmul_ggraph(n: int, p: int | None = None, q: int | None = None):
    """The G-graph of ``C = A @ B`` under column-per-level grouping."""
    from ..core.ggraph import GGraph

    return GGraph(matmul_graph(n, p, q), matmul_group_by_columns)
