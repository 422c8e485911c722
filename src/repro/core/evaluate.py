"""Functional evaluation of dependence graphs.

Every stage of the transformation pipeline — from the fully-parallel graph
of Fig. 10 down to the regularized graph of Fig. 16 — must compute the same
function.  This module is the *semantic-equivalence oracle*: it interprets
any :class:`~repro.core.graph.DependenceGraph` by topological order and
returns the output values, so tests can compare each stage against the
Warshall reference on random inputs.

Opcode semantics are resolved here (not stored in the graph) so that the
same graph can be evaluated over different semirings.

Port model: each node's evaluation produces a dict of output-port values.
Op nodes expose ``"out"`` (the computed result) plus each operand under its
role name (the forwarded copy a systolic cell passes to its neighbour).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from .graph import DependenceGraph, GraphError, NodeId, NodeKind
from .semiring import BOOLEAN, Semiring

__all__ = ["evaluate", "evaluate_full", "OPCODE_SEMANTICS"]


def _rotg(a: float, b: float) -> tuple[float, float]:
    """Generate a Givens rotation (c, s) annihilating ``b`` against ``a``."""
    r = math.hypot(a, b)
    if r == 0.0:
        return (1.0, 0.0)
    return (a / r, b / r)


#: opcode -> callable(semiring, **role values) -> result value
OPCODE_SEMANTICS: dict[str, Callable[..., Any]] = {
    "mac": lambda sr, a, b, c: sr.mac(a, b, c),
    "add": lambda sr, a, b: a + b,
    "sub": lambda sr, a, b: a - b,
    "mul": lambda sr, a, b: a * b,
    "div": lambda sr, a, b: a / b,
    "msub": lambda sr, a, b, c: a - b * c,
    "rotg": lambda sr, a, b: _rotg(a, b),
    "rota": lambda sr, a, b, r: r[0] * a + r[1] * b,
    "rotb": lambda sr, a, b, r: -r[1] * a + r[0] * b,
    "neg": lambda sr, a: -a,
    "recip": lambda sr, a: 1.0 / a,
}


def evaluate_full(
    dg: DependenceGraph,
    inputs: Mapping[NodeId, Any],
    semiring: Semiring = BOOLEAN,
) -> dict[NodeId, dict[str, Any]]:
    """Evaluate every node of ``dg``; return per-node output-port tables.

    Parameters
    ----------
    dg:
        The graph to interpret (any pipeline stage).
    inputs:
        Value for each primary-input node id; missing inputs raise
        :class:`~repro.core.graph.GraphError`.
    semiring:
        Algebra used by ``mac`` nodes.  Field opcodes ignore it.
    """
    values: dict[NodeId, dict[str, Any]] = {}

    def read(ref: tuple[NodeId, str]) -> Any:
        src, sport = ref
        return values[src][sport]

    node_data = dg.nodes
    for nid in dg.topological_order():
        d = node_data[nid]
        kind = d["kind"]
        if kind is NodeKind.INPUT:
            if nid not in inputs:
                raise GraphError(f"no value supplied for input {nid!r}")
            values[nid] = {"out": inputs[nid]}
        elif kind is NodeKind.CONST:
            values[nid] = {"out": d["value"]}
        elif kind in (NodeKind.PASS, NodeKind.DELAY, NodeKind.OUTPUT):
            (ref,) = d["operands"].values()
            values[nid] = {"out": read(ref)}
        elif kind is NodeKind.OP:
            opcode = d["opcode"]
            fn = OPCODE_SEMANTICS.get(opcode)
            if fn is None:
                raise GraphError(f"no semantics registered for opcode {opcode!r}")
            roles = {r: read(ref) for r, ref in d["operands"].items()}
            table = dict(roles)  # forwarded operands
            table["out"] = fn(semiring, **roles)
            values[nid] = table
        else:  # pragma: no cover - exhaustive over NodeKind
            raise GraphError(f"cannot evaluate node kind {kind}")
    return values


def evaluate(
    dg: DependenceGraph,
    inputs: Mapping[NodeId, Any],
    semiring: Semiring = BOOLEAN,
) -> dict[NodeId, Any]:
    """Evaluate ``dg`` and return only the primary-output values."""
    values = evaluate_full(dg, inputs, semiring)
    return {nid: values[nid]["out"] for nid in dg.outputs}
