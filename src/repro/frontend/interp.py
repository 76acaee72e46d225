"""Reference interpreter for the loop DSL.

Executes a parsed loop sequentially — the ground-truth semantics against
which the dataflow execution of the *compiled* DDG is validated
(:mod:`repro.sim.functional`).  Arrays are Python lists indexed by
``induction + offset``; out-of-range accesses read 0.0 and ignore
writes (loops touch a bounded window around the trip range, so the
comparison harness sizes arrays with a margin instead of modelling
boundary conditions).
"""

from __future__ import annotations

from typing import Dict, List

from repro.frontend.ast_nodes import (
    ArrayRef,
    BinOp,
    Const,
    LoopAst,
    Operand,
    ScalarRef,
)
from repro.frontend.errors import FrontendError


def run_loop(
    ast: LoopAst,
    arrays: Dict[str, List[float]],
    scalars: Dict[str, float],
    iterations: int,
) -> None:
    """Execute ``iterations`` iterations in place.

    ``arrays`` and ``scalars`` are mutated; scalars referenced before
    assignment must be pre-seeded (a missing one raises, mirroring the
    front end's loop-invariant/recurrence analysis expectations).
    """
    for i in range(iterations):
        for statement in ast.body:
            value = _eval(statement.expr, i, arrays, scalars)
            target = statement.target
            if isinstance(target, ScalarRef):
                scalars[target.name] = value
            else:
                _store(arrays, target, i, value)


def _eval(node: Operand, i: int, arrays, scalars) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, ScalarRef):
        try:
            return scalars[node.name]
        except KeyError:
            raise FrontendError(
                f"scalar {node.name!r} read before initialization"
            ) from None
    if isinstance(node, ArrayRef):
        return _load(arrays, node, i)
    if isinstance(node, BinOp):
        left = _eval(node.left, i, arrays, scalars)
        right = _eval(node.right, i, arrays, scalars)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right if right != 0 else 0.0
        raise FrontendError(f"unknown operator {node.op!r}")
    raise FrontendError(f"cannot evaluate {node!r}")


def _load(arrays, ref: ArrayRef, i: int) -> float:
    data = arrays.setdefault(ref.name, [])
    index = i + ref.offset
    if 0 <= index < len(data):
        return data[index]
    return 0.0


def _store(arrays, ref: ArrayRef, i: int, value: float) -> None:
    data = arrays.setdefault(ref.name, [])
    index = i + ref.offset
    if 0 <= index < len(data):
        data[index] = value
