"""Best-first branch-and-bound MILP solver over the pure-python simplex.

Branches on the most-fractional integer variable; nodes are explored in
best-bound order so the incumbent's optimality gap shrinks monotonically.
A wall-clock budget turns the result into ``TIME_LIMIT`` (with the
incumbent attached when one exists), mirroring the 10 s / 30 s budgets the
paper gave its commercial solver.

Search-collapsing machinery (the heuristic-primal pipeline):

* ``mip_start`` — a feasible integer assignment (typically converted from
  an iterative-modulo schedule by :mod:`repro.core.warmstart`) becomes the
  root incumbent, so pruning starts before the first branch.  For a pure
  feasibility model the start *is* optimal and the search never expands a
  node.
* **Lazy nodes** — a child is pushed carrying only its branching bounds
  and the parent's LP objective (a valid lower bound for the subtree);
  the child's own LP is solved when it is popped.  Nodes pruned by a
  later incumbent therefore never pay an LP solve and never hold an
  ``x`` copy, and the parent's relaxation does the work of bounding both
  children.
* **Primal heuristics** — a bounded rounding dive from the root LP point
  supplies an incumbent when none was given, and every fractional node
  gets a snap-and-check rounding probe (one sparse mat-vec) that often
  finds integer points long before branching reaches them.
* **Dual bound** — the minimum bound among open nodes is maintained to
  the end, so timed-out solves report how close they were
  (:attr:`Solution.bound` / :attr:`Solution.gap`) instead of ``None``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.ilp.model import Model, Variable
from repro.ilp.simplex import LpEngine, LpResult
from repro.ilp.solution import MIP_GAP, Solution, SolveStatus, relative_gap
from repro.ilp.standard import ArrayForm, start_vector, to_arrays

#: A variable value within this distance of an integer counts as integral.
INT_TOL = 1e-6

#: Constraint-violation tolerance for the rounding probe.
ROW_TOL = 1e-6

#: Cap on LP re-solves a single root dive may spend.
DIVE_LIMIT = 60

#: A node LP solver: (lb, ub) -> LpResult.
NodeLp = Callable[[Optional[np.ndarray], Optional[np.ndarray]], LpResult]


@dataclass(order=True)
class _Node:
    """An open subproblem.

    ``bound`` is the parent's LP objective — a valid lower bound for this
    subtree — not the node's own relaxation, which is solved lazily on
    pop.  Only the root carries its LP point in ``x``; branched children
    store just the two bound vectors.
    """

    bound: float
    tie: int
    lb: np.ndarray = field(compare=False)
    ub: np.ndarray = field(compare=False)
    x: Optional[np.ndarray] = field(compare=False, default=None)


def _most_fractional(x: np.ndarray, integrality: np.ndarray) -> Optional[int]:
    """Index of the integer variable farthest from integrality, or None."""
    fractional = np.abs(x - np.round(x))
    fractional[~integrality] = -1.0
    j = int(np.argmax(fractional))
    if fractional[j] > INT_TOL:
        return j
    return None


def _round_probe(
    form: ArrayForm,
    x: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> Optional[np.ndarray]:
    """Snap the LP point to integers; return it if it satisfies all rows."""
    snapped = x.copy()
    snapped[form.integrality] = np.round(snapped[form.integrality])
    np.clip(snapped, lb, ub, out=snapped)
    if np.any(np.abs(
        snapped[form.integrality] - np.round(snapped[form.integrality])
    ) > INT_TOL):
        return None
    if form.num_rows:
        ax = form.a_csr @ snapped
        if (np.any(ax < form.row_lower - ROW_TOL)
                or np.any(ax > form.row_upper + ROW_TOL)):
            return None
    return snapped


def _dive(
    form: ArrayForm,
    node_lp: NodeLp,
    x: np.ndarray,
    deadline: Optional[float],
) -> Tuple[Optional[np.ndarray], int]:
    """Depth-first rounding dive: fix the most-fractional variable to its
    nearest integer and re-solve, until integral or stuck.  Returns the
    integral point (or None) and the number of LPs spent."""
    lb = form.lb.copy()
    ub = form.ub.copy()
    lps = 0
    point = x
    for _ in range(DIVE_LIMIT):
        j = _most_fractional(point, form.integrality)
        if j is None:
            return point, lps
        if deadline is not None and time.monotonic() > deadline:
            return None, lps
        pinned = min(max(round(point[j]), lb[j]), ub[j])
        lb[j] = ub[j] = pinned
        result = node_lp(lb, ub)
        lps += 1
        if result.status != "optimal":
            return None, lps
        point = result.x
    return None, lps


def solve_bnb(
    model: Model,
    time_limit: Optional[float] = None,
    node_limit: int = 200000,
    mip_start: Optional[Dict[Variable, float]] = None,
) -> Solution:
    """Solve ``model`` with branch-and-bound; returns a :class:`Solution`.

    Node relaxations are re-solved on one warm
    :class:`~repro.ilp.simplex.LpEngine` (a live tableau retargeted by
    dual simplex across nodes).  No dense matrix is ever
    materialized — a model settled by its start or an infeasible root
    pays only the CSR lowering.
    """
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    form = to_arrays(model)
    node_lp = LpEngine(form).solve
    lower_seconds = time.monotonic() - start
    counter = itertools.count()

    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = math.inf
    x0 = start_vector(model, form, mip_start)
    if x0 is not None:
        incumbent_x = x0
        incumbent_obj = float(form.c @ x0 + form.c0)

    root = node_lp(None, None)
    if root.status == "infeasible":
        # An LP-infeasible model cannot have had a valid start; the
        # start validator already rejected anything row-violating.
        return _finish(model, form, SolveStatus.INFEASIBLE, None, None,
                       None, start, 1, lower_seconds)
    if root.status == "unbounded":
        return _finish(model, form, SolveStatus.UNBOUNDED, None, None,
                       None, start, 1, lower_seconds)
    if root.status != "optimal":
        if incumbent_x is not None:
            return _finish(model, form, SolveStatus.FEASIBLE, incumbent_x,
                           incumbent_obj, None, start, 1, lower_seconds)
        return _finish(model, form, SolveStatus.ERROR, None, None, None,
                       start, 1, lower_seconds)

    nodes = 1
    heap = [
        _Node(root.objective, next(counter), form.lb.copy(), form.ub.copy(),
              root.x)
    ]

    if (incumbent_x is None
            and _most_fractional(root.x, form.integrality) is not None):
        dived, dive_lps = _dive(form, node_lp, root.x, deadline)
        nodes += dive_lps
        if dived is not None:
            incumbent_x = dived
            incumbent_obj = float(form.c @ dived + form.c0)

    timed_out = False
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            break
        if nodes >= node_limit:
            timed_out = True
            break
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - MIP_GAP:
            continue  # cannot improve the incumbent; LP never solved
        if node.x is not None:
            lp_obj, x = node.bound, node.x
        else:
            result = node_lp(node.lb, node.ub)
            nodes += 1
            if result.status != "optimal":
                continue
            lp_obj, x = result.objective, result.x
            if lp_obj >= incumbent_obj - MIP_GAP:
                continue
        branch_var = _most_fractional(x, form.integrality)
        if branch_var is None:
            # Integral LP optimum: new incumbent.
            incumbent_obj = lp_obj
            incumbent_x = x
            continue
        probe = _round_probe(form, x, node.lb, node.ub)
        if probe is not None:
            probe_obj = float(form.c @ probe + form.c0)
            if probe_obj < incumbent_obj - MIP_GAP:
                incumbent_obj = probe_obj
                incumbent_x = probe
        value = x[branch_var]
        for direction in ("down", "up"):
            child_lb = node.lb.copy()
            child_ub = node.ub.copy()
            if direction == "down":
                child_ub[branch_var] = math.floor(value)
            else:
                child_lb[branch_var] = math.ceil(value)
            if child_lb[branch_var] > child_ub[branch_var]:
                continue
            heapq.heappush(
                heap,
                _Node(lp_obj, next(counter), child_lb, child_ub),
            )

    open_bound: Optional[float] = None
    if heap:
        open_bound = min(node.bound for node in heap)
    if incumbent_x is not None:
        if open_bound is None:
            status = SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL
            bound = incumbent_obj
        else:
            status = SolveStatus.FEASIBLE
            bound = min(open_bound, incumbent_obj)
        return _finish(model, form, status, incumbent_x, incumbent_obj,
                       bound, start, nodes, lower_seconds)
    if timed_out:
        return _finish(model, form, SolveStatus.TIME_LIMIT, None, None,
                       open_bound, start, nodes, lower_seconds)
    return _finish(model, form, SolveStatus.INFEASIBLE, None, None, None,
                   start, nodes, lower_seconds)


def _finish(
    model: Model,
    form: ArrayForm,
    status: SolveStatus,
    x: Optional[np.ndarray],
    minimized_obj: Optional[float],
    minimized_bound: Optional[float],
    start: float,
    nodes: int,
    lower_seconds: float = 0.0,
) -> Solution:
    values = {}
    objective = None
    bound = None
    if x is not None:
        snapped = x.copy()
        snapped[form.integrality] = np.round(snapped[form.integrality])
        values = {var: float(snapped[var.index]) for var in model.variables}
        objective = form.user_objective(float(minimized_obj))
    if minimized_bound is not None:
        bound = form.user_objective(float(minimized_bound))
    return Solution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        gap=relative_gap(objective, bound),
        solve_seconds=time.monotonic() - start,
        lower_seconds=lower_seconds,
        nodes=nodes,
        backend="bnb",
    )
