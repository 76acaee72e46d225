"""HiGHS backend via :func:`scipy.optimize.milp`.

This is the production solver: the paper used IBM OSL with 10 s / 30 s
budgets; HiGHS plays that role here with identical semantics (statuses map
to :class:`repro.ilp.SolveStatus`, the time budget maps to
``TIME_LIMIT``).

scipy's ``milp`` wrapper exposes no MIP-start parameter — and no basis
I/O either (HiGHS itself has ``setSolution``/``setBasis``, but the scipy
surface carries neither) — so hints are injected by the two moves the
wrapper does allow:

* a **feasibility model** (constant objective) is answered from the start
  directly — any feasible integer point is optimal, no solve needed;
* otherwise an **objective cutoff row** ``c @ x <= c @ x0`` is appended,
  which lets HiGHS's own presolve/bounding discard everything worse than
  the incumbent, and if the budget still expires without HiGHS finding a
  point, the validated start itself is returned as the ``FEASIBLE``
  fallback instead of an empty ``TIME_LIMIT``.

Each period of the T-sweep is an independent solve: no LP basis or
certificate crosses from one period to the next, and the cutoff-row
adapter above is the only solution-hint channel.  HiGHS keeps its own
internal node warm-starting, which this wrapper neither sees nor needs
to manage.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.model import Model, Variable
from repro.ilp.solution import MIP_GAP, Solution, SolveStatus, relative_gap
from repro.ilp.standard import start_vector, to_arrays

#: Slack added to the incumbent cutoff so the start itself stays feasible.
CUTOFF_EPS = 1e-6


def solve_highs(
    model: Model,
    time_limit: Optional[float] = None,
    mip_start: Optional[Dict[Variable, float]] = None,
) -> Solution:
    """Solve ``model`` with scipy's HiGHS MILP interface."""
    start = time.monotonic()
    form = to_arrays(model)
    lower_seconds = time.monotonic() - start
    options = {"mip_rel_gap": MIP_GAP}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    x0 = start_vector(model, form, mip_start)
    inc_obj = None if x0 is None else float(form.c @ x0 + form.c0)
    if x0 is not None and not np.any(form.c):
        # Pure feasibility: the validated start is already optimal.
        return _from_vector(
            model, form, SolveStatus.OPTIMAL, x0,
            bound=form.user_objective(inc_obj),
            start=start, lower_seconds=lower_seconds, nodes=0,
        )

    constraints = []
    if form.num_rows:
        # ArrayForm is already sparse; hand the CSR matrix straight to
        # HiGHS instead of round-tripping through a dense tableau.
        constraints.append(
            LinearConstraint(form.a_csr, form.row_lower, form.row_upper)
        )
    if x0 is not None:
        cutoff = (form.c @ x0) + CUTOFF_EPS * max(1.0, abs(inc_obj))
        constraints.append(
            LinearConstraint(form.c[np.newaxis, :], -np.inf, cutoff)
        )
    result = milp(
        c=form.c,
        constraints=constraints,
        integrality=form.integrality.astype(int),
        bounds=Bounds(form.lb, form.ub),
        options=options,
    )
    elapsed = time.monotonic() - start

    status = _map_status(result)
    bound = None
    if getattr(result, "mip_dual_bound", None) is not None:
        # With the cutoff row the dual bound is computed on a restricted
        # feasible set whose optimum equals the original one (the start
        # witnesses that the original optimum is within the cutoff), so
        # it remains a valid bound for the original model.
        bound = form.user_objective(float(result.mip_dual_bound))
    if x0 is not None and not status.has_solution:
        # HiGHS found nothing under the budget (or declared the cutoff
        # region empty, which the start refutes up to tolerance): fall
        # back to the incumbent.  INFEASIBLE-under-cutoff proves no
        # point beats the start, i.e. the start is optimal.
        fallback = (
            SolveStatus.OPTIMAL if status == SolveStatus.INFEASIBLE
            else SolveStatus.FEASIBLE
        )
        if fallback == SolveStatus.OPTIMAL:
            bound = form.user_objective(inc_obj)
        return _from_vector(
            model, form, fallback, x0, bound=bound, start=start,
            lower_seconds=lower_seconds,
            nodes=int(getattr(result, "mip_node_count", 0) or 0),
        )
    values = {}
    objective = None
    if result.x is not None and status.has_solution:
        x = np.asarray(result.x, dtype=float)
        x[form.integrality] = np.round(x[form.integrality])
        values = {var: float(x[var.index]) for var in model.variables}
        objective = form.user_objective(float(form.c @ x) + form.c0)
    if status == SolveStatus.OPTIMAL and bound is None:
        bound = objective
    return Solution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        gap=relative_gap(objective, bound),
        solve_seconds=elapsed,
        lower_seconds=lower_seconds,
        nodes=int(getattr(result, "mip_node_count", 0) or 0),
        backend="highs",
    )


def _from_vector(
    model: Model,
    form,
    status: SolveStatus,
    x: np.ndarray,
    bound: Optional[float],
    start: float,
    lower_seconds: float,
    nodes: int,
) -> Solution:
    values = {var: float(x[var.index]) for var in model.variables}
    objective = form.user_objective(float(form.c @ x) + form.c0)
    return Solution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        gap=relative_gap(objective, bound),
        solve_seconds=time.monotonic() - start,
        lower_seconds=lower_seconds,
        nodes=nodes,
        backend="highs",
    )


def _map_status(result) -> SolveStatus:
    # scipy milp status codes: 0 optimal, 1 iteration/time limit,
    # 2 infeasible, 3 unbounded, 4 other.
    code = int(result.status)
    if code == 0:
        return SolveStatus.OPTIMAL
    if code == 1:
        return (
            SolveStatus.FEASIBLE if result.x is not None
            else SolveStatus.TIME_LIMIT
        )
    if code == 2:
        return SolveStatus.INFEASIBLE
    if code == 3:
        return SolveStatus.UNBOUNDED
    return SolveStatus.ERROR
