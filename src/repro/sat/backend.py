"""``backend="sat"``: solve a scheduling formulation via CNF + CDCL.

Entry points mirror :mod:`repro.ilp.highs`: the result is a standard
:class:`repro.ilp.Solution`, so extraction, verification, warm starts,
the supervision layer and the store all work unchanged.  Status maps as

* SATISFIABLE -> ``OPTIMAL`` (feasibility objective: any model is
  optimal, objective and bound both 0),
* UNSAT -> ``INFEASIBLE``,
* budget expired -> ``TIME_LIMIT`` (no incumbent — SAT search has no
  anytime relaxation to report).

Every satisfying model is decoded to a full ILP assignment and checked
row-by-row against the built model before being returned
(:func:`repro.core.warmstart.violated_rows`), which makes cross-backend
agreement structural: a decode that violated any ILP row would raise,
never silently return a different schedule space.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.ilp.errors import SolverError
from repro.ilp.model import Model, Variable
from repro.ilp.solution import Solution, SolveStatus
from repro.sat.encode import (
    decode_model,
    encode_formulation,
    phase_hints,
    require_feasibility,
)
from repro.sat.solver import SAT, UNSAT, CdclSolver


def solve_sat(
    model: Model,
    time_limit: Optional[float] = None,
    mip_start: Optional[Dict[Variable, float]] = None,
) -> Solution:
    """Backend-dispatch entry point (called by :func:`repro.ilp.solve.solve`)."""
    formulation = getattr(model, "_formulation", None)
    if formulation is None or formulation.model is not model:
        raise SolverError(
            "the sat backend lowers the scheduling formulation, not "
            "bare rows; build the model through "
            "repro.core.Formulation (bare Models are ILP-only)"
        )
    return solve_formulation(
        formulation, time_limit=time_limit, mip_start=mip_start
    )


def solve_formulation(
    formulation,
    time_limit: Optional[float] = None,
    mip_start: Optional[Dict[Variable, float]] = None,
    assumptions: Optional[Sequence[int]] = None,
) -> Solution:
    """Solve a built formulation's feasibility question via CDCL.

    ``mip_start``: a *valid* start short-circuits to ``OPTIMAL``
    immediately (any feasible point is optimal under the constant
    objective — same move as ``ilp/highs.py``); an invalid one seeds
    the CDCL phase store so search begins in its neighborhood.

    ``assumptions``: raw solver literals to pin (see
    :func:`repro.sat.encode.seed_assumptions`); if they conflict the
    solve is retried unassumed, so callers can speculate freely.
    """
    from repro.core.warmstart import violated_rows

    # Before the warm-start shortcut: a valid start proves feasibility,
    # not optimality under a real objective.
    require_feasibility(formulation)
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    formulation.build()

    hints: Optional[Dict[int, bool]] = None
    if mip_start:
        if not violated_rows(formulation, mip_start):
            objective = formulation.model.objective.value(mip_start)
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=objective,
                values=dict(mip_start),
                bound=objective,
                gap=0.0,
                solve_seconds=time.monotonic() - start,
                nodes=0,
                backend="sat",
                stats={"sat_warm_shortcircuit": 1.0},
            )

    encoding = encode_formulation(formulation)
    stats: Dict[str, float] = {
        "sat_encode_seconds": round(encoding.encode_seconds, 6),
        "sat_vars": float(encoding.cnf.num_vars),
        "sat_clauses": float(encoding.cnf.num_clauses),
    }
    if encoding.trivially_unsat:
        return Solution(
            status=SolveStatus.INFEASIBLE,
            solve_seconds=time.monotonic() - start,
            backend="sat",
            stats=stats,
        )
    if mip_start:
        # The start was invalid for this model (or this T): keep it as
        # phase hints only.
        hints = phase_hints(encoding, mip_start, formulation)

    search_start = time.monotonic()
    solver = CdclSolver(
        encoding.cnf.num_vars,
        encoding.cnf.clauses,
        phase_hints=hints,
    )
    remaining = (
        None if deadline is None
        else max(0.001, deadline - time.monotonic())
    )
    result = solver.solve(
        assumptions=assumptions or (), time_limit=remaining
    )
    if result.assumption_conflict:
        # Speculative pinning failed; the answer must come unassumed.
        remaining = (
            None if deadline is None
            else max(0.001, deadline - time.monotonic())
        )
        result = solver.solve(time_limit=remaining)
    stats["sat_search_seconds"] = round(
        time.monotonic() - search_start, 6
    )
    for key, value in result.stats.as_dict().items():
        stats[f"sat_{key}"] = float(value)
    stats.pop("sat_solve_seconds", None)

    if result.status == UNSAT:
        return Solution(
            status=SolveStatus.INFEASIBLE,
            solve_seconds=time.monotonic() - start,
            lower_seconds=encoding.encode_seconds,
            backend="sat",
            stats=stats,
        )
    if result.status != SAT:
        return Solution(
            status=SolveStatus.TIME_LIMIT,
            solve_seconds=time.monotonic() - start,
            lower_seconds=encoding.encode_seconds,
            backend="sat",
            stats=stats,
        )

    decode_start = time.monotonic()
    values = decode_model(formulation, encoding, result.model)
    bad = violated_rows(formulation, values)
    stats["sat_decode_seconds"] = round(
        time.monotonic() - decode_start, 6
    )
    if bad:
        shown: List[str] = bad[:5]
        raise SolverError(
            "sat decode produced an assignment violating "
            f"{len(bad)} model row(s): {shown} — encoding bug, "
            "refusing to return it"
        )
    objective = formulation.model.objective.value(values)
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        bound=objective,
        gap=0.0,
        solve_seconds=time.monotonic() - start,
        lower_seconds=encoding.encode_seconds,
        backend="sat",
        stats=stats,
    )
