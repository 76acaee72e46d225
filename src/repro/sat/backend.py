"""``backend="sat"``: solve a scheduling formulation via CNF + CDCL.

:meth:`repro.core.formulation.Formulation.solve` calls
:func:`solve_formulation` for ``backend="sat"``.  It lowers the
formulation's structure to CNF (:mod:`repro.sat.encode`) and never
builds the ILP rows.  The result is a standard
:class:`repro.ilp.Solution`, so extraction, verification, the
supervision layer and the store work unchanged.  Status maps as

* SATISFIABLE -> ``OPTIMAL`` (feasibility objective: any model is
  optimal, objective and bound both 0),
* UNSAT -> ``INFEASIBLE``,
* budget expired -> ``TIME_LIMIT`` (no incumbent — SAT search has no
  anytime relaxation to report).

Every satisfying model is decoded to its ``a``/``k``/``c`` values,
extracted into a schedule and checked by
:func:`repro.core.verify.verify_schedule` before being returned; a
decode that fails the check raises :class:`SolverError`, never a wrong
schedule.  Agreement with HiGHS is a test (``tests/sat/test_backend.py``
lifts every SAT schedule to a point of the ILP).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.core.errors import MappingError, VerificationError
from repro.core.verify import verify_schedule
from repro.ilp.errors import SolverError
from repro.ilp.solution import Solution, SolveStatus
from repro.sat.encode import decode_model, encode_formulation
from repro.sat.solver import SAT, UNSAT, CdclSolver


def solve_formulation(
    formulation, time_limit: Optional[float] = None
) -> Solution:
    """Solve ``formulation``'s feasibility question via CDCL."""
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
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

    search_start = time.monotonic()
    solver = CdclSolver(encoding.cnf.num_vars, encoding.cnf.clauses)
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

    if result.status != SAT:
        return Solution(
            status=(SolveStatus.INFEASIBLE if result.status == UNSAT
                    else SolveStatus.TIME_LIMIT),
            solve_seconds=time.monotonic() - start,
            lower_seconds=encoding.encode_seconds,
            backend="sat",
            stats=stats,
        )

    decode_start = time.monotonic()
    solution = Solution(
        status=SolveStatus.OPTIMAL,
        objective=0.0,
        values=decode_model(formulation, encoding, result.model),
        bound=0.0,
        gap=0.0,
        lower_seconds=encoding.encode_seconds,
        backend="sat",
        stats=stats,
    )
    require_mapping = formulation.options.mapping is not False
    try:
        schedule = formulation.extract(
            solution, require_mapping=require_mapping
        )
        verify_schedule(schedule, check_mapping=require_mapping)
    except (MappingError, VerificationError) as exc:
        raise SolverError(
            f"sat decode produced an invalid schedule ({exc}) — "
            "encoding bug, refusing to return it"
        ) from exc
    stats["sat_decode_seconds"] = round(
        time.monotonic() - decode_start, 6
    )
    solution.solve_seconds = time.monotonic() - start
    return solution
