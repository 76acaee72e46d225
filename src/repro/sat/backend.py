"""``backend="sat"``: solve a scheduling formulation via CNF + CDCL.

:meth:`repro.core.formulation.Formulation.solve` calls
:func:`solve_formulation` for ``backend="sat"``.  It lowers the
formulation's structure to CNF (:mod:`repro.sat.encode`) and never
builds the ILP rows.  The kernel branches like a list scheduler: it is
seeded with every op's slot literals (:func:`decision_order`: ops in
index order, slots ascending, each preferred true), so its first
decisions place op after op in the earliest slot left to it, with the
stage literals at their default ``False``, the lowest stage.  After the
first conflict VSIDS takes over.  The order changes which model is
found, never whether one exists.  The result is a standard
:class:`repro.ilp.Solution`, so extraction, verification, the
supervision layer and the store work unchanged.  Status maps as

* SATISFIABLE -> ``OPTIMAL`` (feasibility objective: any model is
  optimal, objective and bound both 0),
* UNSAT -> ``INFEASIBLE``,
* budget expired -> ``TIME_LIMIT`` (no incumbent — SAT search has no
  anytime relaxation to report).

A period presolve ruled out never gets here: ``Formulation.solve``
answers it first.  A satisfying model is decoded to its ``a``/``k``/``c``
values and returned unchecked, like a HiGHS answer:
:func:`repro.core.scheduler.attempt_period` extracts and verifies every
backend's schedule, once.  Agreement with HiGHS is a test
(``tests/sat/test_backend.py`` lifts every SAT schedule to a point of
the ILP).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.ilp.solution import Solution, SolveStatus
from repro.sat.encode import SatEncoding, decode_model, encode_formulation
from repro.sat.solver import SAT, UNSAT, CdclSolver


def decision_order(encoding: SatEncoding) -> List[int]:
    """Every op's slot literals: ops in index order, slots ascending."""
    return [lit for lits in encoding.slot_lits for lit in lits.values()]


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
    search_start = time.monotonic()
    solver = CdclSolver(encoding.cnf.num_vars, encoding.cnf.clauses,
                        prefer=decision_order(encoding))
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
    values = decode_model(formulation, encoding, result.model)
    stats["sat_decode_seconds"] = round(
        time.monotonic() - decode_start, 6
    )
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=0.0,
        values=values,
        bound=0.0,
        gap=0.0,
        solve_seconds=time.monotonic() - start,
        lower_seconds=encoding.encode_seconds,
        backend="sat",
        stats=stats,
    )
