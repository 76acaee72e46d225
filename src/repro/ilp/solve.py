"""Backend dispatch for :meth:`repro.ilp.Model.solve`."""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.ilp.errors import SolverError
from repro.ilp.model import Model, Variable
from repro.ilp.solution import Solution

_BACKENDS = ("auto", "highs", "bnb", "sat")


def _validate_time_limit(value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SolverError(
            f"time_limit must be a positive number, got {value!r}"
        )
    if math.isnan(value) or value <= 0:
        raise SolverError(f"time_limit must be > 0, got {value!r}")


def solve(
    model: Model,
    backend: str = "auto",
    time_limit: Optional[float] = None,
    mip_start: Optional[Dict[Variable, float]] = None,
) -> Solution:
    """Solve ``model`` with the chosen backend.

    ``auto`` is HiGHS.  Bad parameters fail fast here with
    :class:`SolverError` instead of surfacing as opaque backend errors
    (or, worse, being silently accepted — scipy treats a negative time
    limit as "no limit").

    ``mip_start`` optionally seeds any backend with a feasible integer
    assignment (see :func:`repro.ilp.standard.start_vector`); an invalid
    start is ignored, never an error.
    """
    if backend not in _BACKENDS:
        raise SolverError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )
    if time_limit is not None:
        _validate_time_limit(time_limit)
    return _dispatch(model, backend, time_limit, mip_start)


def _dispatch(
    model: Model,
    backend: str,
    time_limit: Optional[float],
    mip_start: Optional[Dict[Variable, float]],
) -> Solution:
    if backend == "sat":
        from repro.sat.backend import solve_sat

        return _checked(solve_sat(model, time_limit=time_limit,
                                  mip_start=mip_start))
    if backend == "bnb":
        from repro.ilp.branch_bound import solve_bnb

        return _checked(solve_bnb(model, time_limit=time_limit,
                                  mip_start=mip_start))
    from repro.ilp.highs import solve_highs

    return _checked(solve_highs(model, time_limit=time_limit,
                                mip_start=mip_start))


def _checked(solution: Solution) -> Solution:
    """Fault-injection seam: optionally corrupt a backend's solution.

    With a ``malformed@solve`` fault armed (see
    :mod:`repro.supervision.faults`) the returned solution is mangled —
    missing variables, fractional values — so tests can prove the
    downstream extraction/verification layers reject garbage instead of
    silently scheduling from it.  A no-op unless the fault env var is
    set.
    """
    from repro.supervision import faults

    if solution.values and faults.should_corrupt("solve"):
        return faults.corrupt_solution(solution)
    return solution
