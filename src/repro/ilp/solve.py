"""Parameter checks and HiGHS dispatch for :meth:`repro.ilp.Model.solve`.

Rows go to HiGHS only.  The SAT backend reads the scheduling
formulation's structure rather than rows, so
:meth:`repro.core.formulation.Formulation.solve` picks between the two.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.ilp.errors import SolverError
from repro.ilp.model import Model, Variable
from repro.ilp.solution import Solution

#: Every accepted ``backend`` value; ``auto`` is HiGHS.
ILP_BACKENDS = ("auto", "highs")


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
    """Solve ``model`` with HiGHS.

    Bad parameters fail fast here with :class:`SolverError` instead of
    surfacing as opaque backend errors (or, worse, being silently
    accepted — scipy treats a negative time limit as "no limit").

    ``mip_start`` optionally seeds HiGHS with a feasible integer
    assignment (see :func:`repro.ilp.standard.start_vector`); an invalid
    start is ignored, never an error.
    """
    if backend not in ILP_BACKENDS:
        raise SolverError(
            f"unknown backend {backend!r}; expected one of {ILP_BACKENDS}"
        )
    if time_limit is not None:
        _validate_time_limit(time_limit)
    from repro.ilp.highs import solve_highs

    return solve_highs(model, time_limit=time_limit, mip_start=mip_start)
