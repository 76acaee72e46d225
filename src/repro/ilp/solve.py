"""Backend dispatch for :meth:`repro.ilp.Model.solve`.

Also owns the **per-process time budget**: worker processes spawned by
:mod:`repro.parallel` call :func:`set_process_time_budget` once (via the
pool initializer) and every subsequent solve in that process is capped at
the budget, so a runaway solve cannot exceed the wall-clock its period
attempt was granted — even if an individual call passes a larger (or no)
``time_limit``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.ilp.errors import SolverError
from repro.ilp.model import Model, Variable
from repro.ilp.solution import Solution

_BACKENDS = ("auto", "highs", "bnb", "sat")

#: Process-wide cap on any single solve's time limit (None = uncapped).
_PROCESS_TIME_BUDGET: Optional[float] = None


def set_process_time_budget(seconds: Optional[float]) -> None:
    """Cap every solve in this process at ``seconds`` (None to uncap)."""
    global _PROCESS_TIME_BUDGET
    if seconds is not None:
        _validate_time_limit(seconds, "process time budget")
    _PROCESS_TIME_BUDGET = seconds


def process_time_budget() -> Optional[float]:
    """The current process-wide solve cap, if any."""
    return _PROCESS_TIME_BUDGET


def _validate_time_limit(value: float, label: str = "time_limit") -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SolverError(f"{label} must be a positive number, got {value!r}")
    if math.isnan(value) or value <= 0:
        raise SolverError(f"{label} must be > 0, got {value!r}")


def solve(
    model: Model,
    backend: str = "auto",
    time_limit: Optional[float] = None,
    gap: float = 1e-6,
    mip_start: Optional[Dict[Variable, float]] = None,
) -> Solution:
    """Solve ``model`` with the chosen backend.

    ``auto`` prefers HiGHS (fast, production) and falls back to the
    built-in branch-and-bound when scipy's MILP interface is unavailable.
    Bad parameters fail fast here with :class:`SolverError` instead of
    surfacing as opaque backend errors (or, worse, being silently
    accepted — scipy treats a negative time limit as "no limit").

    ``mip_start`` optionally seeds either backend with a feasible integer
    assignment (see :func:`repro.ilp.standard.start_vector`); an invalid
    start is ignored, never an error.
    """
    if backend not in _BACKENDS:
        raise SolverError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )
    if time_limit is not None:
        _validate_time_limit(time_limit)
    if not isinstance(gap, (int, float)) or isinstance(gap, bool):
        raise SolverError(f"gap must be a number >= 0, got {gap!r}")
    if math.isnan(gap) or gap < 0:
        raise SolverError(f"gap must be >= 0, got {gap!r}")
    requested = time_limit
    if _PROCESS_TIME_BUDGET is not None:
        time_limit = (
            _PROCESS_TIME_BUDGET
            if time_limit is None
            else min(time_limit, _PROCESS_TIME_BUDGET)
        )
    solution = _dispatch(model, backend, time_limit, gap, mip_start)
    # Record the budget the backend actually ran under — the process
    # cap must not silently shrink a caller's limit (deadline
    # accounting reads these).
    solution.effective_time_limit = time_limit
    solution.time_limit_clamped = (
        requested is not None
        and time_limit is not None
        and time_limit < requested
    )
    return solution


def _dispatch(
    model: Model,
    backend: str,
    time_limit: Optional[float],
    gap: float,
    mip_start: Optional[Dict[Variable, float]],
) -> Solution:
    if backend == "sat":
        from repro.sat.backend import solve_sat

        return _checked(solve_sat(model, time_limit=time_limit,
                                  gap=gap, mip_start=mip_start))
    if backend in ("auto", "highs"):
        try:
            from repro.ilp.highs import solve_highs

            return _checked(solve_highs(model, time_limit=time_limit,
                                        gap=gap, mip_start=mip_start))
        except ImportError:
            if backend == "highs":
                raise SolverError("scipy.optimize.milp is not available")
    from repro.ilp.branch_bound import solve_bnb

    return _checked(solve_bnb(model, time_limit=time_limit, gap=gap,
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
