"""Solver results: status enum and solution object."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.ilp.model import ExprLike, Variable


class SolveStatus(enum.Enum):
    """Outcome of a solve call.

    ``TIME_LIMIT`` means the budget expired before optimality was proven;
    an incumbent may or may not be attached.  The paper's experiments use
    exactly this distinction (loops solved within the 10 s / 30 s budgets).
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


#: Optimality tolerance of the MILP backends: HiGHS's relative
#: ``mip_rel_gap`` and branch and bound's pruning slack.
MIP_GAP = 1e-6


def relative_gap(
    objective: Optional[float], bound: Optional[float]
) -> Optional[float]:
    """Relative optimality gap ``|obj - bound| / max(1, |obj|)``.

    ``math.inf`` when a dual bound exists but no incumbent does (the
    honest answer for a timed-out solve that found nothing); ``None``
    only when there is no bound to measure against.
    """
    if bound is None:
        return None
    if objective is None:
        return math.inf
    return abs(objective - bound) / max(1.0, abs(objective))


@dataclass
class Solution:
    """Result of solving a :class:`repro.ilp.Model`."""

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict["Variable", float] = field(default_factory=dict)
    bound: Optional[float] = None
    #: Relative optimality gap (see :func:`relative_gap`); populated
    #: whenever the backend produced a dual bound.
    gap: Optional[float] = None
    solve_seconds: float = 0.0
    #: Portion of ``solve_seconds`` spent lowering the model to arrays.
    lower_seconds: float = 0.0
    nodes: int = 0
    backend: str = ""
    #: Backend-specific counters (e.g. the SAT backend's conflict /
    #: learned-clause / phase-seconds numbers), merged into the
    #: attempt's ``model_stats`` by the scheduler.
    stats: Dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status.has_solution

    def __getitem__(self, var: "Variable") -> float:
        return self.values[var]

    def value(self, expr: "ExprLike") -> float:
        """Evaluate a variable or expression under this solution."""
        from repro.ilp.model import LinExpr

        return LinExpr.coerce(expr).value(self.values)

    def int_value(self, var: "Variable") -> int:
        """Value of an integer variable rounded to the nearest integer."""
        raw = self.values[var]
        rounded = round(raw)
        if abs(raw - rounded) > 1e-4:
            raise ValueError(
                f"variable {var.name} has non-integral value {raw!r}"
            )
        return int(rounded)

    def __repr__(self) -> str:
        return (
            f"Solution({self.status.value}, obj={self.objective}, "
            f"backend={self.backend!r}, {self.solve_seconds:.3f}s)"
        )
