"""Infeasibility diagnosis: *why* is a period impossible?

Reads the chain a scheduling attempt runs (modulo check, presolve,
backend) and reports the first link that rules T out:

1. ``MODULO``     — T violates the modulo scheduling constraint (§3);
2. ``DEPENDENCE`` — presolve's dependence cycle or empty window: the
   recurrences alone forbid T (a critical cycle is the witness);
3. ``CAPACITY``   — presolve's resource floor for the named FU type
   (§4.1), or, past presolve, an infeasible counting relaxation;
4. ``MAPPING``    — no fixed FU assignment exists (§4.2): presolve's
   copy packing, or the full ILP is infeasible while the counting
   relaxation is not (a counting schedule is attached as witness);
5. ``FEASIBLE``   — nothing fails: the period is achievable.

Only a period presolve leaves open is solved.  On the motivating example
at T=3 it answers ``MAPPING``: the paper's §2 story in one word.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.bounds import modulo_feasible_t
from repro.core.errors import MappingError
from repro.core.formulation import Formulation, FormulationOptions
from repro.core.schedule import Schedule, greedy_mapping
from repro.ddg.analysis import critical_cycle
from repro.ddg.graph import Ddg
from repro.ilp.solution import SolveStatus
from repro.machine import Machine


class Reason(enum.Enum):
    FEASIBLE = "feasible"
    MODULO = "modulo scheduling constraint"
    DEPENDENCE = "dependence recurrences"
    CAPACITY = "aggregate stage capacity"
    MAPPING = "fixed FU assignment (coloring)"
    UNKNOWN = "solver budget exhausted"


@dataclass
class Diagnosis:
    """Result of :func:`explain_infeasibility`."""

    t_period: int
    reason: Reason
    detail: str
    critical_ops: List[int]
    counting_schedule: Optional[Schedule] = None

    def render(self, ddg: Ddg) -> str:
        lines = [f"T = {self.t_period}: {self.reason.value}"]
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.critical_ops:
            names = ", ".join(
                ddg.ops[i].name for i in self.critical_ops
            )
            lines.append(f"  involved ops: {names}")
        return "\n".join(lines)


def explain_infeasibility(
    ddg: Ddg,
    machine: Machine,
    t_period: int,
    backend: str = "auto",
    time_limit: Optional[float] = 10.0,
) -> Diagnosis:
    """Diagnose why ``t_period`` fails (or confirm it is feasible)."""

    def found(reason, detail="", ops=(), witness=None) -> Diagnosis:
        return Diagnosis(t_period, reason, detail, list(ops), witness)

    ddg.validate_against(machine)
    if not modulo_feasible_t(ddg, machine, t_period):
        offenders = sorted({
            op.op_class for op in ddg.ops
            if not machine.reservation_for(op.op_class).modulo_feasible(
                t_period
            )
        })
        return found(
            Reason.MODULO,
            "reservation table(s) self-collide mod T for class(es): "
            + ", ".join(offenders),
            [op.index for op in ddg.ops if op.op_class in offenders],
        )

    full = Formulation(ddg, machine, t_period)
    reason, fu = full.ruled_out, full.presolve_info.fu_type
    if reason in ("dependence_cycle", "empty_window"):
        return found(
            Reason.DEPENDENCE,
            "a recurrence cycle needs more than T cycles per iteration",
            critical_cycle(ddg, machine) or [],
        )
    type_ops = [
        op.index for op in ddg.ops
        if machine.op_class(op.op_class).fu_type == fu
    ]
    if reason == "resource_floor":
        return found(
            Reason.CAPACITY,
            f"FU type {fu!r}: its busiest stage is used more than "
            f"{machine.fu_type(fu).count} x T times (busiest-stage bound)",
            type_ops,
        )

    counting = Formulation(
        ddg, machine, t_period, FormulationOptions(mapping=False)
    )
    counted = counting.solve(backend=backend, time_limit=time_limit)
    witness = (
        counting.extract(counted, require_mapping=False)
        if counted.status.has_solution else None
    )
    if reason == "copy_packing":
        return found(
            Reason.MAPPING,
            f"FU type {fu!r}: its ops' stage uses cannot be split over "
            f"{machine.fu_type(fu).count} copies with no copy's stage "
            "used more than T times — no fixed FU assignment exists",
            type_ops, witness,
        )
    if witness is None:
        if counted.status == SolveStatus.INFEASIBLE:
            return found(Reason.CAPACITY,
                         "the counting relaxation (aggregate usage + "
                         "dependences combined) is infeasible")
        return found(Reason.UNKNOWN, "counting relaxation hit the budget")

    solution = full.solve(backend=backend, time_limit=time_limit)
    if solution.status.has_solution:
        return found(Reason.FEASIBLE)
    if solution.status != SolveStatus.INFEASIBLE:
        return found(Reason.UNKNOWN, "full formulation hit the budget")
    try:
        greedy_mapping(ddg, machine, witness.starts, t_period)
    except MappingError as exc:
        unclean = [
            op.index for op in ddg.ops
            if not machine.reservation_for(op.op_class).is_clean
        ]
        return found(Reason.MAPPING, str(exc), unclean, witness)
    return found(Reason.MAPPING,
                 "coloring infeasible although one counting schedule "
                 "happens to map greedily — the dependence/mapping "
                 "interaction rules out every mappable offset choice",
                 witness=witness)
