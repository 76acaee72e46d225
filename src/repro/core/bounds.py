"""Lower bounds on the initiation interval and admissible periods.

``T_dep`` (recurrences) comes from :mod:`repro.ddg.analysis`; ``T_res``
is the resource bound: for each FU type the busiest pipeline *stage* must
fit all its uses into ``R_r * T`` slot-copies, giving

    T_res(r) = ceil( max_stage( total uses of stage by all ops on r ) / R_r )

(for clean pipelines this reduces to the familiar ``ceil(N_r / R_r)``;
for a non-pipelined unit of busy time ``d`` it is ``ceil(N_r * d / R_r)``).

A candidate period must additionally satisfy the **modulo scheduling
constraint** (§3): every reservation table in use must be conflict-free
mod ``T``.  Periods violating it admit *no* fixed-FU schedule and are
skipped by the driver (the paper assumes them away; we detect them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.ddg.analysis import t_dep
from repro.ddg.graph import Ddg
from repro.machine import Machine


def t_res(ddg: Ddg, machine: Machine) -> int:
    """The resource-constrained lower bound on T."""
    per_type = per_type_t_res(ddg, machine)
    return max(per_type.values(), default=1)


def per_type_t_res(ddg: Ddg, machine: Machine) -> Dict[str, int]:
    """Resource bound contributed by each FU type (only types in use)."""
    stage_usage: Dict[str, Dict[int, int]] = {}
    for op in ddg.ops:
        cls = machine.op_class(op.op_class)
        table = machine.reservation_for(op.op_class)
        usage = stage_usage.setdefault(cls.fu_type, {})
        for stage, count in enumerate(table.stage_usage_counts()):
            if count:
                usage[stage] = usage.get(stage, 0) + count
    bounds: Dict[str, int] = {}
    for fu_name, usage in stage_usage.items():
        count = machine.fu_type(fu_name).count
        busiest = max(usage.values())
        bounds[fu_name] = max(1, math.ceil(busiest / count))
    return bounds


@dataclass(frozen=True)
class LowerBounds:
    """The three bounds the paper reports per loop."""

    t_dep: int
    t_res: int

    @property
    def t_lb(self) -> int:
        return max(self.t_dep, self.t_res)


def lower_bounds(ddg: Ddg, machine: Machine) -> LowerBounds:
    """Compute ``T_dep``, ``T_res`` and hence ``T_lb`` for a loop."""
    return LowerBounds(t_dep=t_dep(ddg, machine), t_res=t_res(ddg, machine))


def modulo_feasible_t(ddg: Ddg, machine: Machine, t_period: int) -> bool:
    """Whether every reservation table used by the loop is hazard-free
    mod ``t_period`` (the §3 modulo scheduling constraint)."""
    return all(
        machine.reservation_for(cls).modulo_feasible(t_period)
        for cls in ddg.classes_used()
    )
