"""Iterative modulo scheduling (Rau, MICRO-27 1994 [22]) with hazards.

The heuristic counterpart to the paper's ILP: operations are placed into
a modulo reservation table (MRT) kept **per physical FU copy**, so the
heuristic performs scheduling and mapping simultaneously — the same
problem the ILP solves exactly.  When no slot/copy fits, the op is
*forced* into place and conflicting ops are evicted and rescheduled
(the "iterative" part), under a placement budget; exhausting the budget
bumps the initiation interval.

Differences from Rau's formulation are deliberate simplifications that do
not change the algorithm's character: priorities are static heights, and
dependence violations caused by a forced placement evict the offending
neighbours rather than being patched in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.schedule import Schedule
from repro.ddg.graph import Ddg
from repro.machine import Machine


@dataclass
class ModuloScheduleResult:
    """Outcome of the heuristic scheduler."""

    loop_name: str
    mii: int
    achieved_ii: Optional[int]
    schedule: Optional[Schedule]
    placements: int
    tried_iis: List[int]

    @property
    def delta_from_mii(self) -> Optional[int]:
        if self.achieved_ii is None:
            return None
        return self.achieved_ii - self.mii


def iterative_modulo_schedule(
    ddg: Ddg,
    machine: Machine,
    max_extra: int = 40,
    budget_ratio: int = 8,
) -> ModuloScheduleResult:
    """Schedule ``ddg`` heuristically; try II = MII .. MII + max_extra."""
    ddg.validate_against(machine)
    bounds = lower_bounds(ddg, machine)
    mii = bounds.t_lb
    tried: List[int] = []
    total_placements = 0
    for ii in range(mii, mii + max_extra + 1):
        if not modulo_feasible_t(ddg, machine, ii):
            continue
        tried.append(ii)
        schedule, placements = _attempt(ddg, machine, ii, budget_ratio)
        total_placements += placements
        if schedule is not None:
            return ModuloScheduleResult(
                loop_name=ddg.name,
                mii=mii,
                achieved_ii=ii,
                schedule=schedule,
                placements=total_placements,
                tried_iis=tried,
            )
    return ModuloScheduleResult(
        loop_name=ddg.name,
        mii=mii,
        achieved_ii=None,
        schedule=None,
        placements=total_placements,
        tried_iis=tried,
    )


def _heights(ddg: Ddg, machine: Machine, ii: int) -> List[float]:
    """Static priority: longest path to any sink under period ``ii``.

    Bellman-style relaxation; converges because II >= MII implies no
    positive cycles in the (d - II*m)-weighted graph.
    """
    lat = ddg.latencies(machine)
    separations = ddg.dep_latencies(machine)
    height = [float(lat[i]) for i in range(ddg.num_ops)]
    for _ in range(ddg.num_ops + 1):
        changed = False
        for dep, sep in zip(ddg.deps, separations):
            candidate = height[dep.dst] + sep - ii * dep.distance
            if candidate > height[dep.src] + 1e-9:
                height[dep.src] = candidate
                changed = True
        if not changed:
            break
    return height


class _Mrt:
    """Modulo reservation tables per physical FU copy."""

    def __init__(self, machine: Machine, ii: int) -> None:
        self.machine = machine
        self.ii = ii
        # cells[(fu, copy)][(stage, slot)] = op index
        self.cells: Dict[Tuple[str, int], Dict[Tuple[int, int], int]] = {}

    def footprint(self, op_class: str, start: int) -> List[Tuple[int, int]]:
        table = self.machine.reservation_for(op_class)
        return [
            (stage, (start + cycle) % self.ii)
            for stage, cycle in table.usage_offsets()
        ]

    def conflicts(
        self, op_class: str, start: int, fu_name: str, copy: int
    ) -> List[int]:
        board = self.cells.setdefault((fu_name, copy), {})
        footprint = self.footprint(op_class, start)
        return sorted(
            {board[cell] for cell in footprint if cell in board}
        )

    def place(self, op_index: int, op_class: str, start: int,
              fu_name: str, copy: int) -> None:
        board = self.cells.setdefault((fu_name, copy), {})
        for cell in self.footprint(op_class, start):
            board[cell] = op_index

    def remove(self, op_index: int) -> None:
        for board in self.cells.values():
            stale = [cell for cell, holder in board.items()
                     if holder == op_index]
            for cell in stale:
                del board[cell]


def _attempt(
    ddg: Ddg, machine: Machine, ii: int, budget_ratio: int
) -> Tuple[Optional[Schedule], int]:
    n = ddg.num_ops
    separations = ddg.dep_latencies(machine)
    heights = _heights(ddg, machine, ii)
    budget = budget_ratio * n
    placements = 0

    start: List[Optional[int]] = [None] * n
    copy_of: List[Optional[int]] = [None] * n
    last_tried: List[int] = [-1] * n
    mrt = _Mrt(machine, ii)
    pending = sorted(range(n), key=lambda i: (-heights[i], i))

    def earliest_start(i: int) -> int:
        lo = 0
        for dep, sep in zip(ddg.deps, separations):
            if dep.dst != i or start[dep.src] is None:
                continue
            lo = max(lo, start[dep.src] + sep - ii * dep.distance)
        return lo

    def unschedule(i: int) -> None:
        mrt.remove(i)
        start[i] = None
        copy_of[i] = None
        pending.append(i)
        pending.sort(key=lambda x: (-heights[x], x))

    while pending and placements < budget:
        op_index = pending.pop(0)
        op = ddg.ops[op_index]
        fu = machine.fu_type_of(op.op_class)
        lo = earliest_start(op_index)
        if start[op_index] is None and last_tried[op_index] >= lo:
            lo = last_tried[op_index] + 1
        placed = False
        for candidate in range(lo, lo + ii):
            for copy in range(fu.count):
                if not mrt.conflicts(op.op_class, candidate, fu.name, copy):
                    _commit(
                        mrt, ddg, op_index, candidate, fu.name, copy,
                        start, copy_of,
                    )
                    last_tried[op_index] = candidate
                    placed = True
                    break
            if placed:
                break
        if not placed:
            # Force placement at the earliest slot on copy 0, evicting.
            candidate = max(lo, last_tried[op_index] + 1)
            victims = mrt.conflicts(op.op_class, candidate, fu.name, 0)
            for victim in victims:
                unschedule(victim)
            _commit(mrt, ddg, op_index, candidate, fu.name, 0,
                    start, copy_of)
            last_tried[op_index] = candidate
        placements += 1
        # Evict scheduled ops whose dependences the new placement violates.
        for dep, sep in zip(ddg.deps, separations):
            if start[dep.src] is None or start[dep.dst] is None:
                continue
            if dep.src != op_index and dep.dst != op_index:
                continue
            if (start[dep.dst] - start[dep.src]
                    < sep - ii * dep.distance):
                victim = dep.dst if dep.src == op_index else dep.src
                if victim != op_index:
                    unschedule(victim)

    if pending:
        return None, placements

    # Normalize start times to be non-negative (they already are) and
    # package as a Schedule.
    starts = [int(s) for s in start]  # type: ignore[arg-type]
    shift = min(starts)
    if shift < 0:  # pragma: no cover - earliest_start never goes negative
        starts = [s - shift for s in starts]
    colors = {i: int(c) for i, c in enumerate(copy_of)}  # type: ignore[arg-type]
    schedule = Schedule(
        ddg=ddg, machine=machine, t_period=ii, starts=starts, colors=colors
    )
    return schedule, placements


def _commit(mrt, ddg, op_index, candidate, fu_name, copy, start, copy_of):
    mrt.place(op_index, ddg.ops[op_index].op_class, candidate, fu_name, copy)
    start[op_index] = candidate
    copy_of[op_index] = copy
