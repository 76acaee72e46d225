"""Slack-based (lifetime-sensitive) modulo scheduling — Huff [13].

The second heuristic comparator the paper's related-work section names.
Differences from plain iterative modulo scheduling
(:mod:`repro.baselines.modulo`):

* ops are prioritized by **slack** — ``lstart - estart`` under the
  current partial schedule — so critical ops are placed first;
* placement is **bidirectional**: ops with unplaced successors fill
  from their early bound upward, ops feeding already-placed consumers
  fill from their late bound downward, keeping value lifetimes short
  (the "lifetime-sensitive" part);
* conflicts force placement with eviction under a budget, as in Rau.

Like the other baselines, it performs scheduling *and* mapping (per-unit
modulo reservation tables), so its II is directly comparable to the
ILP's T.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.modulo import ModuloScheduleResult, _Mrt
from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.schedule import Schedule
from repro.ddg.graph import Ddg
from repro.machine import Machine

#: Latest-start horizon used when an op has no placed successors.
_HORIZON_SLOP = 3


def slack_modulo_schedule(
    ddg: Ddg,
    machine: Machine,
    max_extra: int = 40,
    budget_ratio: int = 8,
) -> ModuloScheduleResult:
    """Schedule ``ddg`` with slack-driven placement; II = MII upward."""
    ddg.validate_against(machine)
    bounds = lower_bounds(ddg, machine)
    mii = bounds.t_lb
    tried: List[int] = []
    placements_total = 0
    for ii in range(mii, mii + max_extra + 1):
        if not modulo_feasible_t(ddg, machine, ii):
            continue
        tried.append(ii)
        schedule, placements = _attempt(ddg, machine, ii, budget_ratio)
        placements_total += placements
        if schedule is not None:
            return ModuloScheduleResult(
                loop_name=ddg.name,
                mii=mii,
                achieved_ii=ii,
                schedule=schedule,
                placements=placements_total,
                tried_iis=tried,
            )
    return ModuloScheduleResult(
        loop_name=ddg.name,
        mii=mii,
        achieved_ii=None,
        schedule=None,
        placements=placements_total,
        tried_iis=tried,
    )


def _attempt(
    ddg: Ddg, machine: Machine, ii: int, budget_ratio: int
) -> Tuple[Optional[Schedule], int]:
    n = ddg.num_ops
    separations = ddg.dep_latencies(machine)
    horizon = ii * (n + _HORIZON_SLOP) + sum(ddg.latencies(machine))
    budget = budget_ratio * n
    placements = 0

    start: List[Optional[int]] = [None] * n
    copy_of: List[Optional[int]] = [None] * n
    last_forced: List[int] = [-1] * n
    mrt = _Mrt(machine, ii)

    def estart(i: int) -> int:
        lo = 0
        for dep, sep in zip(ddg.deps, separations):
            if dep.dst != i or dep.src == i or start[dep.src] is None:
                continue
            lo = max(lo, start[dep.src] + sep - ii * dep.distance)
        return lo

    def lstart(i: int) -> int:
        hi = horizon
        for dep, sep in zip(ddg.deps, separations):
            if dep.src != i or dep.dst == i or start[dep.dst] is None:
                continue
            hi = min(hi, start[dep.dst] - sep + ii * dep.distance)
        return hi

    def unschedule(i: int) -> None:
        mrt.remove(i)
        start[i] = None
        copy_of[i] = None
        pending.add(i)

    def place(i: int, slot: int, fu_name: str, copy: int) -> None:
        mrt.place(i, ddg.ops[i].op_class, slot, fu_name, copy)
        start[i] = slot
        copy_of[i] = copy

    pending = set(range(n))
    while pending and placements < budget:
        # Slack priority under the *current* partial schedule.
        chosen = min(
            pending,
            key=lambda i: (lstart(i) - estart(i), -_degree(ddg, i), i),
        )
        pending.discard(chosen)
        op = ddg.ops[chosen]
        fu = machine.fu_type_of(op.op_class)
        lo = estart(chosen)
        hi = lstart(chosen)
        downward = any(
            dep.src == chosen and start[dep.dst] is not None
            for dep in ddg.deps
        )
        window: List[int]
        if hi < lo:
            window = []
        elif downward:
            window = list(range(min(hi, lo + ii - 1), lo - 1, -1))
        else:
            window = list(range(lo, min(hi, lo + ii - 1) + 1))
        placed = False
        for slot in window:
            for copy in range(fu.count):
                if not mrt.conflicts(op.op_class, slot, fu.name, copy):
                    place(chosen, slot, fu.name, copy)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            slot = max(lo, last_forced[chosen] + 1)
            victims = mrt.conflicts(op.op_class, slot, fu.name, 0)
            for victim in victims:
                unschedule(victim)
            place(chosen, slot, fu.name, 0)
            last_forced[chosen] = slot
        placements += 1
        # Evict neighbours whose dependence the new placement breaks.
        for dep, sep in zip(ddg.deps, separations):
            if start[dep.src] is None or start[dep.dst] is None:
                continue
            if chosen not in (dep.src, dep.dst):
                continue
            if start[dep.dst] - start[dep.src] < sep - ii * dep.distance:
                victim = dep.dst if dep.src == chosen else dep.src
                if victim != chosen:
                    unschedule(victim)

    if pending:
        return None, placements
    starts = [int(s) for s in start]  # type: ignore[arg-type]
    shift = min(starts)
    if shift > 0:
        # Slide everything down so the pattern starts at cycle 0's
        # congruence class unchanged (offsets mod ii preserved only if
        # we shift by multiples of ii).
        shift -= shift % ii
        starts = [s - shift for s in starts]
    colors = {i: int(c) for i, c in enumerate(copy_of)}  # type: ignore[arg-type]
    return (
        Schedule(ddg=ddg, machine=machine, t_period=ii, starts=starts,
                 colors=colors),
        placements,
    )


def _degree(ddg: Ddg, i: int) -> int:
    return sum(1 for d in ddg.deps if d.src == i or d.dst == i)
